module Campaign = Ffault_campaign
module Pool = Campaign.Pool
module Json = Campaign.Json
module Telemetry_io = Campaign.Telemetry_io
module Metrics = Ffault_telemetry.Metrics
module Tracer = Ffault_telemetry.Tracer
module Clock = Ffault_runtime.Clock
module Retry = Ffault_supervise.Retry
module Core = Worker_core

type config = {
  endpoint : Transport.endpoint;
  name : string;
  domains : int;
  chunk : int;
}

let default_name () =
  let host = try Unix.gethostname () with Unix.Unix_error _ -> "worker" in
  Fmt.str "%s-%d" host (Unix.getpid ())

let config ?name ?(domains = 1) ?(chunk = 64) endpoint =
  if domains < 1 then invalid_arg "Worker.config: domains < 1";
  if chunk < 1 then invalid_arg "Worker.config: chunk < 1";
  let name = match name with Some n -> n | None -> default_name () in
  { endpoint; name; domains; chunk }

(* Bounded backoff for (re)connecting to the coordinator — the same
   Retry machinery the trial engine uses, seeded by the worker name so
   a fleet restarting against one coordinator does not thundering-herd.
   Generous on purpose: the schedule must ride out a coordinator crash
   plus its restart (~23 s worst case end to end). *)
let default_retry =
  Retry.policy ~max_retries:8 ~base_backoff_ns:250_000_000
    ~max_backoff_ns:5_000_000_000 ()

type summary = Core.summary = {
  leases_run : int;
  trials_run : int;
  trials_skipped : int;
  reconnects : int;
  stop_reason : string;
}

let supervision_of_wire (s : Codec.supervision) =
  (* adaptive without a deadline is meaningless (and the Pool builder
     rejects it); a coordinator never sends it, but the wire could *)
  let adaptive = s.Codec.adaptive_deadline && s.Codec.deadline_s <> None in
  Pool.supervision ?deadline_s:s.Codec.deadline_s ~max_retries:s.Codec.max_retries
    ~quarantine_after:s.Codec.quarantine_after ~adaptive_deadline:adaptive ()

(* The observability payload of one beat: the current metrics snapshot
   (cheap — a few hundred counter reads) and, when tracing, whatever
   spans accumulated since the last beat (pid-less Chrome shape — the
   coordinator's merge assigns the pid row). [keep] also records the
   spans locally so [--trace] can write this worker's own file at the
   end. *)
let piggyback ~keep () =
  let snapshot = Some (Telemetry_io.to_json (Metrics.snapshot ())) in
  let spans =
    if not (Tracer.enabled ()) then None
    else
      match Campaign.Trace_merge.of_tracer_events (Tracer.drain ()) with
      | [] -> None
      | batch ->
          keep batch;
          Some (Json.List batch)
  in
  Codec.Heartbeat { snapshot; spans }

let write_local_trace path spans =
  let pid = Unix.getpid () in
  let stamped =
    List.map
      (fun s ->
        match s with
        | Json.Obj fields -> Json.Obj (fields @ [ ("pid", Json.Int pid) ])
        | other -> other)
      spans
  in
  let doc =
    Json.Obj
      [ ("traceEvents", Json.List stamped); ("displayTimeUnit", Json.Str "ms") ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string doc))

(* The socket driver. The main thread owns the socket: it waits in
   [select] for a frame or the [Wake] timer, and runs each lease to the
   end on the engine. A ticker thread fires the heartbeat timer, so a
   worker grinding through a slow range never looks dead; a heartbeat
   only ever sends, so the ticker never touches the connection's
   lifetime. Every core call goes through [lock]. Send errors are not
   reported to the core: a broken connection shows on the read side
   (EOF, an error, or a [Bye] the coordinator wrote before closing) or
   as an expired reply deadline. *)
let run ?(on_event = fun _ -> ()) ?(on_warn = fun _ -> ()) ?(retry = default_retry)
    ?trace_path cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let core = Core.create ~clock:Clock.monotonic ~retry ~name:cfg.name ~domains:cfg.domains in
  let lock = Mutex.create () in
  let conn = ref None in
  let beat_due = ref max_int and wake_due = ref max_int in
  let pending = ref None and result = ref None in
  (* the ticker and the engine both drain the tracer; [keep] is the only
     shared state outside [lock] and stays guarded by its own mutex *)
  let spans_lock = Mutex.create () in
  let local_spans_rev = ref [] in
  let keep batch =
    if trace_path <> None then
      Mutex.protect spans_lock (fun () ->
          local_spans_rev := List.rev_append batch !local_spans_rev)
  in
  let send m = Option.iter (fun c -> ignore (Transport.send_msg c m)) !conn in
  let rec feed ev = List.iter perform (Core.handle core ev)
  and perform = function
    | Core.Connect -> (
        match Transport.connect cfg.endpoint with
        | Ok c ->
            conn := Some c;
            feed Core.Connected
        | Error e -> feed (Core.Connect_failed e))
    | Core.Send m -> send m
    | Core.Beat -> send (piggyback ~keep ())
    | Core.Close ->
        Option.iter Transport.close !conn;
        conn := None
    | Core.Arm (Core.Heartbeat, at) -> beat_due := at
    | Core.Arm (Core.Wake, at) -> wake_due := at
    | Core.Run { lease; spec; supervision } -> pending := Some (lease, spec, supervision)
    | Core.Note m -> on_event m
    | Core.Warn m -> on_warn m
    | Core.Stop r -> result := Some r
  in
  let step ev = Mutex.protect lock (fun () -> feed ev) in
  let fire due timer =
    Mutex.protect lock (fun () ->
        if Clock.now_ns Clock.monotonic >= !due then begin
          due := max_int;
          feed (Core.Timer timer)
        end)
  in
  let run_lease (lease, spec, supervision) =
    pending := None;
    let runs = Core.runs lease in
    ignore
      (Pool.run_trials ~domains:cfg.domains ~chunk:cfg.chunk
         ~skip:(fun id -> not (runs id))
         ~supervision:(supervision_of_wire supervision)
         ~on_record:(fun r -> step (Core.Record r))
         spec);
    step Core.Lease_done
  in
  (* frames of a connection the core has since closed are stale *)
  let current c = match !conn with Some c' -> c' == c | None -> false in
  let read c =
    match Transport.recv_step c with
    | `Frames fs ->
        List.iter
          (fun f ->
            if current c then
              step (match Codec.of_frame f with Ok m -> Core.Msg m | Error e -> Core.Closed e))
          fs
    | `Closed -> step (Core.Closed "connection closed")
    | `Error e -> step (Core.Closed e)
  in
  let rec loop () =
    match (!result, !pending) with
    | Some r, _ -> r
    | None, Some lease ->
        run_lease lease;
        loop ()
    | None, None ->
        let wait_s =
          Float.min 1.0 (float_of_int (!wake_due - Clock.now_ns Clock.monotonic) /. 1e9)
        in
        (if wait_s > 0.0 then
           match !conn with
           | None -> Thread.delay wait_s
           | Some c -> if Transport.readable c ~timeout_s:wait_s then read c);
        fire wake_due Core.Wake;
        loop ()
  in
  let stop = Atomic.make false in
  let ticker =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05;
          fire beat_due Core.Heartbeat
        done)
      ()
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join ticker)
      (fun () ->
        Mutex.protect lock (fun () -> List.iter perform (Core.start core));
        loop ())
  in
  if trace_path <> None && Tracer.enabled () then
    keep (Campaign.Trace_merge.of_tracer_events (Tracer.drain ()));
  Option.iter (fun path -> write_local_trace path (List.rev !local_spans_rev)) trace_path;
  Result.map (fun _ -> Core.summary core) outcome
