module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Json = Campaign.Json
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Codec = Ffault_dist.Codec
module Core = Ffault_dist.Core
module Status = Ffault_dist.Status
module Coordinator = Ffault_dist.Coordinator
module Wcore = Ffault_dist.Worker_core
module Retry = Ffault_supervise.Retry
module Events = Ffault_telemetry.Events

type config = {
  workers : int;
  trials : int;
  lease_trials : int;
  verify_complete : bool;
  fence_epochs : bool;
  horizon_ns : int;
}

let config ?(workers = 3) ?(trials = 200) ?(lease_trials = 32)
    ?(verify_complete = true) ?(fence_epochs = true) ?(horizon_ns = 60_000_000_000) () =
  if workers < 1 then invalid_arg "Sim.config: workers must be >= 1";
  if trials < 1 then invalid_arg "Sim.config: trials must be >= 1";
  if lease_trials < 1 then invalid_arg "Sim.config: lease_trials must be >= 1";
  if horizon_ns < 1_000_000_000 then invalid_arg "Sim.config: horizon under 1s";
  { workers; trials; lease_trials; verify_complete; fence_epochs; horizon_ns }

type violation =
  | Duplicate of int
  | Hole of int
  | Stalled of string
  | Reexec of { worker : string; trial : int }

let violation_to_string = function
  | Duplicate id -> Printf.sprintf "trial %d journaled more than once" id
  | Hole id -> Printf.sprintf "trial %d never journaled" id
  | Stalled why -> "stalled: " ^ why
  | Reexec { worker; trial } ->
      Printf.sprintf "trial %d re-executed by %s without a reconcile between" trial
        worker

type result = {
  violation : violation option;
  fired : Fault_plan.atom list;
  records : Journal.record list;
  journal_bytes : string;
  trace : string list;
  events : int;
  end_ns : int;
  status_probes : (int * string * string) list;
}

let probe_ns = 1_000_000_000 (* mid-run status scrape, virtual *)

(* ---- virtual-time tuning (all deterministic constants) ---- *)

let tick_ns = 50_000_000 (* coordinator tick cadence *)
let hb_interval_s = 0.5 (* imposed on workers via Welcome; their reply deadline is 2x *)
let lease_timeout_s = 2.0 (* silence budget before a lease is reclaimed *)
let trial_cost_ns = 2_000_000 (* virtual compute per trial *)

(* Refused connects and lost sessions (coordinator down between crash
   and restart, a partition, a silent link) back off under a bounded
   Retry schedule, as the socket worker does — with enough budget to
   outlast any window the plan can derive. *)
let connect_retry =
  Retry.policy ~max_retries:20 ~base_backoff_ns:50_000_000
    ~max_backoff_ns:1_000_000_000 ()

(* The sim exercises the distribution layer, not the trial engine:
   every trial "runs" to the same synthetic pass record, a pure
   function of the grid — which is what makes the journal of a run a
   deterministic artifact worth diffing. *)
let record_of spec id =
  let tr = Grid.trial spec id in
  {
    Journal.trial = id;
    cell = tr.Grid.cell;
    seed = tr.Grid.seed;
    ok = true;
    outcome = Journal.Pass;
    retries = 0;
    violations = [];
    steps = 1;
    max_steps = 1;
    stage = -1;
    faults = 0;
    crash_faults = 0;
    wall_us = 1;
    witness = None;
  }

(* A simulated worker process: the real [Worker_core] plus what its
   driver owns — the connection, and the process incarnation, which a
   crash or a stop bumps to cancel every timer and trial the old
   process had scheduled. *)
type wproc = {
  idx : int;
  wname : string;
  mutable core : Wcore.t;
  mutable inc : int;
  mutable wconn : Net.conn option;
  mutable sent : int; (* result frames streamed — the synthetic telemetry counter *)
}

let run ?atoms cfg ~seed =
  let sched = Sched.create () in
  let trace_rev = ref [] in
  let push s = trace_rev := s :: !trace_rev in
  let tracef fmt =
    Printf.ksprintf
      (fun s ->
        push
          (Printf.sprintf "%10.3fms %s"
             (float_of_int (Sched.now_ns sched) /. 1e6)
             s))
      fmt
  in
  let plan =
    let full = Fault_plan.generate ~seed ~workers:cfg.workers in
    match atoms with None -> full | Some atoms -> Fault_plan.replay full ~atoms
  in
  let net = Net.create ~sched ~plan ~trace:push ~workers:cfg.workers () in
  let spec = Spec.v ~name:"netsim" ~protocol:"fig1" ~trials:cfg.trials () in
  let total = Grid.total_trials spec in
  let records_rev = ref [] in
  (* The run keeps every journaled record. A decoded record carries its
     own copy of its cell, with the rate boxed; when that copy equals the
     grid's cell, the log keeps the grid's instead. That cuts the
     one-word blocks a schedule promotes to the major heap by ~40%. *)
  let cells = Grid.cells spec in
  let share_cell (r : Journal.record) =
    let id = r.Journal.trial / spec.Spec.trials in
    if id >= 0 && id < Array.length cells && Grid.equal_cell r.Journal.cell cells.(id) then
      { r with Journal.cell = cells.(id) }
    else r
  in
  (* the coordinator's structured event log, on virtual time and graded
     by the real coordinator's classifier — /events is golden-testable.
     One log across incarnations, like the appended events.jsonl. *)
  let evlog = Events.create ~now:(fun () -> Sched.now_ns sched) () in
  let io = { Core.peer = Net.peer; send = Net.send; close = Net.close } in
  (* ---- the worker-side exactly-once log ----
     Every execution is recorded as (worker, trial, grant epoch, lease
     id, worker incarnation). The same worker executing the same trial
     twice is legitimate only when the coordinator reconciled in
     between — and because a shard lives in at most one lease at a
     time, that ordering is visible at the grants: the earlier lease
     must have been requeued (expiry, disconnect, reconcile-at-request,
     holey Complete) before the range could travel again, or the
     earlier grant belongs to a dead incarnation whose whole lease
     table was re-derived from the journal (epoch differs). A repeat
     under the {e same} lease id is the network duplicating a grant
     frame — the worker honestly re-ran what it was handed; dedup
     absorbs it. [Core.create]'s [on_requeue] records the requeues. *)
  let exec_rev = ref [] in
  let requeued : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* ---- the restartable coordinator ----
     The engine and its lease table live in [core]; a CoordCrash drops
     them (private state dies with the process) and the restart boots a
     fresh incarnation whose only input is the journal — exactly the
     recovery the real [serve --resume] runs. *)
  let epoch = ref 0 in
  let core : Net.conn Core.t option ref = ref None in
  let finished = ref false in
  let install_listener () =
    Net.set_listener net
      (Some
         (fun conn ->
           match !core with
           | None -> ()
           | Some co ->
               let c = Core.add_client co conn in
               (* a connection accepted by one incarnation must never
                  poke a later one: guard every callback on the engine
                  it was registered with still being current *)
               let live () = match !core with Some co' -> co' == co | None -> false in
               Net.set_handler conn
                 {
                   Net.h_frames =
                     (fun frames ->
                       if live () then List.iter (Core.deliver co c) frames);
                   h_closed =
                     (fun () ->
                       if live () && not (Core.dropped c) then
                         Core.client_closed co c ~why:"eof");
                   h_error =
                     (fun e ->
                       if live () && not (Core.dropped c) then
                         Core.client_closed co c ~why:e);
                 }))
  in
  let boot () =
    incr epoch;
    let this_epoch = !epoch in
    let st = Checkpoint.fresh ~total in
    List.iter
      (fun (r : Journal.record) ->
        if not (Checkpoint.is_done st r.Journal.trial) then
          Checkpoint.mark st r.Journal.trial ~ok:r.Journal.ok)
      !records_rev;
    let co =
      Core.create ~clock:(Sched.clock sched) ~epoch:this_epoch
        ~fence_epochs:cfg.fence_epochs ~verify_complete:cfg.verify_complete
        ~on_event:(fun s ->
          Events.emit evlog ~severity:(Coordinator.classify s) ~scope:"dist" s;
          tracef "coord: %s" s)
        ~on_requeue:(fun _name lease -> Hashtbl.replace requeued (this_epoch, lease) ())
        ~io
        ~append:(fun r -> records_rev := share_cell r :: !records_rev)
        ~st ~spec ~lease_trials:cfg.lease_trials ~lease_timeout_s ~hb_interval_s
        ~max_workers:(cfg.workers * 4) ~supervision:Codec.no_supervision ()
    in
    core := Some co;
    install_listener ()
  in
  boot ();
  (* status probes: the very responses the live HTTP endpoint would
     serve, taken under virtual time. Process metrics are shared global
     state across a test binary, so /metrics is not probed here. *)
  let status_probes_rev = ref [] in
  let probe () =
    match !core with
    | None -> () (* coordinator down: nothing is serving /status *)
    | Some co ->
        let source =
          {
            Status.view = (fun () -> Core.view co);
            events = (fun ~limit -> Events.tail ~limit evlog);
            metrics = (fun () -> "");
          }
        in
        List.iter
          (fun path ->
            let r = Status.respond source path in
            status_probes_rev :=
              (Sched.now_ns sched, path, r.Status.body) :: !status_probes_rev)
          [ "/status"; "/workers"; "/events" ]
  in
  (* coordinator completion is observed on the tick timer; once done,
     finish + close the listener so restarting workers stop cleanly and
     the event queue can drain *)
  let rec tick () =
    if not !finished then begin
      (match !core with
      | None -> () (* down: the restart event re-enters via [boot] *)
      | Some co ->
          if Core.is_done co then begin
            finished := true;
            tracef "coord: campaign complete";
            Core.finish co;
            Net.set_listener net None;
            probe ()
          end
          else Core.tick co);
      if not !finished then Sched.after sched ~ns:tick_ns tick
    end
  in
  Sched.after sched ~ns:tick_ns tick;
  Sched.at sched ~ns:probe_ns (fun () -> if not !finished then probe ());

  (* ---- worker processes: Worker_core on virtual time ---- *)
  let new_core wname =
    Wcore.create ~clock:(Sched.clock sched) ~retry:connect_retry ~name:wname ~domains:1
  in
  let ws =
    Array.init cfg.workers (fun idx ->
        let wname = Printf.sprintf "w%d" idx in
        { idx; wname; core = new_core wname; inc = 0; wconn = None; sent = 0 })
  in
  let send w msg = Option.iter (fun c -> ignore (Net.send c msg)) w.wconn in
  let rec feed w ev = List.iter (perform w) (Wcore.handle w.core ev)
  and perform w = function
    | Wcore.Connect -> (
        match Net.connect net ~worker:w.idx with
        | Error why -> feed w (Wcore.Connect_failed why)
        | Ok conn ->
            w.wconn <- Some conn;
            let live () = match w.wconn with Some c -> c == conn | None -> false in
            Net.set_handler conn
              {
                Net.h_frames =
                  (fun frames ->
                    List.iter
                      (fun f ->
                        if live () then
                          feed w
                            (match Codec.of_frame f with
                            | Ok m -> Wcore.Msg m
                            | Error why -> Wcore.Closed ("bad frame: " ^ why)))
                      frames);
                h_closed = (fun () -> if live () then feed w (Wcore.Closed "eof"));
                h_error = (fun e -> if live () then feed w (Wcore.Closed e));
              };
            feed w Wcore.Connected)
    | Wcore.Send msg ->
        (match msg with Codec.Result _ -> w.sent <- w.sent + 1 | _ -> ());
        send w msg
    | Wcore.Beat ->
        (* beats piggyback a synthetic telemetry snapshot (results
           streamed so far) — deterministic, unlike real process
           metrics, so the merged fleet counters golden-test *)
        send w
          (Codec.Heartbeat
             {
               snapshot =
                 Some
                   (Json.Obj
                      [ ("counters", Json.Obj [ ("netsim.results_sent", Json.Int w.sent) ]) ]);
               spans = None;
             })
    | Wcore.Close ->
        Option.iter Net.close w.wconn;
        w.wconn <- None
    | Wcore.Arm (timer, at) ->
        let inc = w.inc in
        Sched.at sched ~ns:at (fun () -> if w.inc = inc then feed w (Wcore.Timer timer))
    | Wcore.Run { lease; _ } -> run_lease w lease
    | Wcore.Note m | Wcore.Warn m -> tracef "%s: %s" w.wname m
    | Wcore.Stop r ->
        tracef "%s: stop (%s)" w.wname (match r with Ok why -> "bye: " ^ why | Error e -> e);
        w.inc <- w.inc + 1
  and run_lease w (l : Wcore.lease) =
    (* the virtual-time executor: one synthetic record per trial cost,
       running on whatever happens to the connection meanwhile *)
    let inc = w.inc in
    let ids = List.filter (Wcore.runs l) (List.init (max 0 (l.hi - l.lo)) (( + ) l.lo)) in
    List.iteri
      (fun j id ->
        Sched.after sched ~ns:((j + 1) * trial_cost_ns) (fun () ->
            if w.inc = inc then begin
              exec_rev := (w.idx, id, l.epoch, l.id, w.inc) :: !exec_rev;
              feed w (Wcore.Record (record_of spec id))
            end))
      ids;
    Sched.after sched
      ~ns:((List.length ids + 1) * trial_cost_ns)
      (fun () -> if w.inc = inc then feed w Wcore.Lease_done)
  in
  Array.iter
    (fun w ->
      let inc = w.inc in
      Sched.after sched ~ns:((w.idx + 1) * 1_000_000) (fun () ->
          if w.inc = inc then List.iter (perform w) (Wcore.start w.core)))
    ws;

  (* ---- the schedule's partition and crash windows ---- *)
  List.iter
    (fun (at_ns, heal_ns, group) ->
      Sched.at sched ~ns:at_ns (fun () ->
          List.iter (fun wi -> Net.set_partitioned net ~worker:wi true) group);
      Sched.at sched ~ns:heal_ns (fun () ->
          List.iter (fun wi -> Net.set_partitioned net ~worker:wi false) group))
    (Fault_plan.partitions plan);
  List.iter
    (fun (wi, at_ns, restart_ns) ->
      let w = ws.(wi) in
      Sched.at sched ~ns:at_ns (fun () ->
          tracef "%s: crash" w.wname;
          w.inc <- w.inc + 1;
          w.wconn <- None;
          Net.crash_worker net ~worker:wi);
      Sched.at sched ~ns:restart_ns (fun () ->
          (* a restarted process remembers nothing *)
          tracef "%s: restart" w.wname;
          w.inc <- w.inc + 1;
          w.core <- new_core w.wname;
          List.iter (perform w) (Wcore.start w.core)))
    (Fault_plan.crashes plan);
  List.iter
    (fun (at_ns, restart_ns) ->
      Sched.at sched ~ns:at_ns (fun () ->
          if (not !finished) && Option.is_some !core then begin
            tracef "coord: crash — epoch %d 's lease table and connections lost" !epoch;
            Net.crash_coordinator net;
            core := None
          end);
      Sched.at sched ~ns:restart_ns (fun () ->
          if (not !finished) && Option.is_none !core then begin
            boot ();
            tracef "coord: restarted as epoch %d" !epoch
          end))
    (Fault_plan.coord_crashes plan);

  (* ---- run to completion or the horizon ---- *)
  let ending = Sched.run sched ~until_ns:cfg.horizon_ns in
  let records = List.rev !records_rev in
  let counts = Array.make total 0 in
  List.iter
    (fun (r : Journal.record) ->
      if r.Journal.trial >= 0 && r.Journal.trial < total then
        counts.(r.Journal.trial) <- counts.(r.Journal.trial) + 1)
    records;
  let first p =
    let rec go i =
      if i >= total then None else if p counts.(i) then Some i else go (i + 1)
    in
    go 0
  in
  (* The worker-side checker. A repeat under the same (epoch, lease) is
     a duplicated grant frame — benign, dedup absorbs it. A repeat
     under a different epoch rode a coordinator recovery — the whole
     lease table was re-derived from the journal, which is a reconcile.
     A repeat within one epoch under two different leases is legitimate
     only if the earlier-granted lease was requeued: a shard lives in
     at most one lease at a time, so for the range to travel twice the
     first grant must have been settled, and a verified retire proves
     the trials journaled (they would not travel again). An un-requeued
     repeat means a lease was retired on a stale incarnation's word —
     the fencing bug. Grant order is by lease id (ids are issued
     monotonically within an incarnation), not by execution order: a
     reordered grant frame can arrive — and run — after its range was
     requeued and re-granted. *)
  let reexec () =
    let tbl : (int * int, int * int * int) Hashtbl.t = Hashtbl.create 256 in
    let rec scan = function
      | [] -> None
      | (widx, id, epoch, lease, inc) :: rest -> (
          match Hashtbl.find_opt tbl (widx, id) with
          | Some (epoch', lease', inc')
            when epoch = epoch' && lease <> lease' && inc = inc'
                 && not (Hashtbl.mem requeued (epoch, min lease lease')) ->
              Some (Reexec { worker = Printf.sprintf "w%d" widx; trial = id })
          | _ ->
              Hashtbl.replace tbl (widx, id) (epoch, lease, inc);
              scan rest)
    in
    scan (List.rev !exec_rev)
  in
  let violation =
    match first (fun c -> c > 1) with
    | Some id -> Some (Duplicate id)
    | None ->
        if not !finished then
          Some
            (Stalled
               (Printf.sprintf "%s at %dms with %d/%d trial(s) journaled"
                  (match ending with
                  | `Horizon -> "horizon"
                  | `Drained -> "events drained")
                  (Sched.now_ns sched / 1_000_000)
                  (List.length records) total))
        else (
          match first (fun c -> c = 0) with
          | Some id -> Some (Hole id)
          | None -> reexec ())
  in
  {
    violation;
    fired = Fault_plan.fired plan;
    records;
    journal_bytes =
      String.concat "" (List.map (fun r -> Journal.to_line r ^ "\n") records);
    trace = List.rev !trace_rev;
    events = Sched.executed sched;
    end_ns = Sched.now_ns sched;
    status_probes = List.rev !status_probes_rev;
  }
