(* One real distributed campaign: [Coordinator.serve] on a thread of the
   benchmark process, and [workers] worker processes, each a re-exec of
   the running executable with [domains:1] and one connection. Separate
   processes give every worker its own core, so their trials overlap
   (worker systhreads of one domain would take turns). *)

module Dist = Ffault_dist
module Campaign = Ffault_campaign
module Json = Util.Json

let worker_flag = "--dist-worker"

type worker_report = {
  w_name : string;
  w_ok : bool;
  w_error : string;
  trials_run : int;
  reconnects : int;
  warns : int;
  leases : (int * int * int) list;  (** (lo, hi, start ns) per lease run *)
}

type campaign = {
  trials : int;
  start_ns : int;
  serve_ns : int;  (** [serve] returned: the journal is complete *)
  end_ns : int;  (** [serve] returned and every worker has exited *)
  summary : Dist.Coordinator.summary;
  workers : worker_report list;
  record_ns : int array;  (** traced runs: arrival time per trial id *)
}

(* The worker process's body: serve leases, then print one JSON line of
   lease start times and summary counts for the benchmark process. *)
let worker_main ~sock ~name =
  let lock = Mutex.create () in
  let leases = ref [] and warns = ref 0 in
  let on_event m =
    let t = Util.now_ns () in
    match Scanf.sscanf m "lease #%d [%d,%d)" (fun _ lo hi -> (lo, hi)) with
    | lo, hi -> Mutex.protect lock (fun () -> leases := (lo, hi, t) :: !leases)
    | exception _ -> ()
  in
  let on_warn _ = Mutex.protect lock (fun () -> incr warns) in
  let cfg = Dist.Worker.config ~name ~domains:1 (Dist.Transport.Unix_sock sock) in
  let res = Dist.Worker.run ~on_event ~on_warn cfg in
  let fields =
    match res with
    | Ok s ->
        [
          ("ok", Json.Bool true);
          ("trials_run", Json.Int s.Dist.Worker.trials_run);
          ("reconnects", Json.Int s.Dist.Worker.reconnects);
        ]
    | Error e -> [ ("ok", Json.Bool false); ("error", Json.Str e) ]
  in
  let leases =
    List.rev_map (fun (lo, hi, t) -> Json.List [ Json.Int lo; Json.Int hi; Json.Int t ]) !leases
  in
  print_endline
    (Json.to_string
       (Json.Obj (fields @ [ ("warns", Json.Int !warns); ("leases", Json.List leases) ])));
  exit (if Result.is_ok res then 0 else 1)

let parse_report name line =
  let int k j = Option.value ~default:0 (Option.bind (Json.member k j) Json.get_int) in
  match Json.of_string line with
  | Error e -> { w_name = name; w_ok = false; w_error = "bad report: " ^ e; trials_run = 0;
                 reconnects = 0; warns = 0; leases = [] }
  | Ok j ->
      let leases =
        Option.value ~default:[] (Option.bind (Json.member "leases" j) Json.get_list)
        |> List.filter_map (fun l ->
               match Json.get_list l with
               | Some [ lo; hi; t ] -> (
                   match (Json.get_int lo, Json.get_int hi, Json.get_int t) with
                   | Some lo, Some hi, Some t -> Some (lo, hi, t)
                   | _ -> None)
               | _ -> None)
      in
      {
        w_name = name;
        w_ok = Option.bind (Json.member "ok" j) Json.get_bool = Some true;
        w_error = Option.value ~default:"" (Option.bind (Json.member "error" j) Json.get_str);
        trials_run = int "trials_run" j;
        reconnects = int "reconnects" j;
        warns = int "warns" j;
        leases;
      }

let read_all fd =
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

(* Coordinator settings are the CLI defaults (1000-trial leases, 30 s
   lease timeout, 2 s heartbeat), so the idle worker's [Wait] nap shows
   up in the campaign time exactly as a user sees it. *)
let run ?(traced = false) ~workers ~root spec =
  let sock = Filename.concat root "coord.sock" in
  let cfg = Dist.Coordinator.config (Dist.Transport.Unix_sock sock) in
  let total = Campaign.Grid.total_trials spec in
  let record_ns = if traced then Array.make total 0 else [||] in
  let observe =
    if traced then Some (fun (r : Campaign.Journal.record) ->
        record_ns.(r.Campaign.Journal.trial) <- Util.now_ns ())
    else None
  in
  let start_ns = Util.now_ns () in
  let served = ref (Error "serve never ran") and serve_ns = ref 0 in
  let coordinator =
    Thread.create
      (fun () ->
        served :=
          (try Dist.Coordinator.serve ?observe ~root cfg spec
           with e -> Error (Printexc.to_string e));
        serve_ns := Util.now_ns ())
      ()
  in
  let rec await n =
    if not (Sys.file_exists sock) then
      if n = 0 || !serve_ns > 0 then false
      else begin
        Thread.delay 0.001;
        await (n - 1)
      end
    else true
  in
  let children = ref [] in
  let reap () =
    List.map
      (fun (name, pid, fd) ->
        let out = read_all fd in
        let _, status = Unix.waitpid [] pid in
        let r = parse_report name (String.trim out) in
        match status with
        | Unix.WEXITED 0 -> r
        | _ -> { r with w_ok = false; w_error = "worker exited abnormally: " ^ r.w_error })
      (List.rev !children)
  in
  let reports =
    Fun.protect
      ~finally:(fun () ->
        (* [children] is emptied once reaped, so this only kills on an
           exception *)
        List.iter
          (fun (_, pid, fd) ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            try Unix.close fd with Unix.Unix_error _ -> ())
          !children)
      (fun () ->
        if await 10_000 then
          for i = 0 to workers - 1 do
            let r, w = Unix.pipe ~cloexec:true () in
            let name = Fmt.str "w%d" i in
            let exe = Sys.executable_name in
            let pid =
              Unix.create_process exe [| exe; worker_flag; sock; name |] Unix.stdin w
                Unix.stderr
            in
            Unix.close w;
            children := (name, pid, r) :: !children
          done;
        Thread.join coordinator;
        let reports = reap () in
        children := [];
        reports)
  in
  let end_ns = Util.now_ns () in
  match !served with
  | Error m -> Util.gate "dist serve: %s" m
  | Ok summary ->
      { trials = total; start_ns; serve_ns = !serve_ns; end_ns; summary; workers = reports;
        record_ns }
