(* The per-layer ladder of a traced run: each layer driven through its
   public entry point on the workload's own spec, timed by the benchmark.
   The dist and netsim rows come from the traced phase when the workload
   runs them, and from one probe campaign (or a few schedules) when it
   does not, so every traced run reports every layer. *)

module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Pool = Campaign.Pool
module Sof = Campaign.Shrink_on_fail
module Check = Ffault_verify.Consensus_check
module Dist = Ffault_dist
module Netsim = Ffault_netsim

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let per a b = if b = 0 then 0. else a /. float_of_int b

let protocol_of spec =
  match Spec.resolve_protocol spec.Spec.protocol with
  | Ok p -> p
  | Error e -> Util.gate "%s" e

(* The crash plan a pool trial runs under (as [Pool.run_trials] builds it). *)
let crash_plan spec (trial : Grid.trial) =
  let cell = trial.Grid.cell in
  if cell.Grid.crashes > 0 && cell.Grid.crash_rate > 0.0 then
    Some
      (Ffault_recover.Crash_plan.make
         ~seed:(Grid.crash_plan_seed spec trial.Grid.seed)
         ~rate:cell.Grid.crash_rate)
  else None

(* sim + verify.Consensus_check: [n] trials spread over the grid, one at a
   time on the calling domain; then verify.Shrink on their violations. *)
let engine_and_shrink ?reference spec ~n =
  let protocol = protocol_of spec in
  let cells = Grid.cells spec in
  let setups = Array.map (fun c -> Grid.setup c protocol) cells in
  let total = Grid.total_trials spec in
  let n = min n total in
  let stride = total / n in
  let times = ref [] and steps = ref 0 and violators = ref [] in
  let words0 = Gc.minor_words () in
  Span.with_ "engine.probe" (fun _ ->
      for k = 0 to n - 1 do
        let trial = Grid.trial_of_cells spec cells (k * stride) in
        let setup = setups.(trial.Grid.cell_id) in
        let t0 = Util.now_ns () in
        let report, decisions =
          Sof.run_recorded ?crash_plan:(crash_plan spec trial) setup
            ~rate:trial.Grid.cell.Grid.rate ~seed:trial.Grid.seed
        in
        times := Util.secs (Util.now_ns () - t0) *. 1e6 :: !times;
        let s = report.Check.result.Ffault_sim.Engine.total_steps in
        steps := !steps + s;
        Option.iter
          (fun (r : Gate.reference) ->
            if s <> r.Gate.steps.(trial.Grid.id) || Check.ok report <> r.Gate.pass.(trial.Grid.id)
            then Util.gate "engine probe: trial %d differs from the reference" trial.Grid.id)
          reference;
        if not (Check.ok report) then violators := (setup, decisions) :: !violators
      done);
  let words = Gc.minor_words () -. words0 in
  let shrink_us = ref [] and len_raw = ref 0 and len_min = ref 0 in
  Span.with_ "shrink.probe" (fun _ ->
      List.iteri
        (fun i (setup, decisions) ->
          if i < 32 then begin
            let t0 = Util.now_ns () in
            match Sof.minimize setup decisions with
            | Some (w, _) ->
                shrink_us := Util.secs (Util.now_ns () - t0) *. 1e6 :: !shrink_us;
                len_raw := !len_raw + Array.length decisions;
                len_min := !len_min + Array.length w
            | None -> Util.gate "shrink probe: a recorded violation did not replay"
          end)
        (List.rev !violators));
  [
    m "engine.trial_us_p50" "us" (Util.median !times);
    m "engine.trial_us_p99" "us" (Util.quantile 0.99 !times);
    m "engine.steps_per_trial" "steps" (per (float_of_int !steps) n);
    m "engine.minor_words_per_trial" "words" (per words n);
    m "shrink.us_per_witness" "us" (if !shrink_us = [] then 0. else Util.mean !shrink_us);
    m "shrink.witness_len_ratio" "ratio" (per (float_of_int !len_min) !len_raw);
  ]

(* campaign.Pool + runtime.Runner in memory at 1 and [domains] domains,
   and the same spec journaled through [Pool.run_dir]; then
   campaign.Journal and dist.Wire/Codec on the records it produced. *)
let pool_journal_wire ~domains ~root spec =
  let total = Grid.total_trials spec in
  let in_memory d =
    let records = ref [] in
    let mc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let t0 = Util.now_ns () in
    let s =
      Span.with_ (Fmt.str "pool.run_trials/%d" d) (fun _ ->
          Pool.run_trials ~domains:d ~on_record:(fun r -> records := r :: !records) spec)
    in
    let wall = Util.since_s t0 in
    (wall, s, !records, (Gc.quick_stat ()).Gc.minor_collections - mc0)
  in
  let journaled i =
    let dir = Filename.concat root (Fmt.str "ladder-%d" i) in
    let t0 = Util.now_ns () in
    (match Span.with_ "pool.run_dir" (fun _ -> Pool.run_dir ~domains ~root:dir spec) with
    | Ok _ -> ()
    | Error e -> Util.gate "ladder run_dir: %s" e);
    let wall = Util.since_s t0 in
    Util.rm_rf dir;
    wall
  in
  (* interleaved, so drift in the machine's speed hits all three alike *)
  let reps = List.init 3 (fun i -> (in_memory 1, in_memory domains, journaled i)) in
  let one = List.map (fun (a, _, _) -> a) reps and many = List.map (fun (_, b, _) -> b) reps in
  let dir = List.map (fun (_, _, c) -> c) reps in
  let wall_of (w, _, _, _) = w in
  let w1 = Util.median (List.map wall_of one) and wn = Util.median (List.map wall_of many) in
  let wdir = Util.median dir in
  let _, summary, _, minor_cols = List.hd many in
  let overhead (wall, _, records, _) =
    let self_us = List.fold_left (fun a r -> a + r.Journal.wall_us) 0 records in
    1. -. (float_of_int self_us /. (float_of_int domains *. wall *. 1e6))
  in
  (* The journal and wire rows use the 1-domain run's records: which
     failures win the shrink budget is fixed there, and with the timing
     field zeroed their sizes are exact counts that repeat per seed. *)
  let _, _, records, _ = List.hd one in
  let fixed = List.map (fun r -> { r with Journal.wall_us = 0 }) records in
  let rate1 = float_of_int total /. w1 and raten = float_of_int total /. wn in
  (* Journal: encode and append every record of one campaign. *)
  let n = List.length records in
  let encode_s =
    Util.median
      (List.init 3 (fun _ ->
           let t0 = Util.now_ns () in
           List.iter (fun r -> ignore (Sys.opaque_identity (Journal.to_line r))) records;
           Util.since_s t0))
  in
  let bytes = List.fold_left (fun a r -> a + String.length (Journal.to_line r) + 1) 0 fixed in
  let path = Filename.concat root "ladder.jsonl" in
  let w = Journal.create_writer ~path in
  let t0 = Util.now_ns () in
  List.iter (Journal.append w) records;
  let append_s = Util.since_s t0 in
  Journal.close_writer w;
  Sys.remove path;
  (* Wire: the frames a dist campaign of this spec sends — one Lease per
     1000 trials (the default lease size), one Result per trial. *)
  let leases =
    List.init ((total + 999) / 1000) (fun i ->
        Dist.Codec.Lease { lease = i; epoch = 1; lo = i * 1000; hi = min total ((i + 1) * 1000);
                           done_ids = [] })
  in
  let msgs = leases @ List.map (fun r -> Dist.Codec.Result r) records in
  let frames = List.length msgs in
  let t0 = Util.now_ns () in
  let wires = List.map (fun msg -> Dist.Wire.encode (Dist.Codec.to_frame msg)) msgs in
  let wire_enc_s = Util.since_s t0 in
  let dec = Dist.Wire.Decoder.create () in
  let t0 = Util.now_ns () in
  List.iter
    (fun s ->
      Dist.Wire.Decoder.feed dec s;
      match Dist.Wire.Decoder.next dec with
      | Ok (Some f) -> (
          match Dist.Codec.of_frame f with Ok _ -> () | Error e -> Util.gate "wire: %s" e)
      | Ok None -> Util.gate "wire: incomplete frame"
      | Error e -> Util.gate "wire: %s" e)
    wires;
  let wire_dec_s = Util.since_s t0 in
  let result_bytes =
    List.fold_left
      (fun a r -> a + String.length (Dist.Wire.encode (Dist.Codec.to_frame (Dist.Codec.Result r))))
      0 fixed
  in
  [
    m "gc.minor_collections_per_ktrial" "count/ktrial" (per (float_of_int minor_cols *. 1000.) total);
    m "shrink.witnesses" "count" (float_of_int summary.Pool.shrunk);
    m "pool.trials_per_s_1dom" "trials/s" rate1;
    m "pool.trials_per_s_ndom" "trials/s" raten;
    m "pool.scaling" "ratio" (raten /. (float_of_int domains *. rate1));
    m "pool.overhead_share" "ratio" (Util.median (List.map overhead many));
    m "journal.encode_us_per_record" "us" (per (encode_s *. 1e6) n);
    m "journal.append_us_per_record" "us" (per (append_s *. 1e6) n);
    m "journal.bytes_per_record" "bytes" (per (float_of_int bytes) n);
    m "journal.share" "ratio" (1. -. (wn /. wdir));
    m "wire.encode_us_per_frame" "us" (per (wire_enc_s *. 1e6) frames);
    m "wire.decode_us_per_frame" "us" (per (wire_dec_s *. 1e6) frames);
    m "wire.bytes_per_result_frame" "bytes" (per (float_of_int result_bytes) n);
  ]

(* dist.Coordinator/Core/Lease and dist.Worker from traced campaigns:
   record arrival times, [serve]'s return, worker exits and lease starts. *)
type dist_row = {
  startup_s : float;
  marginal_us : float;
  drain_s : float;
  concurrency : float;
  lease_s : float list;
  granted : int;
  expired : int;
  deduped : int;
  reconnects : int;
}

let dist_row (c : Dist_run.campaign) =
  let arrivals = Array.to_list c.Dist_run.record_ns |> List.filter (fun t -> t > 0) in
  let first = List.fold_left min max_int arrivals and last = List.fold_left max 0 arrivals in
  (* a lease ends with the last of its records reaching the journal *)
  let lease_s =
    List.concat_map
      (fun (w : Dist_run.worker_report) ->
        List.map
          (fun (lo, hi, start) ->
            let fin = ref start in
            for i = lo to hi - 1 do
              fin := max !fin c.Dist_run.record_ns.(i)
            done;
            Util.secs (!fin - start))
          w.Dist_run.leases)
      c.Dist_run.workers
  in
  let s = c.Dist_run.summary in
  {
    startup_s = Util.secs (first - c.Dist_run.start_ns);
    marginal_us = Util.secs (last - first) *. 1e6 /. float_of_int (max 1 (c.Dist_run.trials - 1));
    drain_s = Util.secs (c.Dist_run.end_ns - c.Dist_run.serve_ns);
    concurrency = Util.sum lease_s /. Util.secs (max 1 (last - first));
    lease_s;
    granted = s.Dist.Coordinator.leases_granted;
    expired = s.Dist.Coordinator.leases_expired;
    deduped = List.fold_left (fun a w -> a + w.Dist.Coordinator.w_deduped) 0 s.Dist.Coordinator.workers;
    reconnects = List.fold_left (fun a w -> a + w.Dist_run.reconnects) 0 c.Dist_run.workers;
  }

let dist_metrics (cs : Dist_run.campaign list) =
  let rows = List.map dist_row cs in
  let med f = Util.median (List.map f rows) in
  let avg f = Util.mean (List.map (fun r -> float_of_int (f r)) rows) in
  [
    m "dist.startup_s" "s" (med (fun r -> r.startup_s));
    m "dist.marginal_us_per_trial" "us" (med (fun r -> r.marginal_us));
    m "dist.drain_s" "s" (med (fun r -> r.drain_s));
    m "dist.concurrency" "workers" (med (fun r -> r.concurrency));
    m "dist.leases_granted" "count" (avg (fun r -> r.granted));
    m "dist.leases_expired" "count" (avg (fun r -> r.expired));
    m "dist.results_deduped" "count" (avg (fun r -> r.deduped));
    m "worker.lease_s_p50" "s" (Util.median (List.concat_map (fun r -> r.lease_s) rows));
    m "worker.reconnects" "count" (avg (fun r -> r.reconnects));
  ]

(* netsim, from each traced [Sim.run] result and its wall time. *)
let netsim_metrics (rs : Workloads.schedule list) =
  let n = List.length rs in
  let tot f = List.fold_left (fun a r -> a + f r) 0 rs in
  let events = tot (fun r -> r.Workloads.events) in
  let wall_s = Util.sum (List.map (fun r -> r.Workloads.wall_s) rs) in
  [
    m "netsim.events_per_schedule" "events" (per (float_of_int events) n);
    m "netsim.virtual_s_per_schedule" "s" (per (Util.secs (tot (fun r -> r.Workloads.virtual_ns))) n);
    m "netsim.journal_bytes_per_schedule" "bytes"
      (per (float_of_int (tot (fun r -> r.Workloads.journal_bytes))) n);
    m "netsim.us_per_event" "us" (per (wall_s *. 1e6) events);
  ]

let probe_netsim ~seed ~schedules =
  let p = Workloads.netsim_batch ~seed ~domains:1 ~schedules ~traced:true 2_000_000 Workloads.empty in
  if p.Workloads.failed > 0 then Util.gate "netsim probe: %s" (String.concat "; " p.Workloads.problems);
  netsim_metrics p.Workloads.netsim

(* Every per-layer metric for a traced run of [ctx]'s workload. *)
let run (ctx : Workloads.ctx) ~(traced : Workloads.phase) ~overhead =
  let spec = ctx.Workloads.specs.(0) in
  let reference = if ctx.Workloads.refs = [||] then None else Some ctx.Workloads.refs.(0) in
  let root = ctx.Workloads.root in
  let engine = engine_and_shrink ?reference spec ~n:(if ctx.Workloads.quick then 200 else 2000) in
  let pool = pool_journal_wire ~domains:ctx.Workloads.domains ~root spec in
  let dist =
    match traced.Workloads.dist with
    | [] ->
        let dir = Filename.concat root "ladder-dist" in
        Util.mkdir_p dir;
        let c = Dist_run.run ~traced:true ~workers:ctx.Workloads.domains ~root:dir spec in
        Option.iter
          (fun r ->
            let v = Gate.check_journal r ~path:(Workloads.journal_path ~root:dir spec) in
            if not (Gate.ok v) then Util.gate "ladder dist campaign: %s" (String.concat "; " v.Gate.problems))
          reference;
        Util.rm_rf dir;
        dist_metrics [ c ]
    | cs -> dist_metrics cs
  in
  let netsim =
    match traced.Workloads.netsim with
    | [] -> probe_netsim ~seed:ctx.Workloads.seed ~schedules:(if ctx.Workloads.quick then 2 else 10)
    | rs -> netsim_metrics rs
  in
  engine @ pool @ dist @ netsim @ [ m "trace.overhead_share" "ratio" overhead ]
