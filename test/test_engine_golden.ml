(* Pins the engine's observable behaviour with digests. Each trial of a
   fixed workload contributes its decision vector, rendered trace,
   per-process outcomes, final object states, per-process step counts,
   budget totals and (for violations) its shrunk witness and that
   witness's replay; the digests below were computed on the engine
   before its step loop was made allocation-lean, so any change to what
   the engine does — not just to how fast it does it — fails here.

   Workloads: 2,000 fig3 trials (the Fig. 3 / Thm 6 construction inside
   its envelope), every cell of the 64-cell E15 crash grid over
   naive-tas plus a rec-tas crash grid (crash menus, Linearize, lossy
   persistence), and two bounded Dfs explorations hashed execution by
   execution. *)

module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Sof = Campaign.Shrink_on_fail
module Check = Ffault_verify.Consensus_check
module Dfs = Ffault_verify.Dfs
module Consensus = Ffault_consensus
module Protocol = Consensus.Protocol
module Engine = Ffault_sim.Engine
module Trace = Ffault_sim.Trace
module Budget = Ffault_fault.Budget
module Fault_kind = Ffault_fault.Fault_kind
module Crash_plan = Ffault_recover.Crash_plan
module Persistence = Ffault_recover.Persistence
open Ffault_objects

(* One digest per hashed item, folded into a running digest so the
   rendered traces never accumulate in memory. *)
type acc = { mutable digest : Digest.t; buf : Buffer.t }

let acc () = { digest = Digest.string ""; buf = Buffer.create 4096 }

let flush a =
  a.digest <- Digest.string (a.digest ^ Digest.string (Buffer.contents a.buf));
  Buffer.clear a.buf

let add a fmt = Fmt.kstr (Buffer.add_string a.buf) fmt

let add_decisions a d =
  add a "d[";
  Array.iter (fun i -> add a "%d," i) d;
  add a "]"

let add_report a ~world (report : Check.report) =
  let r = report.Check.result in
  add a "%s|" report.Check.setup_name;
  add a "%a|" (Trace.pp ~world) r.Engine.trace;
  Array.iter (fun o -> add a "%a;" Engine.pp_proc_outcome o) r.Engine.outcomes;
  Array.iter (fun v -> add a "%a;" Value.pp v) r.Engine.final_states;
  Array.iter (fun s -> add a "%d;" s) r.Engine.steps_taken;
  add a "total=%d limit=%b int=%b|" r.Engine.total_steps r.Engine.total_limit_hit
    r.Engine.interrupted;
  add a "faults=%d crashes=%d objs=%a|%a|"
    (Budget.total_faults r.Engine.budget)
    (Budget.total_crashes r.Engine.budget)
    Fmt.(list ~sep:comma int)
    (List.map Obj_id.to_int (Budget.faulty_objects r.Engine.budget))
    Budget.pp r.Engine.budget;
  List.iter (fun v -> add a "%a;" Check.pp_violation v) report.Check.violations

(* Exactly the campaign executor's per-trial call (Pool.run_trials). *)
let crash_plan_of spec (trial : Grid.trial) =
  let cell = trial.Grid.cell in
  if cell.Grid.crashes > 0 && cell.Grid.crash_rate > 0.0 then
    Some
      (Crash_plan.make ~seed:(Grid.crash_plan_seed spec trial.Grid.seed)
         ~rate:cell.Grid.crash_rate)
  else None

let grid_digest ~shrink spec =
  let a = acc () in
  let protocol = Result.get_ok (Spec.resolve_protocol spec.Spec.protocol) in
  let cells = Grid.cells spec in
  let setups = Array.map (fun c -> Grid.setup c protocol) cells in
  for id = 0 to Grid.total_trials spec - 1 do
    let trial = Grid.trial_of_cells spec cells id in
    let setup = setups.(trial.Grid.cell_id) in
    let world = Check.world setup in
    let res =
      Sof.run_trial ~shrink ?crash_plan:(crash_plan_of spec trial) setup
        ~rate:trial.Grid.cell.Grid.rate ~seed:trial.Grid.seed
    in
    add a "#%d " id;
    add_decisions a res.Sof.decisions;
    add_report a ~world res.Sof.report;
    (match res.Sof.witness with
    | None -> add a "no-witness"
    | Some w ->
        add_decisions a w;
        add_report a ~world (Sof.replay setup w));
    flush a
  done;
  Digest.to_hex a.digest

let dfs_digest ?(max_executions = 5_000) setup =
  let a = acc () in
  let world = Check.world setup in
  let stats =
    Dfs.explore ~max_executions ~max_witnesses:4
      ~on_report:(fun d report ->
        add_decisions a d;
        add_report a ~world report;
        flush a)
      setup
  in
  add a "exec=%d cp=%d trunc=%b" stats.Dfs.executions stats.Dfs.max_choice_points
    stats.Dfs.truncated;
  List.iter (fun w -> add_decisions a w.Dfs.decisions) stats.Dfs.witnesses;
  flush a;
  (stats.Dfs.executions, Digest.to_hex a.digest)

let fig3_spec =
  Spec.v ~name:"golden-fig3" ~protocol:"fig3" ~f:[ 2 ] ~t:[ Some 1 ] ~n:[ 3 ]
    ~kinds:[ Fault_kind.Overriding ] ~rates:[ 0.3 ] ~trials:2_000 ~seed:41L ()

let e15_spec =
  Spec.v ~name:"golden-e15" ~protocol:"naive-tas" ~f:[ 1 ] ~n:[ 2; 3 ]
    ~kinds:[ Fault_kind.Overriding; Fault_kind.Silent ] ~rates:[ 0.0; 0.3 ] ~crashes:[ 1; 2 ]
    ~crash_rates:[ 0.2; 0.5 ] ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
    ~trials:6 ~seed:43L ()

let rec_tas_spec =
  Spec.v ~name:"golden-rec-tas" ~protocol:"rec-tas" ~f:[ 1 ] ~n:[ 2; 3 ]
    ~kinds:[ Fault_kind.Overriding ] ~rates:[ 0.0; 0.3 ] ~crashes:[ 1; 2 ]
    ~crash_rates:[ 0.3; 0.7 ] ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
    ~trials:20 ~seed:47L ()

let test_fig3 () =
  Alcotest.(check string)
    "fig3 digest" "b96530aa8098b6c115b775e9ac511477"
    (grid_digest ~shrink:false fig3_spec)

let test_e15 () =
  Alcotest.(check int) "64 cells" 64 (Grid.n_cells e15_spec);
  Alcotest.(check string)
    "E15 digest" "218bd876606a6a23f53b23eac6ba9dfd"
    (grid_digest ~shrink:true e15_spec)

let test_rec_tas () =
  Alcotest.(check string)
    "rec-tas digest" "4559bfe8ebc1f19e7953eaa8af0bd202"
    (grid_digest ~shrink:true rec_tas_spec)

let test_dfs () =
  let faulty =
    Check.setup Consensus.F_tolerant.protocol (Protocol.params ~n_procs:3 ~f:1 ())
  in
  let execs, d = dfs_digest faulty in
  Alcotest.(check (pair int string))
    "dfs f-tolerant" (360, "ebe559a35e10491859516560cc0b42a2") (execs, d);
  let crashy =
    Check.setup
      ~recover:{ Check.crashes_per_proc = 1; persistence = Persistence.Persist_lossy }
      Consensus.Recoverable.rec_tas (Protocol.params ~n_procs:2 ~f:0 ())
  in
  let execs, d = dfs_digest crashy in
  Alcotest.(check (pair int string))
    "dfs rec-tas crashes" (680, "0a598012adf20de23dfc1e4fdc0e6e92") (execs, d)

(* Allocation guard: a fig3 trial (engine + checker + recording driver)
   on the calling domain must stay under a fixed minor-words budget, so a
   change that brings back per-step allocation fails here rather than
   only in a benchmark run. [Gc.minor_words] counts this domain's
   allocation exactly when no other domain runs. *)
let minor_words_budget = 8_000.

let words_per_fig3_trial () =
  let trials = 1_000 in
  let protocol = Result.get_ok (Spec.resolve_protocol fig3_spec.Spec.protocol) in
  let cells = Grid.cells fig3_spec in
  let setups = Array.map (fun c -> Grid.setup c protocol) cells in
  let run id =
    let trial = Grid.trial_of_cells fig3_spec cells id in
    ignore
      (Sof.run_recorded setups.(trial.Grid.cell_id) ~rate:trial.Grid.cell.Grid.rate
         ~seed:trial.Grid.seed)
  in
  run 0;
  let w0 = Gc.minor_words () in
  for id = 0 to trials - 1 do
    run id
  done;
  (Gc.minor_words () -. w0) /. float_of_int trials

let test_alloc_budget () =
  let words = words_per_fig3_trial () in
  if words > minor_words_budget then
    Alcotest.failf "fig3 trial allocates %.0f minor words, budget %.0f" words minor_words_budget

let suites =
  [
    ( "engine-golden",
      [
        Alcotest.test_case "fig3 2000 trials" `Quick test_fig3;
        Alcotest.test_case "E15 crash grid" `Quick test_e15;
        Alcotest.test_case "rec-tas crash grid" `Quick test_rec_tas;
        Alcotest.test_case "dfs explorations" `Quick test_dfs;
      ] );
    ("engine-alloc", [ Alcotest.test_case "fig3 minor words per trial" `Quick test_alloc_budget ]);
  ]
