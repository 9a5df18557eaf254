(* The four workloads: what each sets up, the campaign loop it times, and
   the gate each campaign passes before the next one starts. Every loop
   is closed: one campaign at a time, the next starting once every
   process of the previous one has returned. *)

module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Pool = Campaign.Pool
module Checkpoint = Campaign.Checkpoint
module Netsim = Ffault_netsim
module Kind = Ffault_fault.Fault_kind
module Persistence = Ffault_recover.Persistence

type name = Local_fig3 | Local_crash | Dist_fig3 | Netsim_sweep

let names =
  [
    ("local-fig3", Local_fig3);
    ("local-crash", Local_crash);
    ("dist-fig3", Dist_fig3);
    ("netsim-sweep", Netsim_sweep);
  ]

let to_string w = fst (List.find (fun (_, x) -> x = w) names)

(* Sizes. [quick] divides the work for smoke checks; its results say so. *)
type sizes = {
  fig3_trials : int;  (** trials per fig3 campaign (one cell) *)
  crash_trials : int;  (** trials per cell of the 64-cell crash grid *)
  specs : int;  (** distinct campaign seeds a workload cycles through *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  netsim_batch : int;  (** schedules per [Search.explore] call, per domain *)
  netsim_refs : int;  (** fixed schedules whose journals must repeat *)
  replays : int;  (** local-crash witnesses replayed per campaign *)
}

let sizes ~quick =
  if quick then
    { fig3_trials = 500; crash_trials = 16; specs = 2; setups = 1; netsim_batch = 5;
      netsim_refs = 2; replays = 4 }
  else
    { fig3_trials = 8000; crash_trials = 250; specs = 4; setups = 3; netsim_batch = 25;
      netsim_refs = 32; replays = 16 }

(* The paper's Fig. 3 construction within its envelope (Thm 6): every
   trial passes, engine and checker dominate. *)
let fig3_spec ~name ~seed ~trials =
  Spec.v ~name ~protocol:"fig3" ~f:[ 2 ] ~t:[ Some 1 ] ~n:[ 3 ] ~kinds:[ Kind.Overriding ]
    ~rates:[ 0.3 ] ~trials ~seed ()

(* The E15 grid over the planted non-recoverable baseline: 64 cells, most
   trials violate, so records carry witnesses and shrinking runs. *)
let crash_spec ~name ~seed ~trials =
  Spec.v ~name ~protocol:"naive-tas" ~f:[ 1 ] ~n:[ 2; 3 ]
    ~kinds:[ Kind.Overriding; Kind.Silent ] ~rates:[ 0.0; 0.3 ] ~crashes:[ 1; 2 ]
    ~crash_rates:[ 0.2; 0.5 ] ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
    ~trials ~seed ()

let netsim_config () = Netsim.Sim.config ()

type ctx = {
  workload : name;
  seed : int64;
  quick : bool;
  sizes : sizes;
  domains : int;
  root : string;  (** this run's scratch directory *)
  specs : Spec.t array;  (** campaign specs, cycled *)
  refs : Gate.reference array;  (** reference outcomes, one per spec *)
  netsim_seeds : int64 list;
  netsim_journals : string list;  (** reference journals of [netsim_seeds] *)
}

let netsim_journal seed =
  let r = Netsim.Sim.run (netsim_config ()) ~seed in
  (match r.Netsim.Sim.violation with
  | None -> ()
  | Some v -> Util.gate "netsim seed %Ld: %s" seed (Netsim.Sim.violation_to_string v));
  r.Netsim.Sim.journal_bytes

(* Set-up: specs resolved ([Spec.v] validates them), the scratch root
   made, reference outcomes computed. netsim-sweep keeps fig3 specs for
   its ladder only. *)
let setup_once ~workload ~seed ~quick ~tag =
  let sizes = sizes ~quick in
  let domains = Util.nproc () in
  let root = Util.fresh_dir tag in
  let seeds = Util.derived_seeds seed sizes.specs in
  let specs =
    Array.of_list
      (List.mapi
         (fun i s ->
           let name = Fmt.str "c%d" i in
           match workload with
           | Local_crash -> crash_spec ~name ~seed:s ~trials:sizes.crash_trials
           | Local_fig3 | Dist_fig3 | Netsim_sweep -> fig3_spec ~name ~seed:s ~trials:sizes.fig3_trials)
         seeds)
  in
  let refs, netsim_seeds, netsim_journals =
    match workload with
    | Netsim_sweep ->
        let seeds = List.init sizes.netsim_refs (fun i -> Netsim.Search.schedule_seed ~root:seed i) in
        ([||], seeds, List.map netsim_journal seeds)
    | Local_fig3 | Local_crash | Dist_fig3 ->
        (Array.map (Gate.reference ~domains) specs, [], [])
  in
  { workload; seed; quick; sizes; domains; root; specs; refs; netsim_seeds; netsim_journals }

(* Several set-ups, timed; the first is kept, and every repeat must
   reproduce its reference outcomes exactly. *)
let setup ~workload ~seed ~quick =
  let n = (sizes ~quick).setups in
  let runs =
    List.init n (fun i ->
        let t0 = Util.now_ns () in
        let c = setup_once ~workload ~seed ~quick ~tag:(Fmt.str "%s-s%d" (to_string workload) i) in
        (c, Util.since_s t0))
  in
  let first = fst (List.hd runs) in
  List.iter
    (fun (c, _) ->
      if c != first then begin
        if
          not
            (Array.for_all2 Gate.same_reference c.refs first.refs
            && List.equal String.equal c.netsim_journals first.netsim_journals)
        then Util.gate "set-up is not deterministic: references differ between repeats";
        Util.rm_rf c.root
      end)
    runs;
  (first, Util.median (List.map snd runs))

(* What a traced netsim schedule did, kept instead of its full result. *)
type schedule = { events : int; virtual_ns : int; journal_bytes : int; wall_s : float }

(* What one timed phase measured. A netsim "campaign" is one schedule. *)
type phase = {
  rates : float list;
      (** per campaign (netsim: per batch): trials journaled ÷ time from
          its start until its journal is complete *)
  campaign_s : float list;  (** per campaign: start until every process returned *)
  campaigns_per_s : float list;
      (** per campaign: 1 / its [campaign_s]; netsim: per batch, schedules
          ÷ the batch's time *)
  traced_s : float list;  (** the same, for campaigns run with spans recorded *)
  attempted : int;
  failed : int;
  problems : string list;
  dist : Dist_run.campaign list;  (** traced dist campaigns *)
  netsim : schedule list;  (** traced netsim schedules *)
}

let empty =
  { rates = []; campaign_s = []; campaigns_per_s = []; traced_s = []; attempted = 0; failed = 0; problems = []; dist = []; netsim = [] }

(* One campaign's time, kept apart for traced campaigns. *)
let add_time ~traced t p =
  if traced then { p with traced_s = t :: p.traced_s }
  else { p with campaign_s = t :: p.campaign_s; campaigns_per_s = (1. /. t) :: p.campaigns_per_s }

let add_verdict p (v : Gate.verdict) =
  { p with attempted = p.attempted + v.Gate.attempted; failed = p.failed + v.Gate.failed;
    problems = p.problems @ v.Gate.problems }

let journal_path ~root spec =
  Checkpoint.journal_path ~dir:(Checkpoint.campaign_dir ~root spec)

(* The gate for one journaled campaign, untimed. *)
let gate_campaign ctx ~root i p =
  let r = ctx.refs.(i mod Array.length ctx.refs) in
  let replays = match ctx.workload with Local_crash -> ctx.sizes.replays | _ -> 0 in
  add_verdict p (Gate.check_journal ~replays r ~path:(journal_path ~root r.Gate.spec))

let local_campaign ctx ~traced i p =
  let spec = ctx.specs.(i mod Array.length ctx.specs) in
  let root = Filename.concat ctx.root (string_of_int i) in
  Span.with_ "campaign" @@ fun cid ->
  let t0 = Util.now_ns () in
  let res =
    Span.with_ ~parent:cid "pool.run_dir" (fun _ -> Pool.run_dir ~domains:ctx.domains ~root spec)
  in
  let wall = Util.since_s t0 in
  match res with
  | Error m -> Util.gate "campaign %d: %s" i m
  | Ok s ->
      let p =
        add_time ~traced wall
          { p with rates = (float_of_int s.Pool.executed /. wall) :: p.rates }
      in
      let p = Span.with_ ~parent:cid "gate" (fun _ -> gate_campaign ctx ~root i p) in
      Util.rm_rf root;
      p

let dist_campaign ctx ~traced i p =
  let spec = ctx.specs.(i mod Array.length ctx.specs) in
  let root = Filename.concat ctx.root (string_of_int i) in
  Util.mkdir_p root;
  let c = Dist_run.run ~traced ~workers:ctx.domains ~root spec in
  if traced then begin
    let cid = Span.add "campaign" ~start_ns:c.Dist_run.start_ns ~end_ns:c.Dist_run.end_ns in
    ignore (Span.add ~parent:cid "dist.serve" ~start_ns:c.Dist_run.start_ns ~end_ns:c.Dist_run.serve_ns);
    ignore (Span.add ~parent:cid "dist.drain" ~start_ns:c.Dist_run.serve_ns ~end_ns:c.Dist_run.end_ns)
  end;
  let worker_errors =
    List.filter_map
      (fun w -> if w.Dist_run.w_ok then None else Some (w.Dist_run.w_name ^ ": " ^ w.Dist_run.w_error))
      c.Dist_run.workers
  in
  let p =
    let wall = Util.secs (c.Dist_run.serve_ns - c.Dist_run.start_ns) in
    let executed = c.Dist_run.summary.Ffault_dist.Coordinator.pool.Pool.executed in
    add_time ~traced (Util.secs (c.Dist_run.end_ns - c.Dist_run.start_ns))
    { p with rates = (float_of_int executed /. wall) :: p.rates;
             failed = p.failed + List.length worker_errors;
             problems = p.problems @ worker_errors;
             dist = (if traced then c :: p.dist else p.dist) }
  in
  let p = gate_campaign ctx ~root i p in
  Util.rm_rf root;
  p

(* One batch: [domains] sweeps of [n] schedules each, one per domain,
   so the load fills every core as the other workloads do. A sweep goes
   through [Search.explore] (the CLI's path) or, traced, one [Sim.run]
   per schedule so each result's events and journal are visible. *)
let netsim_batch ~seed ~domains ~schedules:n ~traced i p =
  let config = netsim_config () in
  let lane d =
    let root = Netsim.Search.schedule_seed ~root:seed ((1_000_000 * (d + 1)) + i) in
    if traced then
      List.init n (fun j ->
          let t0 = Util.now_ns () in
          let r = Netsim.Sim.run config ~seed:(Netsim.Search.schedule_seed ~root j) in
          let t1 = Util.now_ns () in
          ignore (Span.add ~tid:d "netsim.schedule" ~start_ns:t0 ~end_ns:t1);
          ( { events = r.Netsim.Sim.events; virtual_ns = r.Netsim.Sim.end_ns;
              journal_bytes = String.length r.Netsim.Sim.journal_bytes; wall_s = Util.secs (t1 - t0) },
            Option.map Netsim.Sim.violation_to_string r.Netsim.Sim.violation ))
      |> fun rs ->
      let samples = List.map fst rs in
      (List.map (fun x -> x.wall_s) samples, samples, List.filter_map snd rs)
    else begin
      let last = ref (Util.now_ns ()) and walls = ref [] in
      let on_progress _ =
        let t = Util.now_ns () in
        walls := Util.secs (t - !last) :: !walls;
        last := t
      in
      let s = Netsim.Search.explore ~on_progress ~max_violations:n ~config ~root ~schedules:n () in
      ( !walls,
        [],
        (if s.Netsim.Search.explored = n then [] else [ "sweep stopped early" ])
        @ List.map
            (fun (v : Netsim.Search.report) ->
              Fmt.str "schedule %d: %s" v.Netsim.Search.s_index
                (Netsim.Sim.violation_to_string v.Netsim.Search.s_violation))
            s.Netsim.Search.violations )
    end
  in
  let t0 = Util.now_ns () in
  let lanes = Array.to_list (Ffault_runtime.Runner.run_parallel ~domains lane) in
  let wall = Util.since_s t0 in
  let walls = List.concat_map (fun (w, _, _) -> w) lanes in
  let samples = List.concat_map (fun (_, s, _) -> s) lanes in
  let problems = List.concat_map (fun (_, _, e) -> e) lanes in
  let total = n * domains in
  let p =
    if traced then { p with traced_s = walls @ p.traced_s; netsim = samples @ p.netsim }
    else
      { p with campaign_s = walls @ p.campaign_s;
               campaigns_per_s = (float_of_int total /. wall) :: p.campaigns_per_s }
  in
  { p with rates = (float_of_int (total * config.Netsim.Sim.trials) /. wall) :: p.rates;
           attempted = p.attempted + total; failed = p.failed + List.length problems;
           problems = p.problems @ problems }

(* The netsim gate after the timed phase: the fixed schedules' journals
   are byte-identical to set-up's, and each holds every trial once. *)
let netsim_repeat_gate ctx p =
  let trials = (netsim_config ()).Netsim.Sim.trials in
  List.fold_left2
    (fun p seed expected ->
      let bytes = netsim_journal seed in
      let ids =
        String.split_on_char '\n' bytes
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Journal.of_line l with
               | Ok r -> r.Journal.trial
               | Error e -> Util.gate "netsim journal line: %s" e)
        |> List.sort compare
      in
      let problems =
        (if String.equal bytes expected then [] else [ Fmt.str "seed %Ld: journal bytes changed" seed ])
        @ if ids = List.init trials Fun.id then [] else [ Fmt.str "seed %Ld: not exactly once" seed ]
      in
      { p with failed = p.failed + List.length problems; problems = p.problems @ problems })
    p ctx.netsim_seeds ctx.netsim_journals

(* Run campaigns, each followed by its gate, until [seconds] have passed
   (at least four campaigns). The metrics time the campaigns only. With
   [trace], every other campaign records spans, so traced and untraced
   campaigns see the same machine and [traced_s] against [campaign_s]
   gives the tracing overhead. *)
let run_phase ctx ~trace ~seconds =
  let step =
    match ctx.workload with
    | Local_fig3 | Local_crash -> local_campaign
    | Dist_fig3 -> dist_campaign
    | Netsim_sweep ->
        fun ctx -> netsim_batch ~seed:ctx.seed ~domains:ctx.domains ~schedules:ctx.sizes.netsim_batch
  in
  Gc.full_major ();
  let t0 = Util.now_ns () in
  let rec go i p =
    if Util.since_s t0 >= seconds && i >= 4 then p
    else begin
      (* alternate, and flip the phase every four campaigns so traced and
         untraced campaigns cover the same specs *)
      let traced = trace && (i + (i / 4)) mod 2 = 1 in
      Span.enabled := traced;
      let p = step ctx ~traced i p in
      (* collect the gate's garbage now, untimed, so every campaign starts
         from a collected heap, as a fresh CLI process would *)
      Gc.full_major ();
      go (i + 1) p
    end
  in
  let p = go 0 empty in
  Span.enabled := trace;
  match ctx.workload with Netsim_sweep -> netsim_repeat_gate ctx p | _ -> p

let heap_top_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
