(* The correctness gate, run outside the timed phase. A trial's outcome
   fields depend only on (spec, trial id), so an in-memory run of the
   same spec is the reference every journaled campaign must match. *)

module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Pool = Campaign.Pool
module Check = Ffault_verify.Consensus_check

(* Per trial id: the verdict and the counts that fix it. *)
type reference = {
  spec : Spec.t;
  pass : bool array;
  steps : int array;
  faults : int array;
  crash_faults : int array;
}

let reference ~domains spec =
  let total = Grid.total_trials spec in
  let seen = Array.make total false in
  let r =
    {
      spec;
      pass = Array.make total false;
      steps = Array.make total 0;
      faults = Array.make total 0;
      crash_faults = Array.make total 0;
    }
  in
  let on_record (x : Journal.record) =
    let i = x.Journal.trial in
    (match x.Journal.outcome with
    | Journal.Pass | Journal.Violation -> ()
    | o -> Util.gate "reference trial %d: %s" i (Journal.outcome_to_string o));
    seen.(i) <- true;
    r.pass.(i) <- x.Journal.ok;
    r.steps.(i) <- x.Journal.steps;
    r.faults.(i) <- x.Journal.faults;
    r.crash_faults.(i) <- x.Journal.crash_faults
  in
  (* no shrinking: witnesses are not part of the reference *)
  ignore (Pool.run_trials ~domains ~max_shrinks_per_cell:0 ~on_record spec);
  Array.iteri (fun i s -> if not s then Util.gate "reference misses trial %d" i) seen;
  r

let same_reference a b =
  a.pass = b.pass && a.steps = b.steps && a.faults = b.faults
  && a.crash_faults = b.crash_faults

let total r = Array.length r.pass

(* Per-cell pass counts, in cell order; the rest of a cell's trials
   violate. *)
let cell_passes r =
  let trials = r.spec.Spec.trials in
  Array.init (Grid.n_cells r.spec) (fun c ->
      let p = ref 0 in
      for i = c * trials to ((c + 1) * trials) - 1 do
        if r.pass.(i) then incr p
      done;
      !p)

type verdict = {
  attempted : int;
  failed : int;  (** trials without a correct, exactly-once record *)
  problems : string list;  (** the first few, for the error message *)
  replayed : int;  (** witnesses replayed *)
}

let ok v = v.failed = 0

(* Check one campaign's journal in one streaming pass: every trial id
   exactly once, no Timeout/Quarantined record, every verdict and count
   equal to the reference, per-cell pass/violation counts equal. A torn
   or malformed line does not parse, so its trial counts as never
   journaled. With [replays > 0], witnesses of trials spread over the
   grid are replayed through [Shrink_on_fail.replay] and must still
   violate. *)
let check_journal ?(replays = 0) r ~path =
  let n = total r in
  let seen = Array.make n 0 in
  let failed = ref 0 and problems = ref [] in
  let problem fmt =
    Fmt.kstr
      (fun m ->
        incr failed;
        if List.length !problems < 5 then problems := m :: !problems)
      fmt
  in
  let protocol = lazy (match Spec.resolve_protocol r.spec.Spec.protocol with
    | Ok p -> p
    | Error m -> Util.gate "%s" m)
  in
  (* about half the trials of a crash grid violate, so this stride offers
     some [2 × replays] candidates *)
  let stride = max 1 (n / max 1 (2 * replays)) in
  let replayed = ref 0 in
  let replay (x : Journal.record) =
    match x.Journal.witness with
    | Some w when !replayed < replays && x.Journal.trial mod stride = 0 ->
        incr replayed;
        let rep =
          Campaign.Shrink_on_fail.replay (Grid.setup x.Journal.cell (Lazy.force protocol)) w
        in
        if Check.ok rep then problem "trial %d: witness no longer violates" x.Journal.trial
    | _ -> ()
  in
  let passes = Array.make (Grid.n_cells r.spec) 0 in
  Journal.fold ~path ~init:()
    ~f:(fun () (x : Journal.record) ->
      let i = x.Journal.trial in
      if i < 0 || i >= n then problem "trial id %d out of range" i
      else begin
        seen.(i) <- seen.(i) + 1;
        if seen.(i) = 2 then problem "trial %d journaled twice" i
        else if seen.(i) = 1 then
          match x.Journal.outcome with
          | Journal.Timeout | Journal.Quarantined ->
              problem "trial %d: %s" i (Journal.outcome_to_string x.Journal.outcome)
          | Journal.Pass | Journal.Violation ->
              let c = i / r.spec.Spec.trials in
              if x.Journal.ok then passes.(c) <- passes.(c) + 1 else replay x;
              if
                x.Journal.ok <> r.pass.(i)
                || x.Journal.steps <> r.steps.(i)
                || x.Journal.faults <> r.faults.(i)
                || x.Journal.crash_faults <> r.crash_faults.(i)
              then problem "trial %d differs from the reference" i
      end);
  Array.iteri (fun i k -> if k = 0 then problem "trial %d never journaled" i) seen;
  Array.iteri
    (fun c p ->
      if passes.(c) <> p then
        problems := Fmt.str "cell %d: %d passes, reference %d" c passes.(c) p :: !problems)
    (cell_passes r);
  if replays > 0 && !replayed = 0 then problem "no witness to replay";
  { attempted = n; failed = !failed; problems = List.rev !problems; replayed = !replayed }
