(* The ffault benchmark entry point.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--quick]

   prints a short human summary, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   (trace 0) or the per-layer ladder (trace 1). Any wrong output — a
   missing or duplicated journal id, a verdict that differs from the
   reference, a witness that no longer replays, a netsim violation or a
   changed netsim journal — exits 1 without a metric. Run metadata and,
   for traced runs, the spans go under _build/perfbench/. *)

open Perfbench
module Json = Util.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload (local-fig3|local-crash|dist-fig3|netsim-sweep) --seed N \
     --seconds S --trace 0|1 [--quick]";
  exit 2

type args = { workload : Workloads.name; seed : int64; seconds : float; trace : bool; quick : bool }

let parse argv =
  let rec go acc = function
    | "--workload" :: w :: rest -> (
        match List.assoc_opt w Workloads.names with
        | Some x -> go { acc with workload = x } rest
        | None -> usage ())
    | "--seed" :: s :: rest -> (
        match Int64.of_string_opt s with Some x -> go { acc with seed = x } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0. -> go { acc with seconds = x } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | "--quick" :: rest -> go { acc with quick = true } rest
    | [] -> acc
    | _ -> usage ()
  in
  go { workload = Workloads.Local_fig3; seed = 1L; seconds = 10.; trace = false; quick = false } argv

let metrics_json ms =
  Json.Obj
    (List.map
       (fun { Ladder.name; value; unit_ } ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit_) ]))
       ms)

let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json ms);
       ])

let end_to_end (p : Workloads.phase) ~setup_s =
  let m = Ladder.m in
  [
    m "trials_per_s" "trials/s" (Util.median p.Workloads.rates);
    m "campaign_s_p50" "s" (Util.median p.Workloads.campaign_s);
    m "schedules_per_s" "campaigns/s" (Util.median p.Workloads.campaigns_per_s);
    m "setup_s" "s" setup_s;
    m "heap_top_mb" "MiB" (Workloads.heap_top_mb ());
  ]

let metadata (a : args) (ctx : Workloads.ctx) (p : Workloads.phase) =
  let per_campaign =
    match a.workload with
    | Workloads.Netsim_sweep -> (Workloads.netsim_config ()).Ffault_netsim.Sim.trials
    | _ -> Ffault_campaign.Grid.total_trials ctx.Workloads.specs.(0)
  in
  let n = List.length p.Workloads.campaign_s in
  [
    ("workload", Json.Str (Workloads.to_string a.workload));
    ("seed", Json.Str (Int64.to_string a.seed));
    ("seconds", Json.Float a.seconds);
    ("trace", Json.Bool a.trace);
    ("quick", Json.Bool a.quick);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("domains_or_workers", Json.Int ctx.Workloads.domains);
    ("ocaml", Json.Str Sys.ocaml_version);
    ("git_rev", Json.Str (Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown"));
    ("trials_per_campaign", Json.Int per_campaign);
    ("campaigns", Json.Int n);
  ]
  (* the highest percentile with at least ten samples beyond it *)
  @ (if n <= 10 then []
     else
       let q = 1. -. (10. /. float_of_int n) in
       [ ("campaign_s_tail_quantile", Json.Float q);
         ("campaign_s_tail", Json.Float (Util.quantile q p.Workloads.campaign_s)) ])

let samples (p : Workloads.phase) =
  let floats xs = Json.List (List.rev_map (fun x -> Json.Float x) xs) in
  [ ("campaign_s", floats p.Workloads.campaign_s); ("trials_per_s_samples", floats p.Workloads.rates) ]

let finish ~(a : args) ~ctx ~(p : Workloads.phase) ms =
  List.iter
    (fun { Ladder.name; value; _ } ->
      if not (Float.is_finite value) then Util.gate "metric %s is not a number" name)
    ms;
  let meta = metadata a ctx p in
  let file =
    Filename.concat Util.out_dir
      (Fmt.str "result-%s-%Ld-trace%d.json" (Workloads.to_string a.workload) a.seed
         (if a.trace then 1 else 0))
  in
  Util.write_file file
    (Json.to_string (Json.Obj (meta @ samples p @ [ ("metrics", metrics_json ms) ])) ^ "\n");
  List.iter (fun (k, v) -> Fmt.pr "# %s: %s@." k (Json.to_string v)) meta;
  List.iter
    (fun { Ladder.name; value; unit_ } -> Fmt.pr "%-36s %14.6g %s@." name value unit_)
    ms;
  Fmt.pr "%s@." (result_line ~correct:true ~attempted:p.Workloads.attempted ~failed:0 ms)

exception Failed of Workloads.phase

let fail ~attempted ~failed problems =
  List.iter (fun m -> Fmt.epr "perfbench: %s@." m) problems;
  Fmt.pr "%s@." (result_line ~correct:false ~attempted ~failed []);
  exit 1

let main (a : args) =
  Util.mkdir_p Util.out_dir;
  let ctx, setup_s = Workloads.setup ~workload:a.workload ~seed:a.seed ~quick:a.quick in
  Fun.protect ~finally:(fun () -> Util.rm_rf ctx.Workloads.root) @@ fun () ->
  let p = Workloads.run_phase ctx ~trace:a.trace ~seconds:a.seconds in
  if p.Workloads.failed > 0 then raise (Failed p);
  if not a.trace then finish ~a ~ctx ~p (end_to_end p ~setup_s)
  else begin
    let overhead =
      (Util.median p.Workloads.traced_s /. Util.median p.Workloads.campaign_s) -. 1.
    in
    let ms = Ladder.run ctx ~traced:p ~overhead in
    Util.write_file
      (Filename.concat Util.out_dir
         (Fmt.str "trace-%s-%Ld.json" (Workloads.to_string a.workload) a.seed))
      (Json.to_string (Span.to_chrome (Span.all ())));
    finish ~a ~ctx ~p ms
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: flag :: sock :: name :: _ when flag = Dist_run.worker_flag ->
      Dist_run.worker_main ~sock ~name
  | _ :: rest -> (
      let a = parse rest in
      try main a with
      | Failed p ->
          fail ~attempted:p.Workloads.attempted ~failed:p.Workloads.failed p.Workloads.problems
      | Util.Gate m -> fail ~attempted:1 ~failed:1 [ m ])
  | [] -> usage ()
