(* Self-tests of the benchmark, on quick sizes: the exact per-layer counts
   repeat for a seed, and planted faults trip the correctness gate. *)

open Perfbench
module Journal = Ffault_campaign.Journal
module Pool = Ffault_campaign.Pool

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Fmt.epr "FAIL: %s@." what
  end
  else Fmt.pr "ok: %s@." what

let value name ms = (List.find (fun m -> m.Ladder.name = name) ms).Ladder.value

(* The counts that name units of work, from one pass over every layer. *)
let counts (ctx : Workloads.ctx) =
  let spec = ctx.Workloads.specs.(0) and reference = ctx.Workloads.refs.(0) in
  let engine = Ladder.engine_and_shrink ~reference spec ~n:100 in
  let pool = Ladder.pool_journal_wire ~domains:ctx.Workloads.domains ~root:ctx.Workloads.root spec in
  let netsim = Ladder.probe_netsim ~seed:ctx.Workloads.seed ~schedules:2 in
  let dir = Filename.concat ctx.Workloads.root "dist" in
  Util.mkdir_p dir;
  let dist = Ladder.dist_metrics [ Dist_run.run ~traced:true ~workers:2 ~root:dir spec ] in
  Util.rm_rf dir;
  let ms = engine @ pool @ netsim @ dist in
  List.map
    (fun n -> (n, value n ms))
    [
      "engine.steps_per_trial";
      "journal.bytes_per_record";
      "wire.bytes_per_result_frame";
      "netsim.events_per_schedule";
      "netsim.journal_bytes_per_schedule";
      "dist.leases_granted";
      "dist.leases_expired";
    ]

let rewrite path f =
  let lines = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n' in
  let lines = f (List.filter (fun l -> l <> "") lines) in
  Util.write_file path (String.concat "\n" lines ^ "\n")

let record l = match Journal.of_line l with Ok r -> r | Error e -> failwith e

let planted (ctx : Workloads.ctx) =
  let spec = ctx.Workloads.specs.(0) and r = ctx.Workloads.refs.(0) in
  let root = Filename.concat ctx.Workloads.root "planted" in
  (match Pool.run_dir ~domains:ctx.Workloads.domains ~root spec with
  | Ok _ -> ()
  | Error e -> failwith e);
  let path = Workloads.journal_path ~root spec in
  let clean = In_channel.with_open_bin path In_channel.input_all in
  let gate () = Gate.check_journal ~replays:8 r ~path in
  let v = gate () in
  expect "a clean campaign passes the gate, its witnesses replaying to violations"
    (Gate.ok v && v.Gate.replayed > 0);
  rewrite path (fun ls -> ls @ [ List.hd ls ]);
  expect "a duplicated record fails the gate" ((gate ()).Gate.failed = 1);
  Util.write_file path clean;
  rewrite path (fun ls ->
      let flipped = ref false in
      List.map
        (fun l ->
          let x = record l in
          if !flipped || x.Journal.ok then l
          else begin
            flipped := true;
            Journal.to_line { x with Journal.ok = true; outcome = Journal.Pass; violations = [] }
          end)
        ls);
  expect "an altered failure count fails the gate" ((gate ()).Gate.failed = 1);
  Util.write_file path clean;
  rewrite path List.tl;
  expect "a missing record fails the gate" ((gate ()).Gate.failed = 1);
  Util.write_file path clean;
  rewrite path (fun ls ->
      List.map
        (fun l ->
          let x = record l in
          if x.Journal.witness = None then l else Journal.to_line { x with Journal.witness = Some [||] })
        ls);
  expect "a witness that no longer violates fails the gate" ((gate ()).Gate.failed > 0);
  Util.rm_rf root

let () =
  match Sys.argv with
  | [| _; flag; sock; name |] when flag = Dist_run.worker_flag -> Dist_run.worker_main ~sock ~name
  | _ ->
      Util.mkdir_p Util.out_dir;
      let ctx, _ = Workloads.setup ~workload:Workloads.Local_crash ~seed:7L ~quick:true in
      Fun.protect ~finally:(fun () -> Util.rm_rf ctx.Workloads.root) (fun () ->
          let a = counts ctx and b = counts ctx in
          List.iter2 (fun (n, x) (_, y) -> expect (Fmt.str "%s repeats (%g)" n x) (x = y)) a b;
          expect "leases were granted and none expired"
            (List.assoc "dist.leases_granted" a > 0. && List.assoc "dist.leases_expired" a = 0.);
          planted ctx);
      if !failures > 0 then exit 1
