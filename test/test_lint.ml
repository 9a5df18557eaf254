(* Tests for the static-analysis pass: every rule firing and not firing,
   policy scoping, suppression handling, baseline add/expire semantics,
   and both reporters. Fixtures are inline sources, parsed and typed
   in-process and pushed through [Driver.lint_structure]; the filename
   picks the policy scope. *)

module Lint = Ffault_lint
module Finding = Lint.Finding
module Driver = Lint.Driver
module Policy = Lint.Policy
module Baseline = Lint.Baseline
module Report = Lint.Report
module Json = Ffault_campaign.Json

let check = Alcotest.check

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The typing environment for inline sources: the installed stdlib,
   unix and fmt, plus the repo's ffault_prng as built next to the test
   binary (the tests run in _build/default/test). *)
let typing_env =
  lazy
    (ignore (Warnings.parse_options false "-a");
     Compmisc.init_path ();
     Load_path.add_dir (Config.standard_library ^ "/unix");
     Load_path.add_dir (Filename.concat (Filename.dirname Config.standard_library) "fmt");
     Load_path.add_dir "../lib/prng/.ffault_prng.objs/byte";
     Compmisc.initial_env ())

(* [type_structure], not [type_implementation]: a module-level
   [Hashtbl.create 8] has a weak type, which only the latter rejects. *)
let typecheck ~file src =
  let env = Lazy.force typing_env in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let structure, _, _, _, _ = Typemod.type_structure env (Parse.implementation lexbuf) in
  Typecore.reset_delayed_checks ();
  (structure, env)

let lint ~file src =
  Driver.lint_structure ~policy:Policy.default ~file (fst (typecheck ~file src))

let rules_of (o : Driver.outcome) =
  List.map (fun (f : Finding.t) -> f.Finding.rule) o.Driver.findings

let count_rule rule o = List.length (List.filter (( = ) rule) (rules_of o))

let tmp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "ffault-lint-test-%d-%d" (Unix.getpid ()) !n)
    in
    Ffault_campaign.Checkpoint.mkdir_p dir;
    dir

let write_file path content =
  Ffault_campaign.Checkpoint.mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc content)

(* ---- raw-atomic ---- *)

let test_raw_atomic_fires () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "let f a = Atomic.compare_and_set a 0 1\nlet g a = Stdlib.Atomic.set a 2\n"
  in
  check Alcotest.int "two findings" 2 (count_rule "raw-atomic" o);
  let f = List.hd o.Driver.findings in
  check Alcotest.int "line of first" 1 f.Finding.line;
  check Alcotest.string "severity" "error" (Finding.severity_to_string f.Finding.severity)

let test_raw_atomic_spared () =
  (* the substrate itself is allowlisted… *)
  let o = lint ~file:"lib/runtime/fixture.ml" "let f a = Atomic.compare_and_set a 0 1\n" in
  check Alcotest.int "runtime allowlisted" 0 (count_rule "raw-atomic" o);
  (* …and reads / allocation are not mutations *)
  let o = lint ~file:"lib/consensus/fixture.ml" "let f a = Atomic.get a\n" in
  check Alcotest.int "Atomic.get fine" 0 (count_rule "raw-atomic" o)

(* ---- nondeterminism ---- *)

let test_nondeterminism_fires () =
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "let f () = Random.int 5\n\
       let g () = Unix.gettimeofday ()\n\
       let h () = Hashtbl.create ~random:true 8\n"
  in
  check Alcotest.int "three findings" 3 (count_rule "nondeterminism" o)

let test_nondeterminism_spared () =
  (* out of the deterministic scope: campaign orchestration may read the clock *)
  let o = lint ~file:"lib/campaign/fixture.ml" "let g () = Unix.gettimeofday ()\n" in
  check Alcotest.int "campaign out of scope" 0 (count_rule "nondeterminism" o);
  (* the repo's seeded PRNG is the sanctioned source *)
  let o = lint ~file:"lib/sim/fixture.ml" "let f g = Ffault_prng.Splitmix.next_int g\n" in
  check Alcotest.int "Ffault_prng fine" 0 (count_rule "nondeterminism" o);
  (* the typer fills an omitted ?random with a ghost-located None: only
     a ~random the source spells out counts *)
  let o = lint ~file:"lib/sim/fixture.ml" "let k () = Hashtbl.create 8\n" in
  check Alcotest.int "plain Hashtbl.create fine" 0 (count_rule "nondeterminism" o)

(* ---- toplevel-mutable ---- *)

let test_toplevel_mutable_fires () =
  let o =
    lint ~file:"lib/verify/fixture.ml"
      "let cache = Hashtbl.create 8\n\
       let flag = ref false\n\
       let slots = Array.init 4 (fun i -> i)\n\
       module H = Hashtbl\n\
       let aliased = H.create 8\n"
  in
  check Alcotest.int "four findings" 4 (count_rule "toplevel-mutable" o);
  (* the maker is resolved, not read off the surface path *)
  let f = List.nth o.Driver.findings 3 in
  check Alcotest.(pair int int) "the aliased maker" (5, 14) (f.Finding.line, f.Finding.col);
  check Alcotest.bool "message names the resolved maker" true
    (contains ~sub:"module-level Hashtbl.create" f.Finding.message)

let test_toplevel_mutable_spared () =
  (* per-call allocation and delayed state are fine *)
  let o =
    lint ~file:"lib/verify/fixture.ml"
      "let mk () = Hashtbl.create 8\nlet delayed = lazy (ref 0)\n"
  in
  check Alcotest.int "functions and lazy fine" 0 (count_rule "toplevel-mutable" o);
  (* the rule covers the deterministic libraries only, not telemetry's
     process-wide registry *)
  let o = lint ~file:"lib/telemetry/fixture.ml" "let registry = Hashtbl.create 64\n" in
  check Alcotest.int "telemetry out of scope" 0 (count_rule "toplevel-mutable" o)

(* ---- io-in-lib ---- *)

let test_io_in_lib_fires () =
  let o =
    lint ~file:"lib/objects/fixture.ml"
      "let f () = print_endline \"hi\"\n\
       let g () = Printf.printf \"%d\" 3\n\
       let h () = exit 1\n\
       let i () = Fmt.pr \"x\"\n"
  in
  check Alcotest.int "four findings" 4 (count_rule "io-in-lib" o)

let test_io_in_lib_spared () =
  (* printing through a caller-supplied formatter is the sanctioned idiom *)
  let o = lint ~file:"lib/objects/fixture.ml" "let pp ppf x = Fmt.pf ppf \"%d\" x\n" in
  check Alcotest.int "ppf-based pp fine" 0 (count_rule "io-in-lib" o);
  (* telemetry is not carved out: the progress line writes through the
     caller's channel *)
  let o = lint ~file:"lib/telemetry/fixture.ml" "let f () = print_endline \"hi\"\n" in
  check Alcotest.int "telemetry not allowlisted" 1 (count_rule "io-in-lib" o)

let test_io_in_lib_sockets () =
  (* socket syscalls are transport work: flagged anywhere in lib... *)
  let src =
    "let f () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0\n\
     let g fd = Unix.accept fd\n\
     let h r = Unix.select r [] [] 0.1\n"
  in
  let o = lint ~file:"lib/campaign/fixture.ml" src in
  check Alcotest.int "three findings" 3 (count_rule "io-in-lib" o);
  (* ...except the dist driver layer, allowlisted by file *)
  let o = lint ~file:"lib/dist/http.ml" src in
  check Alcotest.int "http driver allowlisted" 0 (count_rule "io-in-lib" o);
  let o = lint ~file:"lib/dist/transport.ml" src in
  check Alcotest.int "transport driver allowlisted" 0 (count_rule "io-in-lib" o);
  (* the pure responder stays covered: a socket call in status.ml fails *)
  let o = lint ~file:"lib/dist/status.ml" src in
  check Alcotest.int "status must stay pure" 3 (count_rule "io-in-lib" o)

(* ---- catch-all ---- *)

let test_catch_all_fires () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f g = try g () with _ -> None\n\
       let h g = match g () with exception _ -> 0 | n -> n\n"
  in
  check Alcotest.int "try and match-exception" 2 (count_rule "catch-all" o)

let test_catch_all_spared () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f g = try g () with Not_found -> None\n\
       let h g = try g () with e -> raise e\n"
  in
  check Alcotest.int "specific and re-raising fine" 0 (count_rule "catch-all" o)

(* ---- effect-discipline ---- *)

let test_effect_discipline_fires () =
  (* try_with has no retc/exnc: a deciding or crashing body escapes the
     scheduler's bookkeeping *)
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "let f body = Effect.Deep.try_with body () { Effect.Deep.effc = (fun _ -> None) }\n"
  in
  check Alcotest.int "try_with flagged" 1 (count_rule "effect-discipline" o);
  (* a full handler whose exnc merely re-raises drops the crash half *)
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "open Effect.Deep\n\
       let f body st =\n\
       \  match_with body ()\n\
       \    { retc = (fun v -> st := Some v); exnc = raise; effc = (fun _ -> None) }\n"
  in
  check Alcotest.int "re-raising exnc flagged" 1 (count_rule "effect-discipline" o)

let test_effect_discipline_spared () =
  (* the full Step/Decide protocol: every exit lands in a status *)
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "open Effect.Deep\n\
       let f body st =\n\
       \  match_with body ()\n\
       \    {\n\
       \      retc = (fun v -> st := `Done v);\n\
       \      exnc = (fun e -> st := `Failed e);\n\
       \      effc = (fun _ -> None);\n\
       \    }\n"
  in
  check Alcotest.int "full handler fine" 0 (count_rule "effect-discipline" o);
  (* out of scope: effects outside the simulator are not its protocol *)
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f body = Effect.Deep.try_with body () { Effect.Deep.effc = (fun _ -> None) }\n"
  in
  check Alcotest.int "out of scope" 0 (count_rule "effect-discipline" o)

(* ---- obj-magic ---- *)

let test_obj_magic_fires () =
  let o = lint ~file:"lib/fault/fixture.ml" "let f x = Obj.magic x\n" in
  check Alcotest.int "one finding" 1 (count_rule "obj-magic" o)

let test_obj_magic_spared () =
  (* out of scope: tests may poke representations *)
  let o = lint ~file:"test/fixture.ml" "let f x = Obj.magic x\n" in
  check Alcotest.int "test tree out of scope" 0 (count_rule "obj-magic" o)

(* ---- mli-required ---- *)

let test_mli_required () =
  let root = tmp_root () in
  write_file (Filename.concat root "lib/foo/bare.ml") "let x = 1\n";
  write_file (Filename.concat root "lib/foo/covered.ml") "let y = 2\n";
  write_file (Filename.concat root "lib/foo/covered.mli") "val y : int\n";
  let r = Driver.run ~policy:Policy.default [ root ] in
  let missing =
    List.filter (fun (f : Finding.t) -> f.Finding.rule = "mli-required") r.Driver.findings
  in
  check Alcotest.int "exactly the bare module" 1 (List.length missing);
  check Alcotest.bool "names bare.ml" true
    (Filename.basename (List.hd missing).Finding.file = "bare.ml")

(* ---- suppressions ---- *)

let test_suppress_file_level () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"raw-atomic\", \"fixture: exercising the substrate\"]\n\
       let f a = Atomic.set a 1\n"
  in
  check Alcotest.int "no findings" 0 (List.length o.Driver.findings);
  check Alcotest.int "one suppressed" 1 (List.length o.Driver.suppressed);
  let _, s = List.hd o.Driver.suppressed in
  check Alcotest.string "justification kept" "fixture: exercising the substrate"
    s.Lint.Suppress.justification

let test_suppress_binding_scoped () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "let f a = Atomic.set a 1 [@@ffault.lint.allow \"raw-atomic\", \"first only\"]\n\
       let g a = Atomic.set a 2\n\
       let h a = (Atomic.set a 3 : unit) [@ffault.lint.allow \"raw-atomic\", \"third\"]\n"
  in
  check Alcotest.int "second still fires" 1 (count_rule "raw-atomic" o);
  (* the third's attribute sits on a type constraint, which the
     typedtree keeps as an [exp_extra] of the inner expression *)
  check Alcotest.int "first and third suppressed" 2 (List.length o.Driver.suppressed);
  let f = List.hd o.Driver.findings in
  check Alcotest.int "surviving one is line 2" 2 f.Finding.line

let test_suppress_missing_justification () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"raw-atomic\"]\nlet f a = Atomic.set a 1\n"
  in
  (* the malformed suppression is itself a finding, and suppresses nothing *)
  check Alcotest.int "suppression finding" 1 (count_rule "suppression" o);
  check Alcotest.int "raw-atomic still fires" 1 (count_rule "raw-atomic" o)

let test_suppress_unknown_rule () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"no-such-rule\", \"why\"]\nlet x = 1\n"
  in
  check Alcotest.int "suppression finding" 1 (count_rule "suppression" o)

let test_suppress_meta_rule_rejected () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"cmt-missing\", \"never\"]\nlet x = 1\n"
  in
  check Alcotest.int "meta rules not suppressible" 1 (count_rule "suppression" o)

let test_suppress_blank_justification () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"raw-atomic\", \"  \"]\nlet f a = Atomic.set a 1\n"
  in
  check Alcotest.int "blank justification rejected" 1 (count_rule "suppression" o)

(* ---- policy ---- *)

let test_policy_normalize () =
  check Alcotest.string "temp prefix stripped" "lib/sim/a.ml"
    (Policy.normalize "/tmp/scratch/lib/sim/a.ml");
  check Alcotest.string "dot-segments dropped" "lib/sim/a.ml"
    (Policy.normalize "./lib/sim/a.ml");
  check Alcotest.bool "component-wise prefix" true
    (Policy.has_prefix ~prefix:"lib/sim" "lib/sim/engine.ml");
  check Alcotest.bool "no substring matches" false
    (Policy.has_prefix ~prefix:"lib/sim" "lib/simulator.ml")

let test_policy_scoping () =
  let p = Policy.default in
  check Alcotest.bool "raw-atomic active in consensus" true
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/consensus/protocol.ml");
  check Alcotest.bool "raw-atomic allowlisted in runtime" false
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/runtime/faulty_cas.ml");
  check Alcotest.bool "nondeterminism inactive in campaign" false
    (Policy.applies p ~rule:"nondeterminism" ~file:"lib/campaign/pool.ml");
  check Alcotest.bool "pool.ml file-precise allow" false
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/campaign/pool.ml");
  check Alcotest.bool "campaign otherwise checked" true
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/campaign/journal.ml")

(* ---- rules filter ---- *)

(* A source file under [root] plus the fresh cmt a build would leave for
   it, in dune's layout under [root]/bld. *)
let write_typed ~root rel src =
  let path = Filename.concat root rel in
  write_file path src;
  let structure, env = typecheck ~file:path src in
  let unit = String.capitalize_ascii (Filename.remove_extension (Filename.basename rel)) in
  let cmt =
    List.fold_left Filename.concat root
      [ "bld"; Filename.dirname rel; ".t.objs"; "byte"; "t__" ^ unit ^ ".cmt" ]
  in
  Ffault_campaign.Checkpoint.mkdir_p (Filename.dirname cmt);
  Clflags.binary_annotations := true;
  Cmt_format.save_cmt cmt unit (Cmt_format.Implementation structure) (Some path) env None
    None

let test_rules_filter () =
  let root = tmp_root () in
  write_typed ~root "lib/fault/mixed.ml"
    "let f x = Obj.magic x\nlet g () = print_endline \"hi\"\n";
  write_file (Filename.concat root "lib/fault/mixed.mli") "val f : 'a -> 'b\nval g : unit -> unit\n";
  let r =
    Driver.run ~rules:[ "obj-magic" ] ~policy:Policy.default
      ~build_dir:(Filename.concat root "bld") [ root ]
  in
  check Alcotest.int "the file was linted" 1 r.Driver.typed_files;
  let rules = List.map (fun (f : Finding.t) -> f.Finding.rule) r.Driver.findings in
  check Alcotest.bool "only obj-magic" true (List.for_all (( = ) "obj-magic") rules);
  check Alcotest.int "one finding" 1 (List.length rules)

let test_collect_skips_build_dirs () =
  let root = tmp_root () in
  write_file (Filename.concat root "lib/a.ml") "let x = 1\n";
  write_file (Filename.concat root "_build/lib/b.ml") "let y = 2\n";
  let files = Driver.collect_files [ root ] in
  check Alcotest.int "only the real source" 1 (List.length files)

(* ---- baseline ---- *)

let finding ~rule ~file ~line =
  Finding.v ~rule ~severity:Finding.Error ~file ~line ~col:0 "fixture"

let test_baseline_roundtrip () =
  let root = tmp_root () in
  let path = Filename.concat root "baseline.json" in
  let b =
    Baseline.of_findings
      [ finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:3;
        finding ~rule:"catch-all" ~file:"lib/b.ml" ~line:7 ]
  in
  Baseline.save ~path b;
  match Baseline.load ~path with
  | Error m -> Alcotest.fail m
  | Ok b' ->
      check Alcotest.int "entries survive" 2 (List.length b');
      check Alcotest.bool "identical" true (b = b')

let test_baseline_add_expire () =
  let a = finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:3 in
  let b = finding ~rule:"catch-all" ~file:"lib/b.ml" ~line:7 in
  let stale =
    { Baseline.rule = "io-in-lib"; file = "lib/gone.ml"; line = 9; ctx = None; note = "" }
  in
  let base = Baseline.of_findings [ a ] @ [ stale ] in
  let split = Baseline.apply base [ a; b ] in
  check Alcotest.int "b is fresh" 1 (List.length split.Baseline.fresh);
  check Alcotest.bool "fresh is b" true (List.hd split.Baseline.fresh == b);
  check Alcotest.int "a grandfathered" 1 (List.length split.Baseline.baselined);
  check Alcotest.int "stale expired" 1 (List.length split.Baseline.expired);
  (* drift: the baselined file edited past the recorded line resurfaces *)
  let moved = finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:4 in
  let split = Baseline.apply base [ moved ] in
  check Alcotest.int "moved finding is fresh" 1 (List.length split.Baseline.fresh)

let test_baseline_missing_file () =
  match Baseline.load ~path:"/nonexistent/baseline.json" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* ---- fuzzy matching against real files ---- *)

let flagged_line = "let f a = Atomic.compare_and_set a 0 1\n"

let body =
  "let a = 1\nlet b = 2\n" ^ flagged_line ^ "let c = 3\nlet d = 4\n"

let test_baseline_fuzzy_survives_shift () =
  let root = tmp_root () in
  let file = Filename.concat root "shifty.ml" in
  write_file file body;
  let base = Baseline.of_findings [ finding ~rule:"raw-atomic" ~file ~line:3 ] in
  (match base with
  | [ e ] -> check Alcotest.bool "context recorded" true (e.Baseline.ctx <> None)
  | _ -> Alcotest.fail "one entry expected");
  (* a header lands above: the finding moves to line 6, context intact *)
  write_file file ("(* new *)\n(* header *)\n(* lines *)\n" ^ body);
  let split = Baseline.apply base [ finding ~rule:"raw-atomic" ~file ~line:6 ] in
  check Alcotest.int "moved finding stays grandfathered" 1
    (List.length split.Baseline.baselined);
  check Alcotest.int "nothing fresh" 0 (List.length split.Baseline.fresh);
  check Alcotest.int "nothing expired" 0 (List.length split.Baseline.expired)

let test_baseline_fuzzy_edit_resurfaces () =
  let root = tmp_root () in
  let file = Filename.concat root "edited.ml" in
  write_file file body;
  let base = Baseline.of_findings [ finding ~rule:"raw-atomic" ~file ~line:3 ] in
  (* the flagged region itself changes (same line count, same line
     number): the context hash no longer matches and the debt surfaces *)
  write_file file
    ("let a = 1\nlet b' = 99\n" ^ flagged_line ^ "let c = 3\nlet d = 4\n");
  let split = Baseline.apply base [ finding ~rule:"raw-atomic" ~file ~line:3 ] in
  check Alcotest.int "edited finding is fresh" 1 (List.length split.Baseline.fresh);
  check Alcotest.int "its entry expired" 1 (List.length split.Baseline.expired)

let test_baseline_fuzzy_line_tiebreak () =
  let root = tmp_root () in
  let file = Filename.concat root "twins.ml" in
  (* two identical flagged regions: colliding context hashes, the
     recorded line must pair each entry with its nearest finding *)
  let block = "let a = 1\nlet a = 1\n" ^ flagged_line ^ "let a = 1\nlet a = 1\n" in
  write_file file (block ^ block);
  let base =
    Baseline.of_findings
      [ finding ~rule:"raw-atomic" ~file ~line:3;
        finding ~rule:"raw-atomic" ~file ~line:8 ]
  in
  let split =
    Baseline.apply base
      [ finding ~rule:"raw-atomic" ~file ~line:3; finding ~rule:"raw-atomic" ~file ~line:8 ]
  in
  check Alcotest.int "both grandfathered" 2 (List.length split.Baseline.baselined);
  check Alcotest.int "one-to-one, none expired" 0 (List.length split.Baseline.expired)

let test_baseline_v1_compat () =
  let root = tmp_root () in
  let file = Filename.concat root "legacy.ml" in
  write_file file body;
  (* a v1 baseline file: no version, no ctx — must load and match
     exactly by line *)
  let path = Filename.concat root "baseline.json" in
  write_file path
    (Fmt.str
       "{\"entries\":[{\"rule\":\"raw-atomic\",\"file\":%S,\"line\":3,\"note\":\"old\"}]}\n"
       (Policy.normalize file));
  match Baseline.load ~path with
  | Error m -> Alcotest.fail m
  | Ok base ->
      (match base with
      | [ e ] -> check Alcotest.bool "v1 entry has no ctx" true (e.Baseline.ctx = None)
      | _ -> Alcotest.fail "one entry expected");
      let split = Baseline.apply base [ finding ~rule:"raw-atomic" ~file ~line:3 ] in
      check Alcotest.int "exact line matches" 1 (List.length split.Baseline.baselined);
      let split = Baseline.apply base [ finding ~rule:"raw-atomic" ~file ~line:4 ] in
      check Alcotest.int "moved finding is fresh under v1" 1
        (List.length split.Baseline.fresh)

(* ---- reporters ---- *)

let report_fixture () =
  let fresh = finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:3 in
  let based = finding ~rule:"catch-all" ~file:"lib/b.ml" ~line:7 in
  let result =
    { Driver.files = 2; typed_files = 0; findings = [ fresh; based ]; suppressed = [] }
  in
  Report.make ~baseline:(Baseline.of_findings [ based ]) result

let test_report_exit_codes () =
  let r = report_fixture () in
  check Alcotest.int "fresh finding fails" 1 (Report.exit_code r);
  let clean =
    Report.make
      { Driver.files = 1; typed_files = 0; findings = []; suppressed = [] }
  in
  check Alcotest.int "clean passes" 0 (Report.exit_code clean);
  let all_baselined =
    Report.make
      ~baseline:(Baseline.of_findings [ finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:3 ])
      { Driver.files = 1; typed_files = 0;
        findings = [ finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:3 ];
        suppressed = [] }
  in
  check Alcotest.int "baselined does not fail" 0 (Report.exit_code all_baselined)

let test_report_text () =
  let text = Report.to_text (report_fixture ()) in
  check Alcotest.bool "grep-able location" true
    (contains ~sub:"lib/a.ml:3:0: error obj-magic" text);
  check Alcotest.bool "baselined tagged" true (contains ~sub:"[baselined]" text);
  check Alcotest.bool "summary line" true (contains ~sub:"2 files checked" text);
  let typed =
    Report.make { Driver.files = 3; typed_files = 2; findings = []; suppressed = [] }
  in
  check Alcotest.bool "typed count in summary" true
    (contains ~sub:"(2 typed)" (Report.to_text typed))

let test_report_json () =
  let json = Report.to_json (report_fixture ()) in
  match Json.of_string (Json.to_string json) with
  | Error m -> Alcotest.fail m
  | Ok j ->
      check Alcotest.int "version" 1
        (Option.get (Option.bind (Json.member "version" j) Json.get_int));
      let findings = Option.get (Option.bind (Json.member "findings" j) Json.get_list) in
      check Alcotest.int "fresh + baselined listed" 2 (List.length findings);
      let f = List.hd findings in
      List.iter
        (fun key ->
          check Alcotest.bool (Fmt.str "finding has %s" key) true
            (Json.member key f <> None))
        [ "rule"; "severity"; "file"; "line"; "col"; "message"; "baselined" ];
      check Alcotest.bool "typed object present" true (Json.member "typed" j <> None);
      let summary = Option.get (Json.member "summary" j) in
      check Alcotest.int "summary.fresh" 1
        (Option.get (Option.bind (Json.member "fresh" summary) Json.get_int));
      let by_rule = Option.get (Json.member "by_rule" summary) in
      check Alcotest.int "by_rule.obj-magic" 1
        (Option.get (Option.bind (Json.member "obj-magic" by_rule) Json.get_int))

(* ---- the lint on this repo's own invariants ---- *)

let test_rule_registry () =
  check Alcotest.int "ten substantive rules" 10 (List.length Lint.Rule.substantive);
  List.iter
    (fun name ->
      check Alcotest.bool (Fmt.str "%s registered" name) true (Lint.Rule.find name <> None))
    [ "raw-atomic"; "nondeterminism"; "toplevel-mutable"; "io-in-lib"; "catch-all";
      "mli-required"; "obj-magic"; "effect-discipline"; "poly-compare-abstract";
      "domain-unsafe-capture" ];
  check Alcotest.bool "suppression is meta" true (Lint.Rule.is_meta "suppression");
  check Alcotest.bool "cmt-missing is meta" true (Lint.Rule.is_meta "cmt-missing");
  check Alcotest.bool "raw-atomic is not" false (Lint.Rule.is_meta "raw-atomic")

let test_rule_metadata () =
  (* the metadata behind --explain: every rule carries it *)
  List.iter
    (fun (r : Lint.Rule.t) ->
      check Alcotest.bool (Fmt.str "%s has a rationale" r.Lint.Rule.name) true
        (String.length r.Lint.Rule.rationale > 0);
      check Alcotest.bool (Fmt.str "%s has an example" r.Lint.Rule.name) true
        (String.length r.Lint.Rule.example > 0))
    Lint.Rule.all

(* ---- the planted-evasion fixture corpus ----

   test/lint_fixtures is compiled as a library the test binary depends
   on, so dune guarantees fresh cmts under the test cwd
   (_build/default/test). Each evasion hides its identifier behind an
   alias, an open or eta-reduction, and must still be reported under the
   underlying rule at its exact position. Fixture paths are remapped
   into lib/ because policy scoping keys on the reported file. *)

module Cmt_loader = Lint.Cmt_loader
module Typed_rules = Lint.Typed_rules

let fixture_src name = "lint_fixtures/" ^ name ^ ".ml"

let fixture_structure name =
  match Cmt_loader.create ~build_dir:"." () with
  | None -> Alcotest.fail "no built tree next to the test binary"
  | Some l -> (
      match Cmt_loader.for_source l (fixture_src name) with
      | Cmt_loader.Typed structure -> structure
      | status ->
          Alcotest.fail
            (Option.value
               ~default:(Fmt.str "fixture cmt unusable for %s" name)
               (Cmt_loader.describe ~build_dir:"." status)))

let read_fixture name =
  In_channel.with_open_text (fixture_src name) In_channel.input_all

let typed_findings ~file name = Typed_rules.check ~file (fixture_structure name)

let lint_fixture ~file name =
  Driver.lint_structure ~policy:Policy.default ~file (fixture_structure name)

let count_typed rule fs =
  List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) fs)

(* exactly these (rule, line, col) findings, in source order *)
let check_positions what expected (o : Driver.outcome) =
  check
    Alcotest.(list (triple string int int))
    what expected
    (List.map
       (fun (f : Finding.t) -> (f.Finding.rule, f.Finding.line, f.Finding.col))
       o.Driver.findings)

let test_evasion_alias () =
  let o = lint_fixture ~file:"lib/consensus/evade_alias.ml" "evade_alias" in
  check_positions "the aliased A.set is raw-atomic" [ ("raw-atomic", 8, 31) ] o;
  check Alcotest.bool "message names the resolved identity" true
    (contains ~sub:"raw Atomic.set" (List.hd o.Driver.findings).Finding.message)

let test_evasion_open () =
  let o = lint_fixture ~file:"lib/sim/evade_open.ml" "evade_open" in
  check_positions "the bare int under open Random" [ ("nondeterminism", 7, 14) ] o;
  check Alcotest.bool "message names the resolved identity" true
    (contains ~sub:"Random.int draws" (List.hd o.Driver.findings).Finding.message);
  (* nondeterminism is not active outside the deterministic dirs *)
  let o = lint_fixture ~file:"lib/campaign/evade_open.ml" "evade_open" in
  check_positions "out of the rule's scope" [] o

let test_evasion_eta () =
  let o = lint_fixture ~file:"lib/consensus/evade_eta.ml" "evade_eta" in
  check_positions "eta-reduced + partial application both caught"
    [ ("raw-atomic", 8, 41); ("raw-atomic", 9, 28) ]
    o

let test_poly_compare_fixture () =
  let fs = typed_findings ~file:"lib/hoare/poly_compare.ml" "poly_compare" in
  (* direct =, aliased compare, = at Value.t list, List.mem,
     Hashtbl.hash, = at Op.t — and NOT the int-typed negative control *)
  check Alcotest.int "six instantiations at semantic types" 6
    (count_typed "poly-compare-abstract" fs);
  let hits =
    List.filter (fun (f : Finding.t) -> f.Finding.rule = "poly-compare-abstract") fs
  in
  check Alcotest.bool "message points at the semantic API" true
    (contains ~sub:"Value.equal" (List.hd hits).Finding.message);
  (* the grown semantic set: the Op.t instantiation is its own finding
     with its own suggested API *)
  check Alcotest.bool "Op.t caught with its own API" true
    (List.exists
       (fun (f : Finding.t) -> contains ~sub:"Op.equal" f.Finding.message)
       hits)

let test_domain_capture_fixture () =
  let fs = typed_findings ~file:"lib/campaign/domain_capture.ml" "domain_capture" in
  let hits = List.filter (fun (f : Finding.t) -> f.Finding.rule = "domain-unsafe-capture") fs in
  (* ref, mutable field, array cell — and NOT the closure-local ref *)
  check Alcotest.int "three captured mutations" 3 (List.length hits);
  List.iter
    (fun (f : Finding.t) ->
      check Alcotest.string "warning outside lib/sim" "warning"
        (Finding.severity_to_string f.Finding.severity))
    hits;
  let fs = typed_findings ~file:"lib/sim/domain_capture.ml" "domain_capture" in
  List.iter
    (fun (f : Finding.t) ->
      check Alcotest.string "error under lib/sim" "error"
        (Finding.severity_to_string f.Finding.severity))
    (List.filter (fun (f : Finding.t) -> f.Finding.rule = "domain-unsafe-capture") fs)

let test_named_closure_fixture () =
  let fs =
    typed_findings ~file:"lib/campaign/evade_named_closure.ml" "evade_named_closure"
  in
  let hits =
    List.filter (fun (f : Finding.t) -> f.Finding.rule = "domain-unsafe-capture") fs
  in
  (* the named ref mutation and the named field mutation — and NOT the
     named closure that only touches its own local ref *)
  check Alcotest.int "named closures followed to their bindings" 2 (List.length hits);
  check Alcotest.bool "message names the captured target" true
    (List.exists (fun (f : Finding.t) -> contains ~sub:"counter" f.Finding.message) hits)

let test_typed_findings_suppressible () =
  (* a type-aware finding goes through the same [@@@ffault.lint.allow]
     machinery as every other rule *)
  let src =
    "[@@@ffault.lint.allow \"domain-unsafe-capture\", \"audited race\"]\n\
     let f () =\n\
     \  let c = ref 0 in\n\
     \  Domain.join (Domain.spawn (fun () -> incr c));\n\
     \  !c\n"
  in
  let o = lint ~file:"lib/campaign/a.ml" src in
  check Alcotest.int "finding suppressed" 0 (count_rule "domain-unsafe-capture" o);
  check Alcotest.int "suppression recorded" 1 (List.length o.Driver.suppressed)

(* ---- cmt loader: freshness and graceful degradation ---- *)

let copy_binary src dst =
  Ffault_campaign.Checkpoint.mkdir_p (Filename.dirname dst);
  let bytes = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc bytes)

let fixture_cmt_path name =
  Fmt.str "lint_fixtures/.ffault_lint_fixtures.objs/byte/ffault_lint_fixtures__%s.cmt"
    (String.capitalize_ascii name)

(* a tmp repo layout whose lib/sim/evade_alias.ml matches the built
   fixture cmt byte-for-byte *)
let staleness_root () =
  let root = tmp_root () in
  let src = Filename.concat root "lib/sim/evade_alias.ml" in
  write_file src (read_fixture "evade_alias");
  write_file (Filename.concat root "lib/sim/evade_alias.mli") "";
  let bld = Filename.concat root "bld" in
  copy_binary
    (fixture_cmt_path "evade_alias")
    (Filename.concat bld "lib/sim/.fix.objs/byte/fix__Evade_alias.cmt");
  (root, src, bld)

let test_cmt_loader_fresh_then_stale () =
  let _, src, bld = staleness_root () in
  let l = Option.get (Cmt_loader.create ~build_dir:bld ()) in
  (match Cmt_loader.for_source l src with
  | Cmt_loader.Typed _ -> ()
  | s ->
      Alcotest.fail
        (Option.value ~default:"not fresh" (Cmt_loader.describe ~build_dir:bld s)));
  (* edit the source after the build: the digest no longer matches *)
  write_file src (read_fixture "evade_alias" ^ "\nlet edited_after_build = ()\n");
  match Cmt_loader.for_source l src with
  | Cmt_loader.Stale m ->
      check Alcotest.bool "says the source changed" true (contains ~sub:"source changed" m)
  | _ -> Alcotest.fail "expected Stale"

let test_cmt_stale_is_missing () =
  let root, src, bld = staleness_root () in
  write_file src (read_fixture "evade_alias" ^ "\nlet edited_after_build = ()\n");
  (* a stale cmt yields no findings from the old tree, only the
     cmt-missing error — CI fails loudly *)
  let r = Driver.run ~policy:Policy.default ~build_dir:bld [ root ] in
  check Alcotest.int "nothing linted" 0 r.Driver.typed_files;
  match r.Driver.findings with
  | [ f ] ->
      check Alcotest.string "rule" "cmt-missing" f.Finding.rule;
      check Alcotest.bool "names the file" true (contains ~sub:"evade_alias.ml" f.Finding.file);
      check Alcotest.bool "says why" true (contains ~sub:"source changed" f.Finding.message)
  | fs -> Alcotest.fail (Fmt.str "expected one finding, got %d" (List.length fs))

let test_cmt_fresh_via_driver () =
  (* with an untouched source the driver lints the copied cmt and
     surfaces the planted escape under its rule *)
  let root, _, bld = staleness_root () in
  let r = Driver.run ~policy:Policy.default ~build_dir:bld [ root ] in
  check Alcotest.int "the file was linted" 1 r.Driver.typed_files;
  check
    Alcotest.(list (triple string int int))
    "planted escape surfaced" [ ("raw-atomic", 8, 31) ]
    (List.map
       (fun (f : Finding.t) -> (f.Finding.rule, f.Finding.line, f.Finding.col))
       r.Driver.findings)

(* ---- baseline prune ---- *)

let test_baseline_prune () =
  let root = tmp_root () in
  let file = Filename.concat root "keep.ml" in
  write_file file body;
  let live = finding ~rule:"raw-atomic" ~file ~line:3 in
  let dead =
    { Baseline.rule = "io-in-lib"; file = "lib/gone.ml"; line = 9; ctx = None; note = "" }
  in
  let base = Baseline.of_findings [ live ] @ [ dead ] in
  let kept, dropped = Baseline.prune base [ live ] in
  check Alcotest.int "one dropped" 1 (List.length dropped);
  check Alcotest.int "one kept" 1 (List.length kept);
  check Alcotest.string "kept the live entry" "raw-atomic" (List.hd kept).Baseline.rule;
  check Alcotest.string "dropped the dead entry" "io-in-lib" (List.hd dropped).Baseline.rule

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "raw-atomic fires" `Quick test_raw_atomic_fires;
        Alcotest.test_case "raw-atomic spared" `Quick test_raw_atomic_spared;
        Alcotest.test_case "nondeterminism fires" `Quick test_nondeterminism_fires;
        Alcotest.test_case "nondeterminism spared" `Quick test_nondeterminism_spared;
        Alcotest.test_case "toplevel-mutable fires" `Quick test_toplevel_mutable_fires;
        Alcotest.test_case "toplevel-mutable spared" `Quick test_toplevel_mutable_spared;
        Alcotest.test_case "io-in-lib fires" `Quick test_io_in_lib_fires;
        Alcotest.test_case "io-in-lib spared" `Quick test_io_in_lib_spared;
        Alcotest.test_case "io-in-lib sockets" `Quick test_io_in_lib_sockets;
        Alcotest.test_case "catch-all fires" `Quick test_catch_all_fires;
        Alcotest.test_case "catch-all spared" `Quick test_catch_all_spared;
        Alcotest.test_case "effect-discipline fires" `Quick test_effect_discipline_fires;
        Alcotest.test_case "effect-discipline spared" `Quick test_effect_discipline_spared;
        Alcotest.test_case "obj-magic fires" `Quick test_obj_magic_fires;
        Alcotest.test_case "obj-magic spared" `Quick test_obj_magic_spared;
        Alcotest.test_case "mli-required" `Quick test_mli_required;
        Alcotest.test_case "registry" `Quick test_rule_registry;
        Alcotest.test_case "rule metadata" `Quick test_rule_metadata;
      ] );
    ( "lint.typed",
      [
        Alcotest.test_case "evasion: alias" `Quick test_evasion_alias;
        Alcotest.test_case "evasion: open" `Quick test_evasion_open;
        Alcotest.test_case "evasion: eta/partial" `Quick test_evasion_eta;
        Alcotest.test_case "poly-compare fixture" `Quick test_poly_compare_fixture;
        Alcotest.test_case "domain-capture fixture" `Quick test_domain_capture_fixture;
        Alcotest.test_case "named-closure fixture" `Quick test_named_closure_fixture;
        Alcotest.test_case "typed findings suppressible" `Quick
          test_typed_findings_suppressible;
        Alcotest.test_case "loader fresh then stale" `Quick test_cmt_loader_fresh_then_stale;
        Alcotest.test_case "stale cmt is cmt-missing" `Quick test_cmt_stale_is_missing;
        Alcotest.test_case "fresh cmt via driver" `Quick test_cmt_fresh_via_driver;
      ] );
    ( "lint.suppress",
      [
        Alcotest.test_case "file-level" `Quick test_suppress_file_level;
        Alcotest.test_case "binding-scoped" `Quick test_suppress_binding_scoped;
        Alcotest.test_case "missing justification" `Quick test_suppress_missing_justification;
        Alcotest.test_case "unknown rule" `Quick test_suppress_unknown_rule;
        Alcotest.test_case "meta rule rejected" `Quick test_suppress_meta_rule_rejected;
        Alcotest.test_case "blank justification" `Quick test_suppress_blank_justification;
      ] );
    ( "lint.policy",
      [
        Alcotest.test_case "normalize" `Quick test_policy_normalize;
        Alcotest.test_case "scoping" `Quick test_policy_scoping;
      ] );
    ( "lint.driver",
      [
        Alcotest.test_case "rules filter" `Quick test_rules_filter;
        Alcotest.test_case "skips _build" `Quick test_collect_skips_build_dirs;
      ] );
    ( "lint.baseline",
      [
        Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
        Alcotest.test_case "add/expire" `Quick test_baseline_add_expire;
        Alcotest.test_case "missing file" `Quick test_baseline_missing_file;
        Alcotest.test_case "fuzzy: shift survives" `Quick test_baseline_fuzzy_survives_shift;
        Alcotest.test_case "fuzzy: edit resurfaces" `Quick
          test_baseline_fuzzy_edit_resurfaces;
        Alcotest.test_case "fuzzy: line tiebreak" `Quick test_baseline_fuzzy_line_tiebreak;
        Alcotest.test_case "v1 compat" `Quick test_baseline_v1_compat;
        Alcotest.test_case "prune" `Quick test_baseline_prune;
      ] );
    ( "lint.report",
      [
        Alcotest.test_case "exit codes" `Quick test_report_exit_codes;
        Alcotest.test_case "text shape" `Quick test_report_text;
        Alcotest.test_case "json shape" `Quick test_report_json;
      ] );
  ]
