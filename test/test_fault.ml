(* Tests for the fault model: kinds, faulty semantics, budgets, injectors
   and the data-fault baseline. *)

open Ffault_objects
module Fault_kind = Ffault_fault.Fault_kind
module FS = Ffault_fault.Faulty_semantics
module Budget = Ffault_fault.Budget
module Injector = Ffault_fault.Injector
module Data_fault = Ffault_fault.Data_fault

let check = Alcotest.check
let value_testable = Test_objects.value_testable_for_reuse
let i n = Value.Int n
let bot = Value.Bottom
let cas ~expected ~desired = Op.Cas { expected; desired }

(* ---- Fault_kind ---- *)

let test_kind_string_roundtrip () =
  List.iter
    (fun k ->
      check Alcotest.bool (Fault_kind.to_string k) true
        (Fault_kind.of_string (Fault_kind.to_string k) = Some k))
    Fault_kind.all;
  check Alcotest.bool "unknown" true (Fault_kind.of_string "zap" = None)

let test_kind_responsive () =
  check Alcotest.bool "overriding responsive" true (Fault_kind.is_responsive Overriding);
  check Alcotest.bool "nonresponsive not" false (Fault_kind.is_responsive Nonresponsive)

let test_kind_phi' () =
  check Alcotest.bool "nonresponsive has no \xce\xa6'" true
    (Fault_kind.phi' Nonresponsive = None);
  List.iter
    (fun k -> check Alcotest.bool (Fault_kind.to_string k) true (Fault_kind.phi' k <> None))
    [ Fault_kind.Overriding; Silent; Invisible; Arbitrary ]

(* ---- Faulty_semantics ---- *)

let outcome_exn = function
  | Ok (FS.Outcome o) -> o
  | Ok FS.Hangs -> Alcotest.fail "unexpected hang"
  | Error e -> Alcotest.failf "unexpected error: %a" FS.pp_error e

let test_overriding_semantics () =
  let o =
    outcome_exn
      (FS.apply Overriding ~kind:Kind.Cas_only ~state:(i 3)
         (cas ~expected:bot ~desired:(i 5)))
  in
  check value_testable "writes desired regardless" (i 5) o.Semantics.post_state;
  check value_testable "old is truthful" (i 3) o.Semantics.response

let test_silent_semantics () =
  let o =
    outcome_exn
      (FS.apply Silent ~kind:Kind.Cas_only ~state:bot (cas ~expected:bot ~desired:(i 5)))
  in
  check value_testable "suppresses the write" bot o.Semantics.post_state;
  check value_testable "old is truthful" bot o.Semantics.response

let test_invisible_semantics () =
  let o =
    outcome_exn
      (FS.apply Invisible ~payload:(i 9) ~kind:Kind.Cas_only ~state:(i 3)
         (cas ~expected:(i 3) ~desired:(i 5)))
  in
  check value_testable "state transitions correctly" (i 5) o.Semantics.post_state;
  check value_testable "response is the forged value" (i 9) o.Semantics.response

let test_invisible_payload_required () =
  match FS.apply Invisible ~kind:Kind.Cas_only ~state:(i 3) (cas ~expected:bot ~desired:(i 5)) with
  | Error (FS.Payload_required Invisible) -> ()
  | _ -> Alcotest.fail "expected Payload_required"

let test_invisible_payload_must_differ () =
  match
    FS.apply Invisible ~payload:(i 3) ~kind:Kind.Cas_only ~state:(i 3)
      (cas ~expected:bot ~desired:(i 5))
  with
  | Error (FS.Invalid_payload _) -> ()
  | _ -> Alcotest.fail "expected Invalid_payload"

let test_arbitrary_semantics () =
  let o =
    outcome_exn
      (FS.apply Arbitrary ~payload:(i 42) ~kind:Kind.Cas_only ~state:(i 3)
         (cas ~expected:(i 3) ~desired:(i 5)))
  in
  check value_testable "writes the payload" (i 42) o.Semantics.post_state;
  check value_testable "old is truthful" (i 3) o.Semantics.response

let test_nonresponsive_hangs () =
  match FS.apply Nonresponsive ~kind:Kind.Cas_only ~state:bot (cas ~expected:bot ~desired:(i 1)) with
  | Ok FS.Hangs -> ()
  | _ -> Alcotest.fail "expected Hangs"

let test_fault_on_non_cas () =
  match FS.apply Overriding ~kind:Kind.Register ~state:(i 1) Op.Read with
  | Error (FS.Not_applicable _) -> ()
  | _ -> Alcotest.fail "expected Not_applicable"

let test_observability () =
  (* overriding on a matching CAS is a no-op *)
  check Alcotest.bool "override on success unobservable" false
    (FS.is_observable Overriding ~state:bot (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "override on failure observable" true
    (FS.is_observable Overriding ~state:(i 2) (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "override writing the same value unobservable" false
    (FS.is_observable Overriding ~state:(i 1) (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "silent on failure unobservable" false
    (FS.is_observable Silent ~state:(i 2) (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "silent on success observable" true
    (FS.is_observable Silent ~state:bot (cas ~expected:bot ~desired:(i 1)))

(* ---- Budget ---- *)

let oid = Obj_id.of_int

let test_budget_basic () =
  let b = Budget.create ~max_faulty_objects:2 ~max_faults_per_object:(Some 2) () in
  check Alcotest.bool "fresh object can fault" true (Budget.can_fault b (oid 0));
  Budget.charge b (oid 0);
  Budget.charge b (oid 0);
  check Alcotest.bool "per-object cap" false (Budget.can_fault b (oid 0));
  Budget.charge b (oid 1);
  check Alcotest.bool "second object ok" true (Budget.can_fault b (oid 1));
  check Alcotest.bool "third object exceeds f" false (Budget.can_fault b (oid 2));
  check Alcotest.int "total" 3 (Budget.total_faults b);
  check (Alcotest.list Alcotest.int) "faulty objects" [ 0; 1 ]
    (List.map Obj_id.to_int (Budget.faulty_objects b))

let test_budget_unbounded_t () =
  let b = Budget.create ~max_faulty_objects:1 ~max_faults_per_object:None () in
  for _ = 1 to 100 do
    Budget.charge b (oid 3)
  done;
  check Alcotest.int "100 faults on one object" 100 (Budget.faults_on b (oid 3));
  check Alcotest.bool "other objects blocked" false (Budget.can_fault b (oid 4))

let test_budget_victims () =
  let b =
    Budget.create ~victims:[ oid 1 ] ~max_faulty_objects:2 ~max_faults_per_object:None ()
  in
  check Alcotest.bool "victim can fault" true (Budget.can_fault b (oid 1));
  check Alcotest.bool "non-victim cannot" false (Budget.can_fault b (oid 0))

let test_budget_none () =
  let b = Budget.none () in
  check Alcotest.bool "f=0 blocks all" false (Budget.can_fault b (oid 0))

let test_budget_charge_over () =
  let b = Budget.none () in
  Alcotest.check_raises "over-charge raises"
    (Invalid_argument "Budget.charge: fault on O0 exceeds budget") (fun () ->
      Budget.charge b (oid 0))

let test_budget_copy () =
  let b = Budget.create ~max_faulty_objects:1 ~max_faults_per_object:(Some 1) () in
  let c = Budget.copy b in
  Budget.charge b (oid 0);
  check Alcotest.int "copy unaffected" 0 (Budget.total_faults c);
  check Alcotest.bool "copy can still fault" true (Budget.can_fault c (oid 0))

let ids b = List.map Obj_id.to_int (Budget.faulty_objects b)

let test_budget_sparse_ids () =
  let b = Budget.unlimited () in
  List.iter (fun o -> Budget.charge b (oid o)) [ 1000; 3; 17; 3; 1000; 0; 1000 ];
  check (Alcotest.list Alcotest.int) "faulty objects ascending" [ 0; 3; 17; 1000 ] (ids b);
  check Alcotest.int "total faults" 7 (Budget.total_faults b);
  check (Alcotest.list Alcotest.int) "per-object counts" [ 1; 2; 1; 3; 0; 0 ]
    (List.map (fun o -> Budget.faults_on b (oid o)) [ 0; 3; 17; 1000; 999; 5000 ]);
  check Alcotest.string "num_faulty and total in pp"
    "budget(f=\xe2\x88\x9e, t=\xe2\x88\x9e; charged 7 faults on 4 objects)"
    (Fmt.str "%a" Budget.pp b)

let test_budget_sparse_victims () =
  let b =
    Budget.create ~victims:[ oid 500; oid 7 ] ~max_faulty_objects:2 ~max_faults_per_object:(Some 3)
      ()
  in
  check Alcotest.bool "non-victim between victims" false (Budget.can_fault b (oid 8));
  for _ = 1 to 3 do
    Budget.charge b (oid 500)
  done;
  Budget.charge b (oid 7);
  check Alcotest.bool "victim at t" false (Budget.can_fault b (oid 500));
  check Alcotest.bool "victim below t" true (Budget.can_fault b (oid 7));
  check (Alcotest.list Alcotest.int) "faulty objects ascending" [ 7; 500 ] (ids b);
  check Alcotest.int "total faults" 4 (Budget.total_faults b);
  check Alcotest.string "pp" "budget(f=2, t=3; charged 4 faults on 2 objects)"
    (Fmt.str "%a" Budget.pp b)

let test_budget_copy_both_tables () =
  let b =
    Budget.create ~max_crashes_per_proc:2 ~max_faulty_objects:3 ~max_faults_per_object:None ()
  in
  Budget.charge b (oid 1);
  Budget.charge_crash b ~proc:0;
  let c = Budget.copy b in
  Budget.charge b (oid 64);
  Budget.charge_crash b ~proc:40;
  Budget.charge c (oid 1);
  Budget.charge_crash c ~proc:0;
  check (Alcotest.list Alcotest.int) "original objects" [ 1; 64 ] (ids b);
  check (Alcotest.list Alcotest.int) "copy objects" [ 1 ] (ids c);
  check (Alcotest.pair Alcotest.int Alcotest.int) "original faults, crashes" (2, 2)
    (Budget.total_faults b, Budget.total_crashes b);
  check (Alcotest.pair Alcotest.int Alcotest.int) "copy faults, crashes" (2, 2)
    (Budget.total_faults c, Budget.total_crashes c);
  check (Alcotest.pair Alcotest.int Alcotest.int) "proc 0 crashes: original, copy" (1, 2)
    (Budget.crashes_on b 0, Budget.crashes_on c 0);
  check Alcotest.int "copy never saw proc 40" 0 (Budget.crashes_on c 40)

let test_budget_pp () =
  let fresh = Budget.create ~max_faulty_objects:2 ~max_faults_per_object:(Some 1) () in
  check Alcotest.string "fresh" "budget(f=2, t=1; charged 0 faults on 0 objects)"
    (Fmt.str "%a" Budget.pp fresh);
  let b =
    Budget.create ~max_crashes_per_proc:2 ~max_faulty_objects:1 ~max_faults_per_object:None ()
  in
  Budget.charge b (oid 2);
  Budget.charge b (oid 2);
  Budget.charge_crash b ~proc:1;
  check Alcotest.string "with crashes"
    ("budget(f=1, t=\xe2\x88\x9e; charged 2 faults on 1 objects)"
   ^ " (crashes: 1 charged, \xe2\x89\xa42 per proc)")
    (Fmt.str "%a" Budget.pp b)

let test_budget_charge_past_bounds () =
  let b =
    Budget.create ~max_crashes_per_proc:1 ~max_faulty_objects:1 ~max_faults_per_object:(Some 2) ()
  in
  Budget.charge b (oid 9);
  Budget.charge b (oid 9);
  Alcotest.check_raises "past t" (Invalid_argument "Budget.charge: fault on O9 exceeds budget")
    (fun () -> Budget.charge b (oid 9));
  Alcotest.check_raises "past f" (Invalid_argument "Budget.charge: fault on O300 exceeds budget")
    (fun () -> Budget.charge b (oid 300));
  Budget.charge_crash b ~proc:37;
  Alcotest.check_raises "past the crash cap"
    (Invalid_argument "Budget.charge_crash: crash of proc 37 exceeds budget") (fun () ->
      Budget.charge_crash b ~proc:37);
  check Alcotest.int "failed charges leave totals" 2 (Budget.total_faults b);
  check Alcotest.int "failed crash charge leaves totals" 1 (Budget.total_crashes b)

let test_budget_validation () =
  Alcotest.check_raises "negative f" (Invalid_argument "Budget.create: max_faulty_objects < 0")
    (fun () -> ignore (Budget.create ~max_faulty_objects:(-1) ~max_faults_per_object:None ()));
  Alcotest.check_raises "t < 1" (Invalid_argument "Budget.create: max_faults_per_object < 1")
    (fun () ->
      ignore (Budget.create ~max_faulty_objects:1 ~max_faults_per_object:(Some 0) ()));
  Alcotest.check_raises "too many victims"
    (Invalid_argument "Budget.create: more victims than max_faulty_objects") (fun () ->
      ignore
        (Budget.create ~victims:[ oid 0; oid 1 ] ~max_faulty_objects:1
           ~max_faults_per_object:None ()))

(* ---- Injector ---- *)

let ctx ?(proc = 0) ?(op_index = 0) ?(state = bot) ?(obj = oid 0) () =
  {
    Injector.obj;
    op = cas ~expected:bot ~desired:(i 1);
    state;
    proc;
    step = 0;
    op_index;
    budget = Budget.unlimited ();
  }

let is_fault kind = function
  | Injector.Fault { kind = k; _ } -> Fault_kind.equal k kind
  | Injector.No_fault -> false

let test_injector_never_always () =
  check Alcotest.bool "never" true (Injector.never.Injector.decide (ctx ()) = Injector.No_fault);
  check Alcotest.bool "always overrides" true
    (is_fault Overriding ((Injector.always Overriding).Injector.decide (ctx ())))

let test_injector_probabilistic_deterministic () =
  let mk () = Injector.probabilistic ~seed:4L ~p:0.5 Fault_kind.Overriding in
  let a = mk () and b = mk () in
  for k = 0 to 50 do
    check Alcotest.bool "same seed, same decisions" true
      (a.Injector.decide (ctx ~op_index:k ()) = b.Injector.decide (ctx ~op_index:k ()))
  done

let test_injector_by_process () =
  let inj = Injector.by_process ~procs:[ 1 ] Fault_kind.Overriding in
  check Alcotest.bool "proc 1 faults" true (is_fault Overriding (inj.Injector.decide (ctx ~proc:1 ())));
  check Alcotest.bool "proc 0 does not" true
    (inj.Injector.decide (ctx ~proc:0 ()) = Injector.No_fault)

let test_injector_scripted () =
  let inj =
    Injector.on_invocations
      [ (2, Injector.Fault { kind = Fault_kind.Silent; payload = None }) ]
  in
  check Alcotest.bool "op 0 clean" true (inj.Injector.decide (ctx ~op_index:0 ()) = Injector.No_fault);
  check Alcotest.bool "op 2 faults" true
    (is_fault Silent (inj.Injector.decide (ctx ~op_index:2 ())))

let test_injector_first_per_object () =
  let inj = Injector.first_on_each_object Fault_kind.Overriding in
  check Alcotest.bool "first on O0" true
    (is_fault Overriding (inj.Injector.decide (ctx ~obj:(oid 0) ())));
  check Alcotest.bool "second on O0 clean" true
    (inj.Injector.decide (ctx ~obj:(oid 0) ()) = Injector.No_fault);
  check Alcotest.bool "first on O1" true
    (is_fault Overriding (inj.Injector.decide (ctx ~obj:(oid 1) ())))

let test_injector_payload_defaults () =
  (match (Injector.always Fault_kind.Arbitrary).Injector.decide (ctx ()) with
  | Injector.Fault { kind = Arbitrary; payload = Some _ } -> ()
  | _ -> Alcotest.fail "arbitrary needs a default payload");
  match (Injector.always Fault_kind.Invisible).Injector.decide (ctx ~state:(i 1) ()) with
  | Injector.Fault { kind = Invisible; payload = Some p } ->
      check Alcotest.bool "payload differs from state" false (Value.equal p (i 1))
  | _ -> Alcotest.fail "invisible needs a default payload"

(* ---- Data_fault ---- *)

let dctx ?(step = 0) states =
  {
    Data_fault.step;
    state_of = (fun o -> List.assoc (Obj_id.to_int o) states);
    budget = Budget.unlimited ();
  }

let test_data_fault_scripted () =
  let df = Data_fault.scripted [ (3, [ { Data_fault.obj = oid 0; value = i 9 } ]) ] in
  check Alcotest.int "nothing at step 0" 0 (List.length (df.Data_fault.decide (dctx [ (0, bot) ])));
  check Alcotest.int "fires at step 3" 1
    (List.length (df.Data_fault.decide (dctx ~step:3 [ (0, bot) ])))

let test_data_fault_probabilistic_bounds () =
  let df =
    Data_fault.probabilistic ~seed:5L ~p:1.0 ~objects:[ oid 0; oid 1 ] ~values:[ i 7 ]
  in
  let events = df.Data_fault.decide (dctx [ (0, bot); (1, bot) ]) in
  check Alcotest.int "one event at p=1" 1 (List.length events);
  List.iter
    (fun e -> check value_testable "value from palette" (i 7) e.Data_fault.value)
    events

let suites =
  [
    ( "fault.kind",
      [
        Alcotest.test_case "string roundtrip" `Quick test_kind_string_roundtrip;
        Alcotest.test_case "responsiveness" `Quick test_kind_responsive;
        Alcotest.test_case "\xce\xa6' mapping" `Quick test_kind_phi';
      ] );
    ( "fault.semantics",
      [
        Alcotest.test_case "overriding" `Quick test_overriding_semantics;
        Alcotest.test_case "silent" `Quick test_silent_semantics;
        Alcotest.test_case "invisible" `Quick test_invisible_semantics;
        Alcotest.test_case "invisible payload required" `Quick test_invisible_payload_required;
        Alcotest.test_case "invisible payload differs" `Quick test_invisible_payload_must_differ;
        Alcotest.test_case "arbitrary" `Quick test_arbitrary_semantics;
        Alcotest.test_case "nonresponsive hangs" `Quick test_nonresponsive_hangs;
        Alcotest.test_case "non-CAS rejected" `Quick test_fault_on_non_cas;
        Alcotest.test_case "observability" `Quick test_observability;
      ] );
    ( "fault.budget",
      [
        Alcotest.test_case "basic accounting" `Quick test_budget_basic;
        Alcotest.test_case "unbounded t" `Quick test_budget_unbounded_t;
        Alcotest.test_case "victims" `Quick test_budget_victims;
        Alcotest.test_case "none" `Quick test_budget_none;
        Alcotest.test_case "over-charge raises" `Quick test_budget_charge_over;
        Alcotest.test_case "copy isolation" `Quick test_budget_copy;
        Alcotest.test_case "validation" `Quick test_budget_validation;
        Alcotest.test_case "sparse and large ids" `Quick test_budget_sparse_ids;
        Alcotest.test_case "sparse victims" `Quick test_budget_sparse_victims;
        Alcotest.test_case "copy isolates both tables" `Quick test_budget_copy_both_tables;
        Alcotest.test_case "pp" `Quick test_budget_pp;
        Alcotest.test_case "charge past bounds raises" `Quick test_budget_charge_past_bounds;
      ] );
    ( "fault.injector",
      [
        Alcotest.test_case "never / always" `Quick test_injector_never_always;
        Alcotest.test_case "probabilistic determinism" `Quick
          test_injector_probabilistic_deterministic;
        Alcotest.test_case "by process" `Quick test_injector_by_process;
        Alcotest.test_case "scripted" `Quick test_injector_scripted;
        Alcotest.test_case "first per object" `Quick test_injector_first_per_object;
        Alcotest.test_case "payload defaults" `Quick test_injector_payload_defaults;
      ] );
    ( "fault.data",
      [
        Alcotest.test_case "scripted" `Quick test_data_fault_scripted;
        Alcotest.test_case "probabilistic" `Quick test_data_fault_probabilistic_bounds;
      ] );
  ]
