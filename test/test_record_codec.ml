(* The journal-record codec: the direct encoder ([Journal.to_line]) must
   write exactly what the JSON tree printer writes for the same record,
   and the decoder ([Journal.of_line]) must accept and reject exactly
   what the field-by-field tree decoder did — on valid lines, legacy
   lines, and every truncation and byte flip of a real record. Journal
   recovery, health, resume scans and the coordinator's dedup all rest
   on that decoder, so their behaviour follows. *)

module Campaign = Ffault_campaign
module Json = Campaign.Json
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Pool = Campaign.Pool
module Spec = Campaign.Spec
module Fault_kind = Ffault_fault.Fault_kind
module Persistence = Ffault_recover.Persistence
module Obj_id = Ffault_objects.Obj_id

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- the reference: the tree path ---- *)

let tree_line r = Json.to_string (Journal.to_json r)

(* The decoder as it was before the one-pass version: every field looked
   up in the parsed tree with [Json.member]. Kept here as the oracle. *)
let reference_of_json json =
  let ( let* ) = Result.bind in
  let field key project =
    match Option.bind (Json.member key json) project with
    | Some v -> Ok v
    | None -> Error (Fmt.str "journal record: missing or malformed %S" key)
  in
  let optional key default malformed project =
    match Json.member key json with
    | None -> Ok default
    | Some j -> ( match project j with Some v -> Ok v | None -> Error malformed)
  in
  let non_negative j = Option.bind (Json.get_int j) (fun c -> if c >= 0 then Some c else None) in
  let all project items =
    let vs = List.filter_map project items in
    if List.length vs = List.length items then Some vs else None
  in
  let* trial = field "trial" Json.get_int in
  let* f = field "f" Json.get_int in
  let* t =
    field "t" (function Json.Null -> Some None | j -> Option.map Option.some (Json.get_int j))
  in
  let* n = field "n" Json.get_int in
  let* kind = field "kind" (fun j -> Option.bind (Json.get_str j) Fault_kind.of_string) in
  let* rate = field "rate" Json.get_float in
  let* seed = field "seed" (fun j -> Option.bind (Json.get_str j) Int64.of_string_opt) in
  let* ok = field "ok" Json.get_bool in
  let* outcome =
    optional "outcome"
      (if ok then Journal.Pass else Journal.Violation)
      "journal record: malformed outcome"
      (fun j -> Option.bind (Json.get_str j) Journal.outcome_of_string)
  in
  let* retries = optional "retries" 0 "journal record: malformed retries" non_negative in
  let* violations =
    field "violations" (fun j -> Option.bind (Json.get_list j) (all Json.get_str))
  in
  let* steps = field "steps" Json.get_int in
  let* max_steps = field "max_steps" Json.get_int in
  let* stage = field "stage" Json.get_int in
  let* faults = field "faults" Json.get_int in
  let* wall_us = field "wall_us" Json.get_int in
  let* crashes = optional "crashes" 0 "journal record: malformed crashes" non_negative in
  let* crash_rate =
    optional "crash_rate" 0.0 "journal record: malformed crash_rate" Json.get_float
  in
  let* persistence =
    optional "persistence" Persistence.Persist_all "journal record: malformed persistence"
      (fun j -> Option.bind (Json.get_str j) (fun s -> Result.to_option (Persistence.of_string s)))
  in
  let* crash_faults =
    optional "crash_faults" 0 "journal record: malformed crash_faults" non_negative
  in
  let* witness =
    optional "witness" None "journal record: malformed witness" (fun j ->
        Option.map (fun vs -> Some (Array.of_list vs)) (Option.bind (Json.get_list j) (all Json.get_int)))
  in
  Ok
    {
      Journal.trial;
      cell = { Grid.f; t; n; kind; rate; crashes; crash_rate; persistence };
      seed;
      ok;
      outcome;
      retries;
      violations;
      steps;
      max_steps;
      stage;
      faults;
      crash_faults;
      wall_us;
      witness;
    }

let reference_of_line l = Result.bind (Json.of_string l) reference_of_json

let show = function
  | Ok r -> "Ok " ^ tree_line r
  | Error m -> "Error " ^ m

(* Same [Ok] record or the same [Error] string. *)
let agrees line =
  let got = Journal.of_line line and want = reference_of_line line in
  match (got, want) with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> String.equal a b
  | _ -> false

let check_agrees what line =
  if not (agrees line) then
    Alcotest.failf "%s: decoders disagree on %S@.  new: %s@.  reference: %s" what line
      (show (Journal.of_line line))
      (show (reference_of_line line))

(* ---- generators ---- *)

let gen_record =
  let open QCheck.Gen in
  let any_int = oneof [ int; oneofl [ min_int; max_int; 0; -1; 1 ]; small_signed_int ] in
  let count = oneof [ small_nat; oneofl [ 0; max_int ] ] in
  let gen_rate =
    oneof [ oneofl [ 0.0; 1.0; 1e20; 0.3; -0.0; 1e-300; 5e-5; 0.1; 12345678901234.5625 ];
            float_bound_inclusive 1.0; float ]
    |> map (fun f -> if Float.is_finite f then f else 0.5)
  in
  let seed = oneof [ ui64; oneofl [ Int64.min_int; Int64.max_int; 0L; -1L ] ] in
  let text =
    let piece =
      oneofl
        [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x01"; "\x1f"; "\x7f"; "caf\xc3\xa9";
          "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "consistency: procs decided {1, 2}";
          "crashed: Invalid_argument(\"x\")"; " " ]
    in
    oneof [ string_printable; map (String.concat "") (list_size (0 -- 8) piece); string ]
  in
  let witness =
    oneof
      [ return None; return (Some [||]); map Option.some (array_size (0 -- 5) any_int);
        map Option.some (array_size (return 300) small_nat) ]
  in
  let persistence =
    oneofl
      [ Persistence.Persist_all; Persistence.Persist_lossy;
        Persistence.Persist_only [ Obj_id.of_int 0; Obj_id.of_int 3 ] ]
  in
  let outcome = oneofl [ Journal.Pass; Journal.Violation; Journal.Timeout; Journal.Quarantined ] in
  let* f = any_int and* t = opt any_int and* n = any_int in
  let* kind = oneofl Fault_kind.all and* rate = gen_rate in
  let* crash_cell = bool in
  let* crashes = if crash_cell then map (fun c -> c + 1) small_nat else return 0 in
  let* crash_rate = if crash_cell then gen_rate else return 0.0 in
  let* persistence = if crash_cell then persistence else return Persistence.Persist_all in
  let* crash_faults = if crash_cell then count else return 0 in
  let* trial = any_int and* seed = seed and* ok = bool and* outcome = outcome in
  let* retries = count and* violations = list_size (0 -- 4) text in
  let* steps = any_int and* max_steps = any_int and* stage = any_int in
  let* faults = any_int and* wall_us = any_int and* witness = witness in
  return
    {
      Journal.trial;
      cell = { Grid.f; t; n; kind; rate; crashes; crash_rate; persistence };
      seed;
      ok;
      outcome;
      retries;
      violations;
      steps;
      max_steps;
      stage;
      faults;
      crash_faults;
      wall_us;
      witness;
    }

let arb_record = QCheck.make ~print:tree_line gen_record

(* The encoder writes the tree's bytes, and the decoder inverts it. *)
let encodes_like_tree r =
  let line = Journal.to_line r in
  String.equal line (tree_line r) && Journal.of_line line = Ok r

let prop_encoder_matches_tree =
  QCheck.Test.make ~name:"to_line = tree bytes, of_line inverts" ~count:2000 arb_record
    encodes_like_tree

(* ---- real records ---- *)

let fig3_spec () =
  Spec.v ~name:"codec-fig3" ~protocol:"fig3" ~f:[ 2 ] ~t:[ Some 1 ] ~n:[ 3 ] ~rates:[ 0.3 ]
    ~trials:300 ~seed:11L ()

(* The E15 grid's shape: 64 crash cells on the naive-tas baseline,
   where most trials violate and records carry witnesses. *)
let crash_spec () =
  Spec.v ~name:"codec-crash" ~protocol:"naive-tas" ~f:[ 1 ] ~n:[ 2; 3 ]
    ~kinds:[ Fault_kind.Overriding; Fault_kind.Silent ] ~rates:[ 0.0; 0.3 ] ~crashes:[ 1; 2 ]
    ~crash_rates:[ 0.2; 0.5 ]
    ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
    ~trials:6 ~seed:11L ()

let pool_records spec =
  let acc = ref [] in
  ignore (Pool.run_trials ~on_record:(fun r -> acc := r :: !acc) spec);
  List.rev !acc

let test_pool_records_encode_like_tree () =
  List.iter
    (fun spec ->
      let records = pool_records (spec ()) in
      check Alcotest.bool "campaign ran" true (records <> []);
      List.iter
        (fun r ->
          if not (encodes_like_tree r) then
            Alcotest.failf "record %d: to_line %S@.tree %S" r.Journal.trial (Journal.to_line r)
              (tree_line r))
        records)
    [ fig3_spec; crash_spec ]

(* ---- decoder agreement ---- *)

let legacy_lines =
  [
    (* pre-supervision: no outcome, no retries *)
    "{\"trial\":7,\"f\":2,\"t\":1,\"n\":3,\"kind\":\"overriding\",\"rate\":0.4,\
     \"seed\":\"-5530000000000000001\",\"ok\":true,\"violations\":[],\"steps\":41,\
     \"max_steps\":17,\"stage\":3,\"faults\":2,\"wall_us\":180}";
    "{\"trial\":8,\"f\":2,\"t\":1,\"n\":3,\"kind\":\"overriding\",\"rate\":0.4,\
     \"seed\":\"1\",\"ok\":false,\"violations\":[\"v\"],\"steps\":4,\"max_steps\":2,\
     \"stage\":0,\"faults\":1,\"wall_us\":9}";
  ]

(* A real crash-cell violation record with a witness. *)
let crash_record () =
  match
    List.find_opt
      (fun r -> r.Journal.witness <> None && r.Journal.violations <> [])
      (pool_records (crash_spec ()))
  with
  | Some r -> r
  | None -> Alcotest.fail "crash grid produced no witnessed violation"

(* Valid variants of a line the encoder never writes but a reader must
   still take: reordered fields, whitespace, duplicated keys (the first
   binding wins), unknown keys, integral floats where ints belong. *)
let variants r =
  let fields = match Journal.to_json r with Json.Obj fs -> fs | _ -> [] in
  let obj fs = Json.to_string (Json.Obj fs) in
  let spaced =
    String.concat ""
      (List.map
         (function ',' -> " ,\n\t" | ':' -> " : " | '{' -> "{ " | '}' -> " }" | c -> String.make 1 c)
         (List.of_seq (String.to_seq (Journal.to_line { r with violations = [] }))))
  in
  [
    obj (List.rev fields);
    obj (fields @ [ ("trial", Json.Int 99); ("ok", Json.Str "junk") ]);
    obj (("trial", Json.Int 99) :: fields);
    obj (("outcome", Json.Str "nonsense") :: fields);
    obj (fields @ [ ("extra", Json.Obj [ ("nested", Json.List [ Json.Null ]) ]) ]);
    obj
      (List.map
         (function "steps", Json.Int s -> ("steps", Json.Float (float_of_int s)) | kv -> kv)
         fields);
    obj (List.map (function "trial", _ -> ("trial", Json.Float 1e300) | kv -> kv) fields);
    obj (List.map (function "retries", _ -> ("retries", Json.Int (-1)) | kv -> kv) fields);
    obj (List.filter (fun (k, _) -> k <> "violations") fields);
    obj (List.filter (fun (k, _) -> k <> "outcome" && k <> "retries") fields);
    spaced;
    "[]";
    "{}";
    "null";
  ]

let test_decoder_agrees_on_valid_lines () =
  let r = crash_record () in
  List.iter (check_agrees "legacy") legacy_lines;
  List.iter (check_agrees "variant") (variants r);
  List.iter (check_agrees "fig3 variant") (variants (List.hd (pool_records (fig3_spec ()))))

let test_decoder_agrees_on_damage () =
  let line = Journal.to_line (crash_record ()) in
  for i = 0 to String.length line do
    check_agrees "truncation" (String.sub line 0 i)
  done;
  (* single-byte flips: each position to bytes that matter to the
     grammar, plus a rotating arbitrary byte *)
  let flips = "\"\\{}[],:0-9.eE tfn\x00\x1f\xff" in
  String.iteri
    (fun i _ ->
      let flip c =
        let b = Bytes.of_string line in
        Bytes.set b i c;
        check_agrees "byte flip" (Bytes.to_string b)
      in
      String.iter flip flips;
      flip (Char.chr ((i * 37) land 0xFF)))
    line

let suites =
  [
    ( "campaign.record_codec",
      [
        qcheck prop_encoder_matches_tree;
        Alcotest.test_case "pool records encode like the tree" `Quick
          test_pool_records_encode_like_tree;
        Alcotest.test_case "decoder agrees on valid lines" `Quick
          test_decoder_agrees_on_valid_lines;
        Alcotest.test_case "decoder agrees on damage" `Quick test_decoder_agrees_on_damage;
      ] );
  ]
