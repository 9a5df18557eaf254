(* Tests for the distributed campaign subsystem: wire framing (including
   truncation, oversize and garbage fuzz — malformed input must error,
   never raise), the typed codec, the fake-clock lease table, and one
   in-process coordinator/worker run over a real Unix socket. *)

module Dist = Ffault_dist
module Wire = Dist.Wire
module Codec = Dist.Codec
module Lease = Dist.Lease
module Transport = Dist.Transport
module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Json = Campaign.Json
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint

let check = Alcotest.check

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let tmp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "ffault-dist-test-%d-%d" (Unix.getpid ()) !n)
    in
    Checkpoint.mkdir_p dir;
    dir

(* ---- wire ---- *)

let frame tag payload = { Wire.tag; payload }

let drain dec =
  let rec go acc =
    match Wire.Decoder.next dec with
    | Ok (Some f) -> go (f :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error _ as e -> e
  in
  go []

let test_wire_roundtrip () =
  let frames = [ frame 'h' "{}"; frame 'R' (String.make 1000 'x'); frame 'b' "" ] in
  let bytes = String.concat "" (List.map Wire.encode frames) in
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec bytes;
  match drain dec with
  | Error m -> Alcotest.fail m
  | Ok decoded ->
      check Alcotest.int "all frames" (List.length frames) (List.length decoded);
      List.iter2
        (fun (a : Wire.frame) (b : Wire.frame) ->
          check Alcotest.char "tag" a.Wire.tag b.Wire.tag;
          check Alcotest.string "payload" a.Wire.payload b.Wire.payload)
        frames decoded

let test_wire_byte_at_a_time () =
  let f = frame 'l' "{\"lease\":3}" in
  let bytes = Wire.encode f in
  let dec = Wire.Decoder.create () in
  let seen = ref 0 in
  String.iter
    (fun c ->
      Wire.Decoder.feed dec (String.make 1 c);
      match Wire.Decoder.next dec with
      | Ok (Some g) ->
          incr seen;
          check Alcotest.string "payload survives dribble" f.Wire.payload g.Wire.payload
      | Ok None -> ()
      | Error m -> Alcotest.fail m)
    bytes;
  check Alcotest.int "exactly one frame" 1 !seen

let test_wire_truncated () =
  let bytes = Wire.encode (frame 'h' "abcdef") in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec cut;
  (match Wire.Decoder.next dec with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "truncated frame decoded"
  | Error m -> Alcotest.fail m);
  (* the rest arrives: the frame completes *)
  Wire.Decoder.feed dec (String.sub bytes (String.length cut) 3);
  match Wire.Decoder.next dec with
  | Ok (Some f) -> check Alcotest.string "completed" "abcdef" f.Wire.payload
  | Ok None -> Alcotest.fail "frame still incomplete"
  | Error m -> Alcotest.fail m

let test_wire_oversized_and_zero () =
  let reject prefix name =
    let dec = Wire.Decoder.create () in
    Wire.Decoder.feed dec prefix;
    (match Wire.Decoder.next dec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": expected a decode error"));
    (* poisoned: even a well-formed frame afterwards stays an error *)
    Wire.Decoder.feed dec (Wire.encode (frame 'h' "x"));
    match Wire.Decoder.next dec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": decoder recovered from poison")
  in
  let be32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 v;
    Bytes.to_string b
  in
  reject (be32 (Int32.of_int (Wire.max_frame_bytes + 1))) "oversized";
  reject (be32 0l) "zero length";
  (* a length prefix with the top bit set must error, not wrap around *)
  reject (be32 0x80000001l) "negative length"

let test_wire_fuzz () =
  (* deterministic garbage: the decoder must return Ok/Error, never
     raise, whatever bytes arrive in whatever chunking *)
  let state = ref 0x2545F4914F6CDD1D in
  let next_byte () =
    state := (!state * 25214903917) + 11;
    Char.chr (!state lsr 33 land 0xFF)
  in
  for _round = 1 to 50 do
    let dec = Wire.Decoder.create () in
    let budget = ref 2000 in
    (try
       while !budget > 0 do
         let len = 1 + (Char.code (next_byte ()) mod 64) in
         let chunk = String.init len (fun _ -> next_byte ()) in
         budget := !budget - len;
         Wire.Decoder.feed dec chunk;
         match drain dec with Ok _ | Error _ -> ()
       done
     with e -> Alcotest.failf "decoder raised on garbage: %s" (Printexc.to_string e))
  done

let test_wire_validation () =
  raises_invalid "oversized encode" (fun () ->
      Wire.encode (frame 'x' (String.make (Wire.max_frame_bytes + 1) 'a')))

(* ---- codec ---- *)

let fixture_spec =
  Spec.v ~name:"dist-test" ~protocol:"fig3" ~f:[ 1; 2 ] ~t:[ Some 1 ] ~n:[ 3 ]
    ~rates:[ 0.3; 0.6 ] ~trials:10 ~seed:0xD15CL ()

let fixture_record =
  let cells = Grid.cells fixture_spec in
  {
    Journal.trial = 17;
    cell = cells.(17 / fixture_spec.Spec.trials);
    seed = 0xABCDEFL;
    ok = false;
    outcome = Journal.Violation;
    retries = 1;
    violations = [ "consistency: divergent decide" ];
    steps = 41;
    max_steps = 17;
    stage = 3;
    faults = 2;
    crash_faults = 0;
    wall_us = 180;
    witness = Some [| 1; 0; 2 |];
  }

let all_msgs =
  [
    Codec.Hello { version = Wire.version; name = "w1"; domains = 4; last_epoch = 0 };
    Codec.Hello { version = Wire.version; name = "w2"; domains = 1; last_epoch = 3 };
    Codec.Welcome
      {
        version = Wire.version;
        epoch = 1;
        spec = fixture_spec;
        supervision =
          {
            Codec.deadline_s = Some 2.5;
            max_retries = 3;
            quarantine_after = 5;
            adaptive_deadline = true;
          };
        hb_interval_s = 2.0;
      };
    Codec.Welcome
      {
        version = Wire.version;
        epoch = 4;
        spec = fixture_spec;
        supervision = Codec.no_supervision;
        hb_interval_s = 0.5;
      };
    Codec.Request;
    Codec.Lease { lease = 7; epoch = 2; lo = 100; hi = 200; done_ids = [ 101; 150; 199 ] };
    Codec.Lease { lease = 0; epoch = 1; lo = 0; hi = 50; done_ids = [] };
    Codec.Result fixture_record;
    Codec.Complete { lease = 7; epoch = 2 };
    Codec.heartbeat;
    Codec.Heartbeat
      {
        snapshot = Some (Json.Obj [ ("counters", Json.Obj [ ("x", Json.Int 3) ]) ]);
        spans = Some (Json.List [ Json.Obj [ ("name", Json.Str "t") ] ]);
      };
    Codec.Wait { seconds = 0.25 };
    Codec.Bye { reason = "campaign complete" };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun msg ->
      let f = Codec.to_frame msg in
      match Codec.of_frame f with
      | Error m -> Alcotest.failf "%a: %s" Codec.pp msg m
      | Ok msg' ->
          check Alcotest.bool (Fmt.str "%a round-trips" Codec.pp msg) true (msg = msg'))
    all_msgs

let test_codec_rejects_garbage () =
  (match Codec.of_frame (frame '?' "{}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted");
  (match Codec.of_frame (frame 'h' "not json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed payload accepted");
  (match Codec.of_frame (frame 'l' "{\"lease\":1}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lease without bounds accepted");
  (* fuzz: random tags and payloads error, never raise *)
  let state = ref 0x9E3779B9 in
  let next () =
    state := (!state * 25214903917) + 11;
    !state lsr 33
  in
  for _ = 1 to 500 do
    let tag = Char.chr (next () land 0xFF) in
    let payload = String.init (next () mod 40) (fun _ -> Char.chr (next () land 0xFF)) in
    try ignore (Codec.of_frame (frame tag payload))
    with e -> Alcotest.failf "codec raised: %s" (Printexc.to_string e)
  done

(* A Result payload is the journal line, byte for byte; and a payload
   whose trial id is an out-of-range float must not decode as trial 0
   (which the coordinator would journal if trial 0 were still open). *)
let test_codec_result_payload () =
  let f = Codec.to_frame (Codec.Result fixture_record) in
  check Alcotest.string "payload is the journal line" (Journal.to_line fixture_record)
    f.Wire.payload;
  let with_trial v =
    let fields =
      match Journal.to_json fixture_record with Json.Obj fs -> fs | _ -> Alcotest.fail "not an object"
    in
    frame 'R'
      (Json.to_string
         (Json.Obj (List.map (function "trial", _ -> ("trial", v) | kv -> kv) fields)))
  in
  (match Codec.of_frame (with_trial (Json.Int 3)) with
  | Ok (Codec.Result r) -> check Alcotest.int "in-range trial" 3 r.Journal.trial
  | Ok m -> Alcotest.failf "decoded as %a" Codec.pp m
  | Error m -> Alcotest.fail m);
  List.iter
    (fun v ->
      match Codec.of_frame (with_trial (Json.Float v)) with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "trial %g decoded as %a" v Codec.pp m)
    [ 1e300; -1e300; 0x1p62; 1e19 ]

(* ---- transport endpoints ---- *)

let test_endpoint_parse () =
  (match Transport.endpoint_of_string "unix:/tmp/x.sock" with
  | Ok (Transport.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix endpoint");
  (match Transport.endpoint_of_string "tcp:localhost:9000" with
  | Ok (Transport.Tcp ("localhost", 9000)) -> ()
  | _ -> Alcotest.fail "tcp endpoint");
  (match Transport.endpoint_of_string "tcp:[::1]:9000" with
  | Ok (Transport.Tcp ("::1", 9000)) -> ()
  | _ -> Alcotest.fail "bracketed IPv6 endpoint");
  (match Transport.endpoint_of_string "tcp:[fe80::1%eth0]:80" with
  | Ok (Transport.Tcp ("fe80::1%eth0", 80)) -> ()
  | _ -> Alcotest.fail "scoped IPv6 endpoint");
  List.iter
    (fun s ->
      match Transport.endpoint_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "tcp:nohost";
      "tcp:host:notaport";
      "ftp:x";
      "";
      "unix:";
      "tcp::9000" (* empty host *);
      "tcp:host:" (* empty port *);
      "tcp:host:0";
      "tcp:host:65536";
      "tcp:host:0x50" (* int_of_string would take this *);
      "tcp:host:-1";
      "tcp:::1:9000" (* unbracketed IPv6 is ambiguous *);
      "tcp:[::1:9000" (* unclosed bracket *);
    ];
  (* the error message names the offending piece, not a generic parse
     failure *)
  let mentions needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Transport.endpoint_of_string "tcp::9000" with
  | Error e ->
      check Alcotest.bool "empty-host error says host" true (mentions "host" e)
  | Ok _ -> Alcotest.fail "accepted empty host");
  (match Transport.endpoint_of_string "tcp:host:70000" with
  | Error e ->
      check Alcotest.bool "range error says range" true (mentions "range" e)
  | Ok _ -> Alcotest.fail "accepted port 70000")

let test_endpoint_round_trip () =
  List.iter
    (fun s ->
      match Transport.endpoint_of_string s with
      | Ok e ->
          check Alcotest.string (Fmt.str "round-trip %s" s) s
            (Transport.endpoint_to_string e)
      | Error err -> Alcotest.failf "%s: %s" s err)
    [ "unix:/tmp/x.sock"; "tcp:localhost:9000"; "tcp:[::1]:9000"; "tcp:10.0.0.1:1" ];
  (* to_string re-brackets a colonful host so its output re-parses *)
  let e = Transport.Tcp ("::1", 4242) in
  let s = Transport.endpoint_to_string e in
  check Alcotest.string "v6 re-bracketed" "tcp:[::1]:4242" s;
  match Transport.endpoint_of_string s with
  | Ok e' -> check Alcotest.bool "reparses to same endpoint" true (e = e')
  | Error err -> Alcotest.fail err

(* ---- lease table (fake clock) ---- *)

let fake_clock start =
  let v = Ffault_runtime.Clock.Virtual.create ~start_ns:start () in
  (Ffault_runtime.Clock.Virtual.clock v, fun d -> Ffault_runtime.Clock.Virtual.advance v ~ns:d)

let test_lease_grant_expire_regrant () =
  let clock, advance = fake_clock 0 in
  let tbl = Lease.create ~clock ~total:100 ~lease_trials:40 ~timeout_ns:1_000 () in
  check Alcotest.int "shards" 3 (Lease.n_shards tbl);
  let l0 =
    match Lease.grant tbl ~owner:"a" with Some l -> l | None -> Alcotest.fail "grant"
  in
  check Alcotest.int "lo" 0 l0.Lease.lo;
  check Alcotest.int "hi" 40 l0.Lease.hi;
  (* last shard is the stub *)
  let _ = Lease.grant tbl ~owner:"a" in
  let l2 =
    match Lease.grant tbl ~owner:"b" with Some l -> l | None -> Alcotest.fail "grant 3"
  in
  check Alcotest.int "stub hi" 100 l2.Lease.hi;
  check Alcotest.bool "all leased" true (Lease.grant tbl ~owner:"c" = None);
  (* b stays chatty, a goes silent past the timeout *)
  advance 900;
  Lease.renew tbl ~owner:"b";
  advance 200;
  let expired = Lease.expire tbl in
  check Alcotest.int "a's two leases expired" 2 (List.length expired);
  check Alcotest.bool "attributed to a" true
    (List.for_all (fun (o, _) -> o = "a") expired);
  (* both shards are grantable again, under fresh lease ids *)
  let regrants =
    List.filter_map (fun owner -> Lease.grant tbl ~owner) [ "c"; "c" ]
  in
  check Alcotest.int "both shards regranted" 2 (List.length regrants);
  let shards l = List.sort compare (List.map (fun x -> x.Lease.shard) l) in
  check
    Alcotest.(list int)
    "same shards come back"
    (shards (List.map snd expired))
    (shards regrants);
  List.iter
    (fun l -> check Alcotest.bool "fresh id" true (l.Lease.id > l2.Lease.id))
    regrants;
  (* the zombie's old lease id no longer completes anything *)
  check Alcotest.bool "stale complete unknown" true
    (Lease.complete tbl ~id:l0.Lease.id = `Unknown);
  check Alcotest.int "expired counter" 2 (Lease.expired_total tbl)

let test_lease_complete_and_done () =
  let clock, _advance = fake_clock 0 in
  let tbl = Lease.create ~clock ~total:20 ~lease_trials:10 ~timeout_ns:1_000 () in
  let take owner =
    match Lease.grant tbl ~owner with Some l -> l | None -> Alcotest.fail "grant"
  in
  let a = take "a" and b = take "b" in
  check Alcotest.bool "not done" false (Lease.is_done tbl);
  (match Lease.complete tbl ~id:a.Lease.id with
  | `Completed l -> check Alcotest.int "completed a" a.Lease.id l.Lease.id
  | `Unknown -> Alcotest.fail "live lease unknown");
  (* a revoked lease requeues without retiring *)
  (match Lease.revoke tbl ~id:b.Lease.id with
  | Some _ -> ()
  | None -> Alcotest.fail "revoke");
  check Alcotest.int "one pending again" 1 (Lease.pending tbl);
  let b' = take "c" in
  check Alcotest.int "same shard back" b.Lease.shard b'.Lease.shard;
  (match Lease.complete tbl ~id:b'.Lease.id with
  | `Completed _ -> ()
  | `Unknown -> Alcotest.fail "re-lease unknown");
  check Alcotest.bool "done" true (Lease.is_done tbl);
  check Alcotest.bool "nothing to grant" true (Lease.grant tbl ~owner:"d" = None);
  check Alcotest.int "granted" 3 (Lease.granted_total tbl);
  check Alcotest.int "completed" 2 (Lease.completed_total tbl)

let test_lease_fail_owner () =
  let clock, _ = fake_clock 0 in
  let tbl = Lease.create ~clock ~total:30 ~lease_trials:10 ~timeout_ns:1_000 () in
  let _ = Lease.grant tbl ~owner:"a" in
  let _ = Lease.grant tbl ~owner:"b" in
  let _ = Lease.grant tbl ~owner:"a" in
  let lost = Lease.fail tbl ~owner:"a" in
  check Alcotest.int "a lost both" 2 (List.length lost);
  check Alcotest.int "b unaffected" 1 (Lease.outstanding tbl);
  check Alcotest.int "both requeued" 2 (Lease.pending tbl)

let test_lease_validation () =
  raises_invalid "total" (fun () ->
      Lease.create ~total:(-1) ~lease_trials:1 ~timeout_ns:1 ());
  raises_invalid "lease_trials" (fun () ->
      Lease.create ~total:1 ~lease_trials:0 ~timeout_ns:1 ());
  raises_invalid "timeout" (fun () ->
      Lease.create ~total:1 ~lease_trials:1 ~timeout_ns:0 ())

(* ---- coordinator config ---- *)

(* ---- engine-level: reconnect backoff, crash recovery, fencing ---- *)

module Core = Dist.Core
module Retry = Ffault_supervise.Retry

let test_reconnect_backoff_schedule () =
  (* the worker's reconnect schedule is a pure function of (policy,
     seed, attempt) — no clock, no sleeping, fully checkable *)
  let p = Dist.Worker.default_retry in
  check Alcotest.int "bounded attempts" 8 p.Retry.max_retries;
  let schedule seed =
    List.init p.Retry.max_retries (fun i -> Retry.backoff_ns p ~seed ~attempt:(i + 1))
  in
  let a = schedule 0xABCL in
  check (Alcotest.list Alcotest.int) "deterministic" a (schedule 0xABCL);
  (* exponential nominal with 0.5x..1.5x jitter, capped *)
  List.iteri
    (fun i ns ->
      let nominal = min (p.Retry.base_backoff_ns lsl i) p.Retry.max_backoff_ns in
      check Alcotest.bool (Fmt.str "attempt %d above half nominal" (i + 1)) true
        (ns >= nominal / 2);
      check Alcotest.bool (Fmt.str "attempt %d under cap" (i + 1)) true
        (ns <= p.Retry.max_backoff_ns * 3 / 2))
    a;
  (* two workers (different seeds) never share a thundering herd *)
  check Alcotest.bool "seeds shear the schedule" true (a <> schedule 0xDEFL)

let fake_io : string Core.io =
  {
    Core.peer = (fun name -> "fake://" ^ name);
    send = (fun _ _ -> Ok ());
    close = (fun _ -> ());
  }

let record_for spec trial =
  let cells = Grid.cells spec in
  {
    Journal.trial;
    cell = cells.(trial / spec.Spec.trials);
    seed = 0L;
    ok = true;
    outcome = Journal.Pass;
    retries = 0;
    violations = [];
    steps = 1;
    max_steps = 1;
    stage = -1;
    faults = 0;
    crash_faults = 0;
    wall_us = 1;
    witness = None;
  }

(* The serve --resume recovery sequence, against a journal whose last
   line was torn mid-append by the dying incarnation: claim a fresh
   epoch from owner.json, rebuild the mask from the intact lines, and
   re-grant only what the journal cannot prove done. *)
let test_restart_recovers_torn_journal () =
  let root = tmp_root () in
  let spec = Spec.v ~name:"torn" ~protocol:"fig1" ~trials:48 () in
  let total = Grid.total_trials spec in
  let dir = Checkpoint.campaign_dir ~root spec in
  Checkpoint.save_manifest ~dir spec;
  let path = Checkpoint.journal_path ~dir in
  let writer = Journal.create_writer ~path in
  for t = 0 to 19 do
    Journal.append writer (record_for spec t)
  done;
  Journal.close_writer writer;
  (* the crash tore the 21st record mid-line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"trial\":20,\"cel";
  close_out oc;
  (* incarnations fence by claiming strictly increasing epochs *)
  check Alcotest.int "first claim" 1 (Checkpoint.claim_ownership ~dir);
  let epoch = Checkpoint.claim_ownership ~dir in
  check Alcotest.int "second claim" 2 epoch;
  check Alcotest.int "persisted" 2 (Checkpoint.load_epoch ~dir);
  let st = Checkpoint.fresh ~total in
  Journal.fold ~path ~init:() ~f:(fun () r ->
      if not (Checkpoint.is_done st r.Journal.trial) then
        Checkpoint.mark st r.Journal.trial ~ok:r.Journal.ok);
  let events = ref [] in
  let core =
    Core.create ~epoch ~io:fake_io
      ~append:(fun _ -> ())
      ~on_event:(fun e -> events := e :: !events)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let v = Core.view core in
  check Alcotest.int "epoch" 2 v.Core.vw_epoch;
  check Alcotest.int "restarts" 1 v.Core.vw_restarts;
  check Alcotest.int "torn line dropped, 20 done" 20 v.Core.vw_done;
  check Alcotest.bool "recovery pre-retired the complete shard" true
    (List.exists
       (fun e -> e = "recovery: 1 of 3 shard(s) already complete in the journal")
       !events);
  (* the first grant is the partial shard, done ids included *)
  let sent = ref [] in
  let io = { fake_io with Core.send = (fun _ m -> sent := m :: !sent; Ok ()) } in
  let core =
    Core.create ~epoch ~io
      ~append:(fun _ -> ())
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let cl = Core.add_client core "w9" in
  Core.deliver core cl
    (Codec.to_frame
       (Codec.Hello { version = Wire.version; name = "w9"; domains = 1; last_epoch = 1 }));
  Core.deliver core cl (Codec.to_frame Codec.Request);
  (match !sent with
  | Codec.Lease { lease = _; epoch = e; lo; hi; done_ids } :: _ ->
      check Alcotest.int "grant carries the new epoch" 2 e;
      check Alcotest.int "partial shard lo" 16 lo;
      check Alcotest.int "partial shard hi" 32 hi;
      check (Alcotest.list Alcotest.int) "done ids from the journal"
        [ 16; 17; 18; 19 ] done_ids
  | ms ->
      Alcotest.failf "expected a Lease reply, got %d other message(s)" (List.length ms))

(* Epoch fencing at the engine: a Complete stamped with a dead
   incarnation's grant epoch must not retire the live lease that
   happens to reuse the id — but the same worker's Results are still
   dedup-accepted by trial id. *)
let test_stale_complete_fenced_results_deduped () =
  let spec = Spec.v ~name:"fence" ~protocol:"fig1" ~trials:32 () in
  let total = Grid.total_trials spec in
  let st = Checkpoint.fresh ~total in
  let appended = ref 0 in
  let events = ref [] in
  let core =
    Core.create ~epoch:2 ~io:fake_io
      ~append:(fun _ -> incr appended)
      ~on_event:(fun e -> events := e :: !events)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let join name =
    let cl = Core.add_client core name in
    Core.deliver core cl
      (Codec.to_frame
         (Codec.Hello { version = Wire.version; name; domains = 1; last_epoch = 1 }));
    Core.deliver core cl (Codec.to_frame Codec.Request);
    cl
  in
  let _a = join "w-a" (* granted lease #0 [0,16) *) in
  let b = join "w-b" (* granted lease #1 [16,32) *) in
  let result t = Codec.to_frame (Codec.Result (record_for spec t)) in
  Core.deliver core b (result 16);
  Core.deliver core b (result 17);
  check Alcotest.int "results journaled" 2 !appended;
  (* w-b claims epoch-1 lease #0 complete — the id collides with w-a's
     live lease, the epoch gives the staleness away *)
  Core.deliver core b (Codec.to_frame (Codec.Complete { lease = 0; epoch = 1 }));
  let v = Core.view core in
  check Alcotest.int "fenced" 1 v.Core.vw_stale_completes;
  check Alcotest.bool "fence event" true
    (List.exists
       (fun e -> e = "complete #0 fenced: grant epoch 1, coordinator epoch 2 (from w-b)")
       !events);
  (* w-a's colliding lease survives; w-b's own lease was reconciled
     from the journal — 14 trials unjournaled, so requeued *)
  check Alcotest.int "victim lease still outstanding" 1 v.Core.vw_leases_outstanding;
  let wb = List.find (fun w -> w.Core.v_name = "w-b") v.Core.vw_workers in
  check Alcotest.int "w-b lease requeued by reconcile" 1 wb.Core.v_expired;
  (* a replayed Result for an already-journaled trial is deduped *)
  Core.deliver core b (result 16);
  check Alcotest.int "no double append" 2 !appended;
  let v = Core.view core in
  let wb = List.find (fun w -> w.Core.v_name = "w-b") v.Core.vw_workers in
  check Alcotest.int "dedup counted" 1 wb.Core.v_deduped;
  (* the requeued shard travels again, minus the journaled ids *)
  Core.deliver core b (Codec.to_frame Codec.Request);
  let v = Core.view core in
  check Alcotest.int "requeued shard re-granted" 2 v.Core.vw_leases_outstanding

let test_coordinator_config_validation () =
  let ep = Transport.Unix_sock "/tmp/x.sock" in
  raises_invalid "lease_trials" (fun () -> Dist.Coordinator.config ~lease_trials:0 ep);
  raises_invalid "lease_timeout" (fun () ->
      Dist.Coordinator.config ~lease_timeout_s:0.0 ep);
  raises_invalid "hb under timeout" (fun () ->
      Dist.Coordinator.config ~lease_timeout_s:1.0 ~hb_interval_s:1.0 ep);
  raises_invalid "max_workers" (fun () -> Dist.Coordinator.config ~max_workers:0 ep)

(* ---- end-to-end over a Unix socket ---- *)

(* One coordinator thread, one in-process worker, a real socket. The
   resume path is exercised by pre-journaling a prefix of the grid: the
   re-leases must carry those ids as done and the worker must skip them
   — exactly-once, counted three ways (journal lines, unique trial ids,
   skip accounting). *)
let test_serve_exactly_once () =
  let root = tmp_root () in
  let sock = Filename.concat root "coord.sock" in
  let spec =
    Spec.v ~name:"dist-e2e" ~protocol:"fig3" ~f:[ 1 ] ~t:[ Some 1 ] ~n:[ 3 ]
      ~rates:[ 0.3; 0.6 ] ~trials:60 ~seed:0xE2EL ()
  in
  let total = Grid.total_trials spec in
  (* pre-journal the first 25 trials, as a killed run would leave them *)
  let dir = Checkpoint.campaign_dir ~root spec in
  Checkpoint.save_manifest ~dir spec;
  let writer = Journal.create_writer ~path:(Checkpoint.journal_path ~dir) in
  let cells = Grid.cells spec in
  let pre = 25 in
  for trial = 0 to pre - 1 do
    Journal.append writer
      {
        Journal.trial;
        cell = cells.(trial / spec.Spec.trials);
        seed = 0L;
        ok = true;
        outcome = Journal.Pass;
        retries = 0;
        violations = [];
        steps = 1;
        max_steps = 1;
        stage = -1;
        faults = 0;
        crash_faults = 0;
        wall_us = 1;
        witness = None;
      }
  done;
  Journal.close_writer writer;
  let cfg =
    Dist.Coordinator.config ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      (Transport.Unix_sock sock)
  in
  let skips = Atomic.make 0 in
  let serve_result = ref (Error "never ran") in
  let coordinator =
    Thread.create
      (fun () ->
        serve_result :=
          Dist.Coordinator.serve ~resume:true
            ~on_skip:(fun () -> Atomic.incr skips)
            ~root cfg spec)
      ()
  in
  (* wait for the socket to exist before connecting *)
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "coordinator never listened"
    else begin
      Thread.delay 0.05;
      await (n - 1)
    end
  in
  await 100;
  let worker =
    match
      Dist.Worker.run (Dist.Worker.config ~name:"w-test" ~domains:2 (Transport.Unix_sock sock))
    with
    | Ok s -> s
    | Error m -> Alcotest.failf "worker: %s" m
  in
  Thread.join coordinator;
  match !serve_result with
  | Error m -> Alcotest.failf "serve: %s" m
  | Ok summary ->
      check Alcotest.int "journal complete"
        total
        (Journal.count ~path:(Checkpoint.journal_path ~dir));
      let ids = Hashtbl.create total in
      Journal.fold
        ~path:(Checkpoint.journal_path ~dir)
        ~init:()
        ~f:(fun () r -> Hashtbl.replace ids r.Journal.trial ());
      check Alcotest.int "every id exactly once" total (Hashtbl.length ids);
      check Alcotest.int "skips = pre-journaled" pre (Atomic.get skips);
      check Alcotest.int "pool accounting" total
        (summary.Dist.Coordinator.pool.Campaign.Pool.executed
        + summary.Dist.Coordinator.pool.Campaign.Pool.skipped);
      check Alcotest.int "worker ran the rest" (total - pre)
        worker.Dist.Worker.trials_run;
      (* recovery pre-retires the fully-journaled shards, so only the
         partially-done shard's ids travel as done_ids *)
      check Alcotest.int "worker skipped the done ids in live shards" (pre mod 16)
        worker.Dist.Worker.trials_skipped;
      check Alcotest.bool "no expired leases" true
        (summary.Dist.Coordinator.leases_expired = 0);
      (* workers.json landed and names the worker *)
      (match Campaign.Report.of_dir ~dir with
      | Error m -> Alcotest.fail m
      | Ok report -> (
          match report.Campaign.Report.workers with
          | None -> Alcotest.fail "no workers.json in report"
          | Some w ->
              let md = Campaign.Report.to_markdown report in
              check Alcotest.bool "markdown has Workers section" true
                (let sub = "## Workers" in
                 let rec find i =
                   i + String.length sub <= String.length md
                   && (String.sub md i (String.length sub) = sub || find (i + 1))
                 in
                 find 0);
              check Alcotest.bool "workers json is an object" true
                (match w with Campaign.Json.Obj _ -> true | _ -> false)))

(* ---- worker core: the one worker state machine, on a fake clock ---- *)

module Wcore = Dist.Worker_core

(* Actions rendered for comparison; notes and warnings are prose and
   left out. A trailing "?" in an expected line matches any suffix (the
   jittered backoff delays). *)
let show_action now = function
  | Wcore.Connect -> Some "connect"
  | Wcore.Send (Codec.Hello { last_epoch; _ }) -> Some (Fmt.str "hello last_epoch=%d" last_epoch)
  | Wcore.Send Codec.Request -> Some "request"
  | Wcore.Send (Codec.Result r) -> Some (Fmt.str "result %d" r.Journal.trial)
  | Wcore.Send (Codec.Complete { lease; epoch }) -> Some (Fmt.str "complete #%d@%d" lease epoch)
  | Wcore.Send m -> Some (Fmt.str "send %a" Codec.pp m)
  | Wcore.Beat -> Some "beat"
  | Wcore.Close -> Some "close"
  | Wcore.Arm (Wcore.Heartbeat, at) -> Some (Fmt.str "beat in %dms" ((at - now) / 1_000_000))
  | Wcore.Arm (Wcore.Wake, at) -> Some (Fmt.str "wake in %dms" ((at - now) / 1_000_000))
  | Wcore.Run { lease; _ } -> Some (Fmt.str "run #%d" lease.Wcore.id)
  | Wcore.Note _ | Wcore.Warn _ -> None
  | Wcore.Stop (Ok why) -> Some ("stop ok: " ^ why)
  | Wcore.Stop (Error e) -> Some ("stop error: " ^ e)

let matches expected got =
  let n = String.length expected in
  if n > 0 && expected.[n - 1] = '?' then
    String.length got >= n - 1 && String.sub got 0 (n - 1) = String.sub expected 0 (n - 1)
  else expected = got

(* One script step: at this virtual time (ms), feed this event, expect
   exactly these actions. *)
type step = { at_ms : int; ev : Wcore.event; want : string list }

let ( @> ) (at_ms, ev) want = { at_ms; ev; want }

let run_script ?(retry = Retry.policy ~max_retries:3 ~base_backoff_ns:100_000_000 ()) name
    steps =
  let clock = Ffault_runtime.Clock.Virtual.create () in
  let core =
    Wcore.create ~clock:(Ffault_runtime.Clock.Virtual.clock clock) ~retry ~name:"w"
      ~domains:1
  in
  check (Alcotest.list Alcotest.string) (name ^ ": start") [ "connect" ]
    (List.filter_map (show_action 0) (Wcore.start core));
  List.iteri
    (fun i { at_ms; ev; want } ->
      Ffault_runtime.Clock.Virtual.set clock ~ns:(at_ms * 1_000_000);
      let now = at_ms * 1_000_000 in
      let got = List.filter_map (show_action now) (Wcore.handle core ev) in
      let label = Fmt.str "%s: step %d at %dms" name (i + 1) at_ms in
      if List.length got <> List.length want || not (List.for_all2 matches want got) then
        Alcotest.failf "%s:@ want [%s]@ got  [%s]" label (String.concat "; " want)
          (String.concat "; " got))
    steps;
  core

let welcome_msg ?(version = Wire.version) ?(epoch = 1) hb =
  Codec.Welcome
    { version; epoch; spec = fixture_spec; supervision = Codec.no_supervision;
      hb_interval_s = hb }

let welcome ?version ?epoch ?(hb = 0.5) () = Wcore.Msg (welcome_msg ?version ?epoch hb)

let grant ?(epoch = 1) ?(done_ids = []) id lo hi =
  Wcore.Msg (Codec.Lease { lease = id; epoch; lo; hi; done_ids })

let bye reason = Wcore.Msg (Codec.Bye { reason })
let record id = Wcore.Record { fixture_record with Journal.trial = id }

(* connect, hello, welcome (hb 0.5 s), request — at t = 0 *)
let joined =
  [
    (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
    (0, welcome ()) @> [ "beat"; "beat in 500ms"; "request"; "wake in 1000ms" ];
  ]

(* One case per behaviour the socket worker and the old netsim worker
   disagreed on, plus the replay and retry-cap rules. *)
let worker_core_cases =
  [
    ( "reply deadline: 2x the Welcome's heartbeat, then a lost session",
      [
        (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (0, welcome ~hb:0.05 ()) @> [ "beat"; "beat in 50ms"; "request"; "wake in 100ms" ];
        (50, Wcore.Timer Wcore.Heartbeat) @> [ "beat"; "beat in 50ms" ];
        (99, Wcore.Timer Wcore.Wake) @> [];
        (100, Wcore.Timer Wcore.Wake) @> [ "close"; "wake in ?" ];
        (100, Wcore.Timer Wcore.Heartbeat) @> [];
      ] );
    ( "reply deadline before any Welcome is 1 s",
      [
        (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (1000, Wcore.Timer Wcore.Wake) @> [ "close"; "wake in ?" ];
      ] );
    ( "Bye during a Wait backoff stops at once",
      joined
      @ [
          (10, Wcore.Msg (Codec.Wait { seconds = 1.0 })) @> [ "wake in 1000ms" ];
          (20, bye "campaign complete") @> [ "close"; "stop ok: campaign complete" ];
          (1010, Wcore.Timer Wcore.Wake) @> [];
        ] );
    ( "Wait backoff ends in a fresh request",
      joined
      @ [
          (10, Wcore.Msg (Codec.Wait { seconds = 0.25 })) @> [ "wake in 250ms" ];
          (260, Wcore.Timer Wcore.Wake) @> [ "request"; "wake in 1000ms" ];
        ] );
    ( "lost session backs off under Retry",
      joined
      @ [
          (10, Wcore.Closed "eof") @> [ "close"; "wake in ?" ];
          (10, Wcore.Connected) @> [];
          (500, Wcore.Timer Wcore.Wake) @> [ "connect" ];
          (500, Wcore.Connected) @> [ "hello last_epoch=1"; "wake in 1000ms" ];
        ] );
    ( "unexpected replies are ignored, the deadline keeps running",
      joined
      @ [
          (10, Wcore.Msg Codec.heartbeat) @> [];
          (20, welcome ()) @> [];
          (1000, Wcore.Timer Wcore.Wake) @> [ "close"; "wake in ?" ];
        ] );
    ( "unexpected message before the Welcome is ignored",
      [
        (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (10, Wcore.Msg Codec.Request) @> [];
        (20, welcome ()) @> [ "beat"; "beat in 500ms"; "request"; "wake in 1000ms" ];
      ] );
    ( "Bye in place of the Welcome: campaign complete is a clean stop",
      [
        (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (1, bye "campaign complete") @> [ "close"; "stop ok: campaign complete" ];
      ] );
    ( "Bye in place of the Welcome: anything else is a rejection",
      [
        (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (1, bye "version mismatch: coordinator speaks 9, you speak 3")
        @> [ "close"; "stop error: rejected: version mismatch: coordinator speaks 9, you speak 3" ];
      ] );
    ( "a Welcome in another wire version is fatal",
      [
        (0, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (1, welcome ~version:(Wire.version + 1) ()) @> [ "close"; "stop error: ?" ];
      ] );
    ( "connection lost mid-lease: finish, reconnect, replay under the grant epoch",
      joined
      @ [
          (10, grant 4 10 13) @> [ "run #4" ];
          (12, record 10) @> [ "result 10" ];
          (14, Wcore.Closed "eof") @> [ "close" ];
          (16, record 11) @> [];
          (18, record 12) @> [];
          (20, Wcore.Lease_done) @> [ "close"; "wake in ?" ];
          (500, Wcore.Timer Wcore.Wake) @> [ "connect" ];
          (500, Wcore.Connected) @> [ "hello last_epoch=1"; "wake in 1000ms" ];
          (501, welcome ~epoch:2 ())
          @> [
               "beat"; "beat in 500ms"; "result 10"; "result 11"; "result 12"; "beat";
               "complete #4@1"; "request"; "wake in 1000ms";
             ];
          (502, grant ~epoch:2 0 20 22) @> [ "run #0" ];
        ] );
    ( "a Complete the coordinator never answered is replayed",
      joined
      @ [
          (10, grant ~done_ids:[ 11 ] 4 10 12) @> [ "run #4" ];
          (12, record 10) @> [ "result 10" ];
          (14, Wcore.Lease_done) @> [ "beat"; "complete #4@1"; "request"; "wake in 1000ms" ];
          (1014, Wcore.Timer Wcore.Wake) @> [ "close"; "wake in ?" ];
          (2000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
          (2000, Wcore.Connected) @> [ "hello last_epoch=1"; "wake in 1000ms" ];
          (2001, welcome ())
          @> [ "beat"; "beat in 500ms"; "result 10"; "beat"; "complete #4@1"; "request";
               "wake in 1000ms" ];
          (* the answer proves the Complete landed: nothing left to replay *)
          (2002, Wcore.Msg (Codec.Wait { seconds = 0.1 })) @> [ "wake in 100ms" ];
          (2003, Wcore.Closed "eof") @> [ "close"; "wake in ?" ];
          (3000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
          (3000, Wcore.Connected) @> [ "hello last_epoch=1"; "wake in 1000ms" ];
          (3001, welcome ()) @> [ "beat"; "beat in 500ms"; "request"; "wake in 1000ms" ];
        ] );
  ]

let test_worker_core_table () =
  List.iter (fun (name, steps) -> ignore (run_script name steps)) worker_core_cases

let test_worker_core_retry_cap () =
  (* two failures allowed: the third in a row stops the worker, and a
     Welcome in between resets the count *)
  let retry = Retry.policy ~max_retries:2 ~base_backoff_ns:100_000_000 () in
  ignore
    (run_script ~retry "cap reached"
       [
         (0, Wcore.Connect_failed "refused") @> [ "wake in ?" ];
         (1000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
         (1000, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
         (1001, Wcore.Closed "eof") @> [ "close"; "wake in ?" ];
         (2000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
         (2000, Wcore.Connect_failed "refused")
         @> [
              "close";
              "stop error: connect failed: refused (gave up after 3 consecutive failure(s))";
            ];
       ]);
  let core =
    run_script ~retry "cap reset by a Welcome"
      [
        (0, Wcore.Connect_failed "refused") @> [ "wake in ?" ];
        (1000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
        (1000, Wcore.Connect_failed "refused") @> [ "wake in ?" ];
        (2000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
        (2000, Wcore.Connected) @> [ "hello last_epoch=0"; "wake in 1000ms" ];
        (2001, welcome ()) @> [ "beat"; "beat in 500ms"; "request"; "wake in 1000ms" ];
        (2002, Wcore.Closed "eof") @> [ "close"; "wake in ?" ];
        (3000, Wcore.Timer Wcore.Wake) @> [ "connect" ];
        (3000, Wcore.Connect_failed "refused") @> [ "wake in ?" ];
      ]
  in
  check Alcotest.int "one lost session counted" 1 (Wcore.summary core).Wcore.reconnects

let test_worker_core_runs () =
  let runs = Wcore.runs { Wcore.id = 0; epoch = 1; lo = 10; hi = 15; done_ids = [ 11; 13; 99 ] } in
  check (Alcotest.list Alcotest.int) "[lo, hi) minus done_ids" [ 10; 12; 14 ]
    (List.filter runs (List.init 30 Fun.id))

(* ---- socket worker against a scripted coordinator ---- *)

(* Reads one message from [c] within [within] seconds; [None] on
   silence, EOF or a broken stream. *)
let reader c =
  let q = Queue.create () in
  fun ~within ->
    let deadline = Unix.gettimeofday () +. within in
    let rec go () =
      if not (Queue.is_empty q) then Some (Queue.pop q)
      else
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 || not (Transport.readable c ~timeout_s:left) then None
        else
          match Transport.recv_step c with
          | `Frames fs ->
              List.iter (fun f -> Result.iter (fun m -> Queue.push m q) (Codec.of_frame f)) fs;
              go ()
          | `Closed | `Error _ -> None
    in
    go ()

(* Serve [scripts] to successive connections on a fresh Unix socket
   while [Worker.run] talks to it, and return the worker's outcome with
   its wall time. Each script gets the connection and a reader; every
   wait in a script is bounded and the connection closes after it, so a
   worker that misbehaves fails its test instead of hanging it. *)
let against_fake_coordinator scripts =
  let sock = Filename.concat (tmp_root ()) "fake.sock" in
  let l =
    match Transport.listen (Transport.Unix_sock sock) with
    | Ok l -> l
    | Error e -> Alcotest.failf "listen: %s" e
  in
  let server =
    Thread.create
      (fun () ->
        List.iter
          (fun script ->
            match Unix.select [ Transport.listener_fd l ] [] [] 5.0 with
            | [], _, _ -> ()
            | _ -> (
                match Transport.accept l with
                | Error _ -> ()
                | Ok c ->
                    let recv = reader c in
                    script c recv;
                    Transport.close c))
          scripts;
        Transport.close_listener l)
      ()
  in
  let retry =
    Retry.policy ~max_retries:2 ~base_backoff_ns:10_000_000 ~max_backoff_ns:50_000_000 ()
  in
  let t0 = Unix.gettimeofday () in
  let r = Dist.Worker.run ~retry (Dist.Worker.config ~name:"w-fake" (Transport.Unix_sock sock)) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Thread.join server;
  (r, elapsed)

let send c m = ignore (Transport.send_msg c m)

(* the first message the worker sends that is not a heartbeat *)
let rec expect recv ~within what =
  match recv ~within with
  | Some (Codec.Heartbeat _) -> expect recv ~within what
  | Some m when what m -> true
  | Some _ | None -> false

let is_hello = function Codec.Hello _ -> true | _ -> false
let is_request = function Codec.Request -> true | _ -> false

(* drain until the worker hangs up or [within] seconds have passed *)
let until_eof recv ~within =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0.0 then match recv ~within:left with Some _ -> go () | None -> ()
  in
  go ()

let test_socket_reply_deadline () =
  (* the coordinator welcomes, then never answers the Request: the
     worker must give up after 2 x 0.05 s and reconnect *)
  let silent_at = ref 0.0 and second_hello = ref infinity in
  let r, _ =
    against_fake_coordinator
      [
        (fun c recv ->
          if expect recv ~within:2.0 is_hello then begin
            send c (welcome_msg 0.05);
            if expect recv ~within:2.0 is_request then begin
              silent_at := Unix.gettimeofday ();
              until_eof recv ~within:2.0
            end
          end);
        (fun c recv ->
          if expect recv ~within:2.0 is_hello then begin
            second_hello := Unix.gettimeofday ();
            send c (welcome_msg 0.05);
            if expect recv ~within:2.0 is_request then
              send c (Codec.Bye { reason = Codec.campaign_complete })
          end);
      ]
  in
  (match r with
  | Ok s -> check Alcotest.int "one lost session" 1 s.Dist.Worker.reconnects
  | Error e -> Alcotest.failf "worker: %s" e);
  check Alcotest.bool
    (Fmt.str "reconnected %.2fs after the request (deadline 0.1s)" (!second_hello -. !silent_at))
    true
    (!second_hello -. !silent_at < 1.0)

let test_socket_bye_during_wait () =
  let r, elapsed =
    against_fake_coordinator
      [
        (fun c recv ->
          if expect recv ~within:2.0 is_hello then begin
            send c (welcome_msg 0.5);
            if expect recv ~within:2.0 is_request then begin
              send c (Codec.Wait { seconds = 1.0 });
              send c (Codec.Bye { reason = Codec.campaign_complete });
              until_eof recv ~within:3.0
            end
          end);
      ]
  in
  (match r with
  | Ok s -> check Alcotest.string "stop reason" Codec.campaign_complete s.Dist.Worker.stop_reason
  | Error e -> Alcotest.failf "worker: %s" e);
  check Alcotest.bool (Fmt.str "stopped in %.2fs, inside the 1s Wait" elapsed) true (elapsed < 0.5)

let test_socket_bye_instead_of_welcome () =
  let bye_on_hello reason =
    against_fake_coordinator
      [
        (fun c recv ->
          if expect recv ~within:2.0 is_hello then send c (Codec.Bye { reason }));
      ]
    |> fst
  in
  (match bye_on_hello Codec.campaign_complete with
  | Ok s -> check Alcotest.int "no lease" 0 s.Dist.Worker.leases_run
  | Error e -> Alcotest.failf "joining a finished campaign is not an error: %s" e);
  match bye_on_hello "version mismatch: coordinator speaks 99, you speak 3" with
  | Ok _ -> Alcotest.fail "a version mismatch must be fatal"
  | Error e ->
      check Alcotest.bool ("names the mismatch: " ^ e) true
        (String.length e >= 9 && String.sub e 0 9 = "rejected:")

let suites =
  [
    ( "dist.wire",
      [
        Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "byte at a time" `Quick test_wire_byte_at_a_time;
        Alcotest.test_case "truncated" `Quick test_wire_truncated;
        Alcotest.test_case "oversized, zero, negative" `Quick test_wire_oversized_and_zero;
        Alcotest.test_case "garbage fuzz" `Quick test_wire_fuzz;
        Alcotest.test_case "validation" `Quick test_wire_validation;
      ] );
    ( "dist.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "result payload" `Quick test_codec_result_payload;
        Alcotest.test_case "endpoints" `Quick test_endpoint_parse;
        Alcotest.test_case "endpoint round-trip" `Quick test_endpoint_round_trip;
      ] );
    ( "dist.lease",
      [
        Alcotest.test_case "grant, expire, regrant" `Quick test_lease_grant_expire_regrant;
        Alcotest.test_case "complete and done" `Quick test_lease_complete_and_done;
        Alcotest.test_case "fail owner" `Quick test_lease_fail_owner;
        Alcotest.test_case "validation" `Quick test_lease_validation;
      ] );
    ( "dist.coordinator",
      [
        Alcotest.test_case "config validation" `Quick test_coordinator_config_validation;
        Alcotest.test_case "reconnect backoff schedule" `Quick
          test_reconnect_backoff_schedule;
        Alcotest.test_case "restart recovers a torn journal" `Quick
          test_restart_recovers_torn_journal;
        Alcotest.test_case "stale complete fenced, results deduped" `Quick
          test_stale_complete_fenced_results_deduped;
        Alcotest.test_case "exactly-once over a socket" `Quick test_serve_exactly_once;
      ] );
    ( "dist.worker",
      [
        Alcotest.test_case "core: one case per resolved drift" `Quick test_worker_core_table;
        Alcotest.test_case "core: retry cap reached and reset" `Quick
          test_worker_core_retry_cap;
        Alcotest.test_case "core: done-ids filter" `Quick test_worker_core_runs;
        Alcotest.test_case "socket: reply deadline reconnects" `Quick
          test_socket_reply_deadline;
        Alcotest.test_case "socket: Bye ends a Wait backoff" `Quick test_socket_bye_during_wait;
        Alcotest.test_case "socket: Bye in place of Welcome" `Quick
          test_socket_bye_instead_of_welcome;
      ] );
  ]
