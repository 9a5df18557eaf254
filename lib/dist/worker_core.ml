module Campaign = Ffault_campaign
module Journal = Campaign.Journal
module Clock = Ffault_runtime.Clock
module Retry = Ffault_supervise.Retry
module Metrics = Ffault_telemetry.Metrics

let m_leases = Metrics.counter "dist.worker_leases"
let m_trials = Metrics.counter "dist.worker_trials"
let m_reconnects = Metrics.counter "dist.reconnects"

type lease = { id : int; epoch : int; lo : int; hi : int; done_ids : int list }

let runs l =
  let done_tbl = Hashtbl.create (List.length l.done_ids * 2 + 1) in
  List.iter (fun id -> Hashtbl.replace done_tbl id ()) l.done_ids;
  fun id -> id >= l.lo && id < l.hi && not (Hashtbl.mem done_tbl id)

type timer = Heartbeat | Wake

type event =
  | Connected
  | Connect_failed of string
  | Msg of Codec.msg
  | Closed of string
  | Timer of timer
  | Record of Journal.record
  | Lease_done

type action =
  | Connect
  | Send of Codec.msg
  | Beat
  | Close
  | Arm of timer * int
  | Run of { lease : lease; spec : Campaign.Spec.t; supervision : Codec.supervision }
  | Note of string
  | Warn of string
  | Stop of (string, string) result

(* What [Wake] means depends on the phase: reconnect ([Backoff]), give
   up on a silent coordinator ([Joining], [Requesting]) or ask again
   ([Napping]). *)
type phase = Backoff | Connecting | Joining | Requesting | Napping | Running | Stopped

(* The lease in flight. Its records are kept until the coordinator
   answers the [Request] that follows its [Complete]: the stream is
   ordered, so only that answer proves the [Complete] arrived. A session
   lost before then replays the lot — records (deduped by trial id
   there) and the [Complete] under the grant epoch (fenced there if an
   incarnation has passed). Nothing is re-executed. *)
type inflight = {
  lease : lease;
  mutable records_rev : Journal.record list;
  mutable finished : bool;
}

type welcome = { spec : Campaign.Spec.t; supervision : Codec.supervision; hb_ns : int }

type summary = {
  leases_run : int;
  trials_run : int;
  trials_skipped : int;
  reconnects : int;
  stop_reason : string;
}

type t = {
  clock : Clock.t;
  retry : Retry.policy;
  name : string;
  domains : int;
  seed : int64;
  mutable phase : phase;
  mutable up : bool; (* a welcomed session is open *)
  mutable welcome : welcome option; (* the latest, kept across sessions *)
  mutable last_epoch : int; (* 0 before any Welcome *)
  mutable wake_at : int;
  mutable beat_at : int;
  mutable failures : int; (* consecutive, reset by a Welcome *)
  mutable inflight : inflight option;
  mutable summary : summary;
}

let create ~clock ~retry ~name ~domains =
  {
    clock;
    retry;
    name;
    domains;
    seed = Int64.of_int (Hashtbl.hash name);
    phase = Connecting;
    up = false;
    welcome = None;
    last_epoch = 0;
    wake_at = 0;
    beat_at = 0;
    failures = 0;
    inflight = None;
    summary =
      { leases_run = 0; trials_run = 0; trials_skipped = 0; reconnects = 0; stop_reason = "" };
  }

let summary t = t.summary

let now t = Clock.now_ns t.clock

(* A coordinator answers [Hello] and [Request] at once, so a reply two
   heartbeat intervals late is not coming. Before the first [Welcome]
   the interval is unknown: 1 s. *)
let deadline_ns t = match t.welcome with Some w -> 2 * w.hb_ns | None -> 1_000_000_000

let wake t ~ns =
  t.wake_at <- now t + ns;
  Arm (Wake, t.wake_at)

let stop t r =
  t.phase <- Stopped;
  t.up <- false;
  t.summary <- { t.summary with stop_reason = (match r with Ok s | Error s -> s) };
  [ Close; Stop r ]

let backoff t what why =
  t.failures <- t.failures + 1;
  if t.failures > t.retry.Retry.max_retries then
    stop t
      (Error (Fmt.str "%s: %s (gave up after %d consecutive failure(s))" what why t.failures))
  else begin
    let ns = Retry.backoff_ns t.retry ~seed:t.seed ~attempt:t.failures in
    t.phase <- Backoff;
    [
      Warn
        (Fmt.str "%s: %s — retry %d/%d in %.2fs" what why t.failures
           t.retry.Retry.max_retries
           (float_of_int ns /. 1e9));
      wake t ~ns;
    ]
  end

let lose t why =
  t.up <- false;
  t.summary <- { t.summary with reconnects = t.summary.reconnects + 1 };
  Metrics.incr m_reconnects;
  Close :: backoff t "connection lost" why

let request t =
  t.phase <- Requesting;
  [ Send Codec.Request; wake t ~ns:(deadline_ns t) ]

(* A flush beat precedes every [Complete]: the coordinator sees the
   lease's tail telemetry even if the campaign ends on this completion. *)
let complete (l : lease) = [ Beat; Send (Codec.Complete { lease = l.id; epoch = l.epoch }) ]

let resend t =
  match t.inflight with
  | None -> []
  | Some f ->
      Note
        (Fmt.str "resending lease #%d: %d record(s) and its completion" f.lease.id
           (List.length f.records_rev))
      :: List.rev_map (fun r -> Send (Codec.Result r)) f.records_rev
      @ complete f.lease

let welcomed t ~version ~epoch ~spec ~supervision ~hb_interval_s =
  if version <> Wire.version then
    stop t
      (Error
         (Fmt.str "version mismatch: coordinator speaks %d, we speak %d" version Wire.version))
  else begin
    let moved =
      if t.last_epoch > 0 && epoch <> t.last_epoch then
        [ Note (Fmt.str "coordinator is now epoch %d (was %d)" epoch t.last_epoch) ]
      else []
    in
    t.failures <- 0;
    t.last_epoch <- epoch;
    let hb_ns = max 1_000_000 (int_of_float (hb_interval_s *. 1e9)) in
    t.welcome <- Some { spec; supervision; hb_ns };
    t.up <- true;
    (* the first beat answers the Welcome, so the coordinator has this
       worker's telemetry from the join on; then one per interval *)
    t.beat_at <- now t + hb_ns;
    moved @ (Beat :: Arm (Heartbeat, t.beat_at) :: resend t) @ request t
  end

let run_lease t (l : lease) =
  match t.welcome with
  | None -> []
  | Some w ->
      t.phase <- Running;
      t.inflight <- Some { lease = l; records_rev = []; finished = false };
      [
        Note
          (Fmt.str "lease #%d [%d,%d): %d trial(s), %d already journaled" l.id l.lo l.hi
             (l.hi - l.lo) (List.length l.done_ids));
        Run { lease = l; spec = w.spec; supervision = w.supervision };
      ]

(* The answer to a [Request] proves the [Complete] before it arrived. *)
let answered t =
  match t.inflight with Some f when f.finished -> t.inflight <- None | _ -> ()

let on_msg t (msg : Codec.msg) =
  match (t.phase, msg) with
  | (Backoff | Connecting | Stopped), _ -> []
  | Joining, Codec.Welcome { version; epoch; spec; supervision; hb_interval_s } ->
      welcomed t ~version ~epoch ~spec ~supervision ~hb_interval_s
  | Joining, Codec.Bye { reason } when reason <> Codec.campaign_complete ->
      stop t (Error ("rejected: " ^ reason))
  | _, Codec.Bye { reason } ->
      Note ("coordinator: " ^ reason) :: stop t (Ok reason)
  | Requesting, Codec.Lease { lease; epoch; lo; hi; done_ids } ->
      answered t;
      run_lease t { id = lease; epoch; lo; hi; done_ids }
  | Requesting, Codec.Wait { seconds } ->
      answered t;
      t.phase <- Napping;
      [ wake t ~ns:(int_of_float (Float.max 0.01 seconds *. 1e9)) ]
  | _, m -> [ Note (Fmt.str "ignoring unexpected %a" Codec.pp m) ]

let start t =
  t.phase <- Connecting;
  [ Connect ]

let handle t ev =
  match (ev, t.phase) with
  | Connected, Connecting ->
      t.phase <- Joining;
      [
        Send
          (Codec.Hello
             {
               version = Wire.version;
               name = t.name;
               domains = t.domains;
               last_epoch = t.last_epoch;
             });
        wake t ~ns:(deadline_ns t);
      ]
  | Connect_failed why, Connecting -> backoff t "connect failed" why
  | Msg m, _ -> on_msg t m
  | Closed why, (Joining | Requesting | Napping) -> lose t why
  | Closed _, Running ->
      (* the lease runs on; [Lease_done] starts the reconnect *)
      t.up <- false;
      [ Close ]
  | Timer Wake, (Backoff | Joining | Requesting | Napping) when now t >= t.wake_at -> (
      match t.phase with
      | Backoff -> start t
      | Napping -> request t
      | _ -> lose t (Fmt.str "no reply within %.2fs" (float_of_int (deadline_ns t) /. 1e9)))
  | Timer Heartbeat, _ when t.up && now t >= t.beat_at -> (
      match t.welcome with
      | None -> []
      | Some w ->
          t.beat_at <- now t + w.hb_ns;
          [ Beat; Arm (Heartbeat, t.beat_at) ])
  | Record r, Running -> (
      match t.inflight with
      | None -> []
      | Some f ->
          t.summary <- { t.summary with trials_run = t.summary.trials_run + 1 };
          Metrics.incr m_trials;
          f.records_rev <- r :: f.records_rev;
          if t.up then [ Send (Codec.Result r) ] else [])
  | Lease_done, Running -> (
      match t.inflight with
      | None -> []
      | Some f ->
          f.finished <- true;
          t.summary <-
            {
              t.summary with
              leases_run = t.summary.leases_run + 1;
              trials_skipped = t.summary.trials_skipped + List.length f.lease.done_ids;
            };
          Metrics.incr m_leases;
          if t.up then complete f.lease @ request t else lose t "connection lost mid-lease")
  | (Connected | Connect_failed _ | Closed _ | Timer _ | Record _ | Lease_done), _ -> []
