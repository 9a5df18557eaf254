(** The worker state machine, independent of any transport.

    {!Worker.run} drives it over a socket with the monotonic clock and
    the real trial engine; netsim drives it over simulated connections
    with virtual time and synthetic trials. Both feed it {!event}s and
    carry out the {!action}s it returns, so one implementation of the
    session — connect backoff, [Hello]/[Welcome], lease requests, the
    reply deadline, heartbeats and the in-flight-lease replay — runs
    under both. Like {!Core} it is single-threaded by contract: the
    driver serializes every {!handle} call.

    {b Timers.} The core never sleeps. An [Arm (timer, at_ns)] asks the
    driver to feed [Timer timer] once the clock reaches [at_ns]; a later
    [Arm] of the same timer supersedes it. Stale firings are harmless:
    the core acts only if its own deadline for that timer has passed.

    {b Reply deadline.} Every [Hello] and [Request] must be answered
    within twice the [Welcome]'s heartbeat interval (1 s before the first
    [Welcome]). A silent coordinator — a half-open TCP connection, a
    crashed host, a dropped frame — counts as a lost session.

    {b Lost sessions.} A refused connect, an EOF, a stream error or an
    expired reply deadline each count as one failure; the worker
    reconnects under the seeded {!Ffault_supervise.Retry} backoff, and a
    [Welcome] resets the count. Failures beyond the policy's
    [max_retries] stop it with an error. A connection lost mid-lease
    does not interrupt the lease: its records are buffered and replayed,
    with the [Complete], to the next session.

    {b Stopping.} A [Bye] stops the worker cleanly at any point of a
    session — during a [Wait] backoff too. The one exception is a [Bye]
    in place of the [Welcome] for any reason but completion (a version
    mismatch, say): that is a rejection, and an error. Other unexpected
    but well-formed messages are ignored; the reply deadline keeps
    running. *)

module Campaign = Ffault_campaign

type lease = {
  id : int;
  epoch : int;  (** the grant's fencing token, echoed on [Complete] *)
  lo : int;
  hi : int;
  done_ids : int list;  (** already journaled: not to be run again *)
}

val runs : lease -> int -> bool
(** [runs l] is the lease's one done-ids filter: [true] for the trial
    ids in [\[lo, hi)] that are not in [done_ids]. Build it once per
    lease (the partial application holds the lookup table). *)

type timer = Heartbeat | Wake  (** [Wake]: backoff, reply deadline or [Wait] *)

type event =
  | Connected  (** the [Connect] succeeded *)
  | Connect_failed of string
  | Msg of Codec.msg
  | Closed of string  (** EOF, transport error or an undecodable frame *)
  | Timer of timer
  | Record of Campaign.Journal.record  (** the running lease produced one *)
  | Lease_done  (** the running lease has produced all its records *)

type action =
  | Connect  (** open a connection; answer with [Connected]/[Connect_failed] *)
  | Send of Codec.msg
  | Beat  (** send a [Heartbeat] carrying the driver's telemetry *)
  | Close  (** drop the connection, if any *)
  | Arm of timer * int  (** feed [Timer] once the clock reads this (ns) *)
  | Run of { lease : lease; spec : Campaign.Spec.t; supervision : Codec.supervision }
      (** execute [runs lease] trials: one [Record] each, then [Lease_done] *)
  | Note of string  (** a lease lifecycle message *)
  | Warn of string  (** connection trouble, with the scheduled retry *)
  | Stop of (string, string) result  (** the [Bye] reason, or the error *)

type t

type summary = {
  leases_run : int;
  trials_run : int;  (** records produced (excludes [done_ids] skips) *)
  trials_skipped : int;  (** [done_ids] on re-leases — already journaled *)
  reconnects : int;  (** sessions lost after the connection opened *)
  stop_reason : string;  (** the coordinator's [Bye] reason, or the error *)
}

val create :
  clock:Ffault_runtime.Clock.t ->
  retry:Ffault_supervise.Retry.policy ->
  name:string ->
  domains:int ->
  t
(** The backoff schedule is seeded by [name], so a fleet restarting
    against one coordinator does not thundering-herd. *)

val start : t -> action list
(** The first actions: connect. *)

val handle : t -> event -> action list

val summary : t -> summary
