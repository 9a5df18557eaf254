(** The distributed-campaign worker: [ffault worker].

    A worker owns no campaign state. It connects to a coordinator,
    introduces itself ([Hello]), learns the spec and supervision
    settings from the [Welcome], then loops: request a lease, run its
    trial range through the ordinary in-memory engine
    ({!Ffault_campaign.Pool.run_trials} — domains, deadlines, retries,
    quarantine and adaptive deadlines all behave exactly as in a local
    run), stream one [Result] frame per record, and send [Complete].
    [Wait] backs it off when every shard is leased; [Bye] ends it, also
    during that backoff.

    This module is the socket driver of {!Worker_core}, the one worker
    state machine; netsim drives the same core under virtual time. The
    session rules live there: the reply deadline (twice the [Welcome]'s
    heartbeat interval — a silent coordinator behind a half-open TCP
    connection is abandoned, not waited on forever), reconnection under
    a bounded {!Ffault_supervise.Retry} backoff seeded by the worker
    name, the re-[Hello] carrying the last coordinator epoch seen, and
    the replay of an in-flight lease. That replay re-sends the lease's
    records and its [Complete] under the original grant epoch — the
    coordinator dedups the records by trial id and fences a stale-epoch
    [Complete], so at most bookkeeping (never trials) is redone.

    Heartbeats follow the cadence the [Welcome] dictates, from a ticker
    thread while a lease runs. Each beat piggybacks this process's
    telemetry snapshot and — when {!Ffault_telemetry.Tracer} is enabled
    — the span events recorded since the last beat, so the coordinator
    can aggregate fleet-wide metrics and a cross-process trace without
    any extra connection. A flush beat precedes every [Complete].

    Workers are deliberately crash-oblivious: they journal nothing and
    resume nothing. If one dies mid-lease, the coordinator re-leases the
    shard with the journaled trial ids excluded — the exactly-once
    guarantee lives entirely on the coordinator side. *)

type config = {
  endpoint : Transport.endpoint;
  name : string;  (** identity shown in the coordinator's Workers report *)
  domains : int;  (** engine domains for each lease *)
  chunk : int;  (** work-stealing chunk, as in [Pool.run_trials] *)
}

val config : ?name:string -> ?domains:int -> ?chunk:int -> Transport.endpoint -> config
(** Default name [<hostname>-<pid>], 1 domain, chunk 64.
    @raise Invalid_argument if [domains < 1] or [chunk < 1]. *)

val default_retry : Ffault_supervise.Retry.policy
(** The default (re)connect backoff: 8 retries, 250 ms base, 5 s cap —
    sized to ride out a coordinator crash plus restart. *)

type summary = Worker_core.summary = {
  leases_run : int;
  trials_run : int;  (** records streamed (excludes [done_ids] skips) *)
  trials_skipped : int;  (** [done_ids] on re-leases — already journaled *)
  reconnects : int;  (** sessions lost after the connection opened *)
  stop_reason : string;  (** the coordinator's [Bye] reason, or the error *)
}

val run :
  ?on_event:(string -> unit) ->
  ?on_warn:(string -> unit) ->
  ?retry:Ffault_supervise.Retry.policy ->
  ?trace_path:string ->
  config ->
  (summary, string) result
(** Serve leases until the coordinator says [Bye] (normal completion,
    [Ok]), or until the connect/reconnect budget is exhausted or the
    coordinator rejects this worker ([Error]).
    [on_event] receives one-line lease lifecycle messages; [on_warn]
    receives connection-trouble messages (failed connects, lost
    sessions) with the scheduled retry. [retry] bounds the backoff
    schedule ({!default_retry} if omitted). [trace_path] additionally
    writes this worker's own spans as a standalone Chrome trace on exit
    (requires the tracer enabled to record anything). *)
