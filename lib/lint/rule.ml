type t = {
  name : string;
  severity : Finding.severity;
  summary : string;
  rationale : string;
  example : string;
}

let v ~rationale ~example name severity summary =
  { name; severity; summary; rationale; example }

(* The substantive rules, in the order they are documented. The
   [rationale] and [example] fields feed `ffault lint --explain RULE`;
   the summary feeds `--list-rules`. *)
let substantive =
  [
    v "raw-atomic" Finding.Error
      "raw Atomic CAS/exchange/set outside the faulty-CAS substrate silently disables \
       fault injection (the overriding fault of \xc2\xa73.3), invalidating E1\xe2\x80\x93E8"
      ~rationale:
        "Every CAS executed by protocol code must flow through \
         Ffault_runtime.Faulty_cas, because that wrapper is where the fault \
         injector lives: an overriding fault replaces the value a successful CAS \
         installs, a silent fault lies about the outcome. A raw \
         Atomic.compare_and_set (or exchange/set/fetch_and_add/incr/decr) \
         executes against the real primitive, so the experiment verifies a \
         protocol against a fault model it never actually faces. Reads \
         (Atomic.get) and allocation (Atomic.make) carry no fault semantics and \
         are fine. Identifiers are matched by resolved identity, so module A = \
         Atomic, open Atomic and an eta-reduced A.set are caught as well."
      ~example:
        "lib/consensus/protocol.ml:42:10: error raw-atomic: raw Atomic.set \
         bypasses the injectable faulty-CAS substrate; route the operation \
         through Ffault_runtime.Faulty_cas";
    v "nondeterminism" Finding.Error
      "wall clocks, Random and randomized hashing under the simulator break seeded \
       reproducibility, journal replay and campaign resume"
      ~rationale:
        "Everything under the simulator must be a pure function of the seed: \
         journal replay, campaign resume and the shrinker all re-execute trials \
         and require bit-identical outcomes. Wall-clock reads (Sys.time, \
         Unix.gettimeofday), the global Random state and randomized hashing \
         (Hashtbl.create ~random:true, Hashtbl.randomize) all vary across runs. \
         Seeded randomness comes from Ffault_prng, split per trial."
      ~example:
        "lib/sim/scheduler.ml:17:8: error nondeterminism: Random.int draws from \
         the global, seed-unstable PRNG; deterministic code must use Ffault_prng \
         (splittable, seeded per trial)";
    v "toplevel-mutable" Finding.Error
      "module-level mutable state in deterministic libraries leaks between campaign \
       trials that share a process"
      ~rationale:
        "A module-level ref/Hashtbl/Buffer/array is allocated once per process \
         and shared by every trial the process runs, so trial N's state leaks \
         into trial N+1 and outcomes depend on execution order — exactly what \
         the domain-count invariance of the pool forbids. Allocate per run and \
         pass it in; allocation inside a function or under lazy is fine."
      ~example:
        "lib/verify/checker.ml:3:12: error toplevel-mutable: module-level \
         Hashtbl.create creates mutable state shared across every trial in the \
         process; allocate it per run (pass it in)";
    v "io-in-lib" Finding.Error
      "direct stdout/stderr printing or exit in library code bypasses the telemetry \
       and report layers and corrupts machine-read output"
      ~rationale:
        "Library code that prints to the terminal (print_*, Printf.printf, \
         Fmt.pr, ...) or calls exit competes with the progress line, corrupts \
         JSON emitted on stdout for CI, and makes outcomes unobservable to the \
         report layer. Socket-level Unix syscalls are the same discipline one \
         level down: transport work belongs in the allowlisted dist driver \
         modules. Return data, print to a caller-supplied formatter, or go \
         through Ffault_telemetry."
      ~example:
        "lib/objects/vqueue.ml:88:2: error io-in-lib: print_endline performs \
         direct terminal IO/exit from library code; return data, or go through \
         Ffault_telemetry / the report layer";
    v "catch-all" Finding.Error
      "a wildcard exception handler can swallow fault-budget and cancellation \
       exceptions in pool/runner paths"
      ~rationale:
        "try ... with _ -> and match ... with exception _ -> swallow every \
         exception, including Budget.Exhausted and Cancel.Cancelled — the \
         control-flow exceptions the pool and runner use to stop work. A \
         swallowed cancellation turns a supervised timeout into a silent wrong \
         answer. Match the exceptions you mean to handle, or bind and re-raise \
         the rest."
      ~example:
        "lib/campaign/runner_glue.ml:61:29: error catch-all: wildcard exception \
         handler swallows every exception, including budget exhaustion and \
         cancellation; match the exceptions you mean to handle";
    v "mli-required" Finding.Error
      "every library module must commit to an interface: an .ml without its .mli \
       exposes internals the lint and the design cannot see"
      ~rationale:
        "An .ml without a committed .mli exposes every internal as public \
         surface: callers couple to representation details, and interface drift \
         is invisible in review. The check is filesystem-level — each lib/**.ml \
         must have a sibling .mli."
      ~example:
        "lib/stats/quantiles.ml:1:0: error mli-required: quantiles.ml has no \
         interface: add quantiles.mli so the module's surface is committed and \
         reviewable";
    v "obj-magic" Finding.Error
      "Obj.* defeats the type system; unsafe representation tricks need an explicit, \
       justified suppression"
      ~rationale:
        "Obj.magic and friends bypass the type system entirely; a wrong \
         assumption about representation is a memory-safety bug the compiler \
         can no longer catch. Sound tricks exist (the telemetry cache-padding \
         copy is one) but each must carry an in-source justified suppression so \
         the audit trail survives."
      ~example:
        "lib/telemetry/metrics.ml:30:14: error obj-magic: Obj.repr defeats the \
         type system; if the representation trick is sound, suppress with \
         [@@@ffault.lint.allow \"obj-magic\", \"why it is safe\"]";
    v "effect-discipline" Finding.Error
      "simulator effect handlers must run the full Step/Decide protocol: \
       Effect.Deep.try_with (no retc/exnc) lets a returning or raising process escape \
       the scheduler's status bookkeeping"
      ~rationale:
        "The simulator's scheduler tracks each process through its effect \
         handler: a Step effect yields, a return becomes Decided, a raise \
         becomes Crashed. Effect.Deep.try_with installs only an effect handler, \
         so a body that returns or raises unwinds straight through the \
         scheduler; a match_with whose exnc merely re-raises drops the crash \
         half. Every exit must land in the scheduler's status array."
      ~example:
        "lib/sim/engine.ml:102:4: error effect-discipline: Effect.Deep.try_with \
         installs only an effect handler: a body that returns or raises \
         bypasses the scheduler's Step/Decide bookkeeping";
    v "poly-compare-abstract" Finding.Error
      "structural =/compare/Hashtbl.hash/List.mem at a lib-owned semantic type \
       (Value.t, History.t) breaks the moment the type gains closures or mutable \
       internals"
      ~rationale:
        "Value.t and History.t own their comparison semantics (Value.equal is \
         the comparison the CAS primitive runs). Polymorphic =, <>, compare, \
         Hashtbl.hash and List.mem compare representations instead: they raise \
         on closures, diverge from the semantic order on mutable internals, and \
         silently change meaning when the type grows a constructor. The pass \
         sees the instantiated type of each occurrence, so the check \
         survives aliases and type inference; it also descends into type \
         parameters (Value.t list = Value.t list is still structural). Use the \
         module's own equal/compare/hash."
      ~example:
        "lib/verify/oracle.ml:54:20: error poly-compare-abstract: polymorphic = \
         instantiated at Value.t; use Value.equal/compare instead of structural \
         comparison";
    v "domain-unsafe-capture" Finding.Warning
      "a ref, mutable field or non-atomic array allocated outside a Domain.spawn \
       closure and mutated inside it is a cross-domain data race (error in lib/sim)"
      ~rationale:
        "A closure passed to Domain.spawn runs on another domain: mutating a \
         captured ref, mutable record field or non-atomic array from inside it \
         is unsynchronized cross-domain shared-memory access — a data race \
         under the OCaml memory model, and in the multicore experiments a way \
         to corrupt measurements without any fault being injected. Use Atomic, \
         keep the state domain-local, or pass results back through Domain.join. \
         Heuristic: the spawned closure is inspected whether written inline or \
         bound to a name first, and only mutations of identifiers bound outside \
         the closure are flagged. A warning \
         elsewhere, an error under lib/sim (where nothing may share mutable \
         state with the simulated execution)."
      ~example:
        "lib/experiments/mc_sweep.ml:33:28: warning domain-unsafe-capture: ref \
         'hits' is allocated outside this Domain.spawn closure and mutated \
         inside it; use Atomic, per-domain state, or Domain.join";
  ]

(* Meta rules: produced by the machinery itself, not subject to policy
   scoping (a broken suppression or a missing cmt is a problem wherever
   it is). *)
let meta =
  [
    v "suppression" Finding.Error
      "malformed [@@@ffault.lint.allow] attribute (unknown rule or missing \
       justification)"
      ~rationale:
        "A suppression must name a known, suppressible rule and carry a \
         non-blank justification string — that is what makes the carve-out \
         auditable. A malformed one is reported and suppresses nothing."
      ~example:
        "lib/fault/injector.ml:1:0: error suppression: suppressing \
         \"raw-atomic\" requires a justification string";
    v "cmt-missing" Finding.Error
      "every .ml needs a fresh cmt; build first (dune build @check)"
      ~rationale:
        "The rules read the compiler's .cmt output, so a .ml whose cmt is \
         missing, stale or unreadable cannot be checked. That is this error, \
         so a build-step regression cannot silently shrink lint coverage. A \
         file that does not parse or type-check has no fresh cmt either."
      ~example:
        "lib/netsim/net.ml:1:0: error cmt-missing: no cmt found under \
         _build/default (build first: dune build)";
  ]

let all = substantive @ meta
let find name = List.find_opt (fun r -> r.name = name) all
let is_meta name = List.exists (fun r -> r.name = name) meta
let names = List.map (fun r -> r.name) all

let severity name =
  match find name with Some r -> r.severity | None -> Finding.Error

