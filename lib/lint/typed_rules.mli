(** Every source rule, as one {!Tast_iterator} pass over a cmt's
    typedtree.

    Identifier rules match resolved identities — (declaring [.mli],
    value name), read from each [Texp_ident]'s value description — so
    aliases, opens, includes and eta-reduction cannot evade them:
    [raw-atomic], [nondeterminism] (with [Hashtbl.create ~random:...]
    checked on the application), [io-in-lib], [obj-magic] and the
    [Effect.Deep.try_with] half of [effect-discipline]. Structural
    rules: [catch-all], [toplevel-mutable] (its makers resolved the same
    way) and the [exnc = raise] half of [effect-discipline]. Type-aware
    rules: [poly-compare-abstract] (polymorphic [=]/[<>]/[compare]/
    [Hashtbl.hash]/[List.mem] instantiated at a lib-owned semantic
    type) and [domain-unsafe-capture] (a ref, mutable field or
    non-atomic array allocated outside a [Domain.spawn] closure and
    mutated inside it; warning, escalated to error under [lib/sim]).

    Findings come back unfiltered; the driver applies {!Policy} scoping
    and {!Suppress} afterwards. *)

val check : file:string -> Typedtree.structure -> Finding.t list
(** Findings in source order. [file] is the source path reported in
    findings (and the [lib/sim] severity escalation). *)
