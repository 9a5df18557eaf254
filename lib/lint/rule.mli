(** The rule registry: names, default severities, and the metadata
    behind [--list-rules] and [--explain]. *)

type t = {
  name : string;
  severity : Finding.severity;
  summary : string;  (** one line; feeds [--list-rules] *)
  rationale : string;  (** full description; feeds [--explain] *)
  example : string;  (** an example finding line; feeds [--explain] *)
}

val substantive : t list
(** The checked invariants: raw-atomic, nondeterminism,
    toplevel-mutable, io-in-lib, catch-all, mli-required, obj-magic,
    effect-discipline, poly-compare-abstract and domain-unsafe-capture.
    All but the filesystem-level mli-required are checked on the
    typedtree. *)

val meta : t list
(** Findings produced by the machinery itself ([suppression],
    [cmt-missing]); never policy-scoped and not suppressible. *)

val all : t list
val names : string list
val find : string -> t option
val is_meta : string -> bool

val severity : string -> Finding.severity
(** Default severity for a rule name ([Error] for unknown names). *)
