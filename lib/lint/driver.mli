(** The lint driver: run {!Typed_rules} over each [.ml]'s typedtree
    (read from its cmt), apply {!Policy} and {!Suppress}, and add the
    filesystem-level mli-required check. *)

type outcome = {
  findings : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
}

val lint_structure :
  policy:Policy.t -> file:string -> Typedtree.structure -> outcome
(** Lint one typed implementation — the unit the tests drive. [file]
    determines policy scoping; suppressions are read from the same
    tree. *)

val collect_files : string list -> string list
(** Expand files/directories to a sorted list of [.ml]/[.mli] paths,
    skipping [_build], [_campaigns] and [.git]. *)

val mli_required : policy:Policy.t -> string list -> Finding.t list
(** The one filesystem-level rule: every in-scope [.ml] needs a sibling
    [.mli] (checked against the collected list, then the disk). *)

type result = {
  files : int;  (** sources inspected *)
  typed_files : int;  (** .ml files linted through a fresh cmt *)
  findings : Finding.t list;  (** post policy + suppression, sorted *)
  suppressed : (Finding.t * Suppress.t) list;
}

val run :
  ?rules:string list -> ?policy:Policy.t -> ?build_dir:string -> string list -> result
(** Lint the given paths. [rules] restricts reporting to that subset
    (meta rules always pass through). [build_dir] (default
    [_build/default]) is where cmts are looked up; a [.ml] without a
    fresh cmt there is a [cmt-missing] finding. *)
