(** In-source suppressions: [@@@ffault.lint.allow "rule", "why"].

    A floating attribute suppresses the rule for the whole file; an
    attribute attached to a value binding or expression suppresses only
    within that item's line span. The justification string is mandatory
    and must be non-blank; malformed suppressions (missing
    justification, unknown or meta rule, wrong payload shape) are
    reported as findings under the [suppression] meta rule. *)

val attr_name : string
(** ["ffault.lint.allow"] *)

type scope = File | Lines of int * int  (** inclusive line span *)

type t = {
  rule : string;
  justification : string;
  scope : scope;
  file : string;
  line : int;  (** line of the attribute itself *)
}

val covers : t -> Finding.t -> bool

val apply : t list -> Finding.t list -> Finding.t list * (Finding.t * t) list
(** Partition findings into (surviving, suppressed-with-their-reason). *)

val of_structure :
  file:string -> Typedtree.structure -> t list * Finding.t list
(** Collect the suppressions declared in a typed implementation, plus
    findings for any malformed ones. *)
