(** A minimal self-contained JSON encoder/parser.

    The campaign subsystem persists its artifacts (manifest, journal,
    reports) as JSON, and the container carries no JSON library — this is
    the small closed dialect we need: UTF-8 strings pass through
    untouched, integers stay exact (no float round-trip), and parsing is
    total (returns [Error] rather than raising). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (never emits raw newlines, so one value
    per line is a valid JSONL record). *)

(** {2 Scalar writers}

    What {!to_string} writes for each scalar, appended to a buffer with
    no intermediate tree or string — for encoders that stream a fixed
    shape ([Journal.to_line]) and must stay byte-identical to the tree
    printer. *)

val add_int : Buffer.t -> int -> unit
(** As [Int]. *)

val add_int64 : Buffer.t -> int64 -> unit
(** The decimal digits of an [int64] ([Int64.to_string]), unquoted. *)

val add_float : Buffer.t -> float -> unit
(** As [Float]: ["%.1f"] for an integral value below 1e15, else
    ["%.17g"]. *)

val add_string : Buffer.t -> string -> unit
(** As [Str]: quoted and escaped. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

(** Accessors: shape-checked projections, [None] on mismatch. *)

val member : string -> t -> t option
val get_int : t -> int option
(** [Int], or an integral [Float] inside the int range. *)

val get_float : t -> float option
val get_str : t -> string option
val get_bool : t -> bool option
val get_list : t -> t list option
