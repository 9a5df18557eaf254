(** Human and machine reporters over a lint run. *)

type t = {
  files : int;
  typed_files : int;  (** .ml files linted through a fresh cmt *)
  fresh : Finding.t list;  (** unsuppressed, unbaselined: these fail *)
  baselined : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
  expired : Baseline.entry list;
}

val make : ?baseline:Baseline.t -> Driver.result -> t

val exit_code : t -> int
(** 0 when there are no fresh findings, 1 otherwise. Baselined and
    suppressed findings, and expired baseline entries, do not fail. *)

val to_text : t -> string
(** file:line:col lines (grep-able) plus a one-line summary. *)

val to_json : t -> Ffault_campaign.Json.t
(** [{version; files; typed; findings; suppressed; expired_baseline;
    summary}] — the shape CI archives as lint.json; [typed] holds the
    count of [.ml] files linted through a fresh cmt. *)
