(* [@@@ffault.lint.allow "rule", "justification"] handling.

   A floating attribute ([@@@...] as its own structure item) suppresses
   the rule for the whole file. An attribute attached to a value binding
   or an expression ([@@...] / [@...]) suppresses only within that
   item's source span. A justification string is mandatory: a
   suppression without one (or naming an unknown rule) is itself
   reported under the [suppression] meta rule. *)

open Parsetree

let attr_name = "ffault.lint.allow"

type scope = File | Lines of int * int

type t = {
  rule : string;
  justification : string;
  scope : scope;
  file : string;
  line : int;  (* where the attribute itself sits, for reporting *)
}

let covers s (f : Finding.t) =
  s.rule = f.rule
  && s.file = f.file
  &&
  match s.scope with
  | File -> true
  | Lines (lo, hi) -> f.line >= lo && f.line <= hi

let apply sups findings =
  List.partition_map
    (fun f ->
      match List.find_opt (fun s -> covers s f) sups with
      | Some s -> Right (f, s)
      | None -> Left f)
    findings

(* ---- payload decoding ---- *)

let string_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Accepted payload shapes: "rule", "just" (tuple) and "rule" "just"
   (juxtaposition parses as application). A bare "rule" is a
   missing-justification error. *)
let decode_payload e =
  match e.pexp_desc with
  | Pexp_tuple [ a; b ] -> (
      match (string_const a, string_const b) with
      | Some rule, Some just -> Ok (rule, just)
      | _ -> Error "expected two string literals: a rule name and a justification")
  | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) -> (
      match (string_const fn, string_const arg) with
      | Some rule, Some just -> Ok (rule, just)
      | _ -> Error "expected two string literals: a rule name and a justification")
  | Pexp_constant (Pconst_string (rule, _, _)) ->
      Error
        (Fmt.str
           "suppressing %S requires a justification string: [@@@@@@%s %S, \"why\"]" rule
           attr_name rule)
  | _ -> Error "expected a rule name and a justification, both string literals"

let is_blank s = String.trim s = ""

let decode ~file ~scope (attr : attribute) =
  if attr.attr_name.txt <> attr_name then None
  else
    let line = attr.attr_loc.Location.loc_start.Lexing.pos_lnum in
    let fail msg =
      Some
        (Error
           (Finding.v ~rule:"suppression" ~severity:(Rule.severity "suppression") ~file
              ~line
              ~col:
                (attr.attr_loc.Location.loc_start.Lexing.pos_cnum
                - attr.attr_loc.Location.loc_start.Lexing.pos_bol)
              msg))
    in
    match attr.attr_payload with
    | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
        match decode_payload e with
        | Error msg -> fail msg
        | Ok (rule, just) ->
            if Rule.find rule = None then
              fail (Fmt.str "unknown rule %S (known: %s)" rule
                      (String.concat ", " Rule.names))
            else if Rule.is_meta rule then
              fail (Fmt.str "rule %S cannot be suppressed" rule)
            else if is_blank just then
              fail (Fmt.str "empty justification for rule %S" rule)
            else Some (Ok { rule; justification = just; scope; file; line }))
    | _ ->
        fail
          (Fmt.str "malformed payload: use [@@@@@@%s \"rule\", \"justification\"]"
             attr_name)

(* ---- collection over a typedtree ---- *)

(* The typedtree keeps every Parsetree.attribute where the parsetree had
   it, except that a constraint, coercion or local open becomes an
   [exp_extra] entry carrying that node's attributes and location. *)

let lines_of_loc (loc : Location.t) =
  (loc.loc_start.Lexing.pos_lnum, loc.loc_end.Lexing.pos_lnum)

let of_structure ~file structure =
  let sups = ref [] in
  let errs = ref [] in
  let record ~scope attr =
    match decode ~file ~scope attr with
    | None -> ()
    | Some (Ok s) -> sups := s :: !sups
    | Some (Error f) -> errs := f :: !errs
  in
  let record_spanned loc attrs =
    let lo, hi = lines_of_loc loc in
    List.iter (record ~scope:(Lines (lo, hi))) attrs
  in
  let open Typedtree in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      structure_item =
        (fun it item ->
          (match item.str_desc with Tstr_attribute attr -> record ~scope:File attr | _ -> ());
          default.structure_item it item);
      value_binding =
        (fun it vb ->
          record_spanned vb.vb_loc vb.vb_attributes;
          default.value_binding it vb);
      expr =
        (fun it e ->
          List.iter (fun (_, loc, attrs) -> record_spanned loc attrs) e.exp_extra;
          record_spanned e.exp_loc e.exp_attributes;
          default.expr it e);
    }
  in
  it.structure it structure;
  (List.rev !sups, List.rev !errs)
