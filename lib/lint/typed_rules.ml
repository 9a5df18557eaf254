(* The one rule pass: a Tast_iterator walk over a cmt's typedtree.
   Identifier rules match resolved identities, not surface syntax:
   every [Texp_ident] carries the value description of the thing it
   denotes, and that description's [val_loc] names the .mli the value
   was declared in — the same for [Atomic.set], [A.set] after
   [module A = Atomic], a bare [set] after [open Atomic], and [W.set]
   after [include Atomic]. Matching on (declaring file, value name) is
   therefore alias-proof by construction.

   Findings come back unfiltered: the driver applies {!Policy} scoping
   and {!Suppress} afterwards, so this module stays a pure function of
   the typedtree. *)

open Typedtree

(* ---- resolved identities ---- *)

let decl_file (vd : Types.value_description) =
  Filename.basename vd.Types.val_loc.Location.loc_start.Lexing.pos_fname

let resolve path vd = (decl_file vd, Path.last path)

(* "Ffault_objects__Value.t" -> "Ffault_objects.Value.t" *)
let unmangle s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* How a resolved identity reads in a message: stdlib.mli values bare
   ([print_endline]); others under their home module, keeping any
   submodule the typed path names below it ([Random.State.make]), so an
   alias or open still reads as the real thing ([A.set] -> [Atomic.set]). *)
let render path decl =
  if decl = "stdlib.mli" then Path.last path
  else
    let home = String.capitalize_ascii (Filename.remove_extension decl) in
    let rec below = function
      | [] -> []
      | c :: rest when c = home -> rest
      | _ :: rest -> below rest
    in
    match below (String.split_on_char '.' (unmangle (Path.name path))) with
    | [] -> home ^ "." ^ Path.last path
    | rest -> String.concat "." (home :: rest)

(* ---- identifier rules: one row per (rule, declaring .mli, names) ---- *)

type ident_rule = {
  rule : string;
  decl : string;
  names : string list option;  (** [None]: every value declared there *)
  message : string -> string;  (** given the rendered identity *)
}

let atomic_mutators =
  [ "compare_and_set"; "exchange"; "set"; "fetch_and_add"; "incr"; "decr" ]

let io_stdlib =
  [
    "print_string"; "print_bytes"; "print_int"; "print_char"; "print_float";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes"; "prerr_int";
    "prerr_char"; "prerr_float"; "prerr_endline"; "prerr_newline"; "exit";
  ]

(* Socket-level syscalls: driver-layer territory. Library code that
   opens, accepts or selects on sockets is doing transport work and
   must live behind an allowlisted driver module (lib/dist). *)
let io_unix_sockets =
  [
    "socket"; "bind"; "listen"; "accept"; "connect"; "select"; "read"; "write";
    "write_substring"; "single_write"; "sendto"; "recvfrom";
  ]

let raw_atomic =
  Fmt.str
    "raw %s bypasses the injectable faulty-CAS substrate; route the operation \
     through Ffault_runtime.Faulty_cas (or allowlist this file in the lint policy \
     with a justification)"

let global_prng =
  Fmt.str
    "%s draws from the global, seed-unstable PRNG; deterministic code must use \
     Ffault_prng (splittable, seeded per trial)"

let clock =
  Fmt.str
    "%s is nondeterministic across runs; simulator-reachable code must be a pure \
     function of the seed (journal replay and campaign resume depend on it)"

let terminal_io =
  Fmt.str
    "%s performs direct terminal IO/exit from library code; return data, or go \
     through Ffault_telemetry / the report layer"

let socket_io =
  Fmt.str
    "%s is socket-level IO from library code; transport work belongs in the dist \
     driver layer (Transport/Http), which is allowlisted with a justification"

let try_with _ =
  "Effect.Deep.try_with installs only an effect handler: a body that returns or \
   raises bypasses the scheduler's Step/Decide bookkeeping (no Decided/Crashed \
   status is recorded); use match_with with retc, exnc and effc all handling the \
   protocol"

let obj_magic =
  Fmt.str
    "%s defeats the type system; if the representation trick is sound, suppress \
     with [@@@@@@%s \"obj-magic\", \"why it is safe\"]"

let ident_rules =
  let row rule decl names message = { rule; decl; names; message } in
  [
    row "raw-atomic" "atomic.mli" (Some atomic_mutators) raw_atomic;
    row "nondeterminism" "random.mli" None global_prng;
    row "nondeterminism" "sys.mli" (Some [ "time" ]) clock;
    row "nondeterminism" "unix.mli" (Some [ "gettimeofday"; "time" ]) clock;
    row "nondeterminism" "hashtbl.mli" (Some [ "randomize" ]) clock;
    row "io-in-lib" "stdlib.mli" (Some io_stdlib) terminal_io;
    row "io-in-lib" "printf.mli" (Some [ "printf"; "eprintf" ]) terminal_io;
    row "io-in-lib" "format.mli"
      (Some [ "printf"; "eprintf"; "print_string"; "print_newline" ])
      terminal_io;
    row "io-in-lib" "fmt.mli" (Some [ "pr"; "epr" ]) terminal_io;
    row "io-in-lib" "unix.mli" (Some io_unix_sockets) socket_io;
    row "obj-magic" "obj.mli" None (fun name -> obj_magic name Suppress.attr_name);
    row "effect-discipline" "effect.mli" (Some [ "try_with" ]) try_with;
  ]

(* Constructors whose result at module level is cross-run shared state. *)
let mutable_makers =
  [
    ("stdlib.mli", "ref");
    ("hashtbl.mli", "create");
    ("atomic.mli", "make");
    ("queue.mli", "create");
    ("stack.mli", "create");
    ("buffer.mli", "create");
    ("bytes.mli", "create"); ("bytes.mli", "make");
    ("array.mli", "make"); ("array.mli", "init"); ("array.mli", "create_float");
    ("mutex.mli", "create"); ("condition.mli", "create");
  ]

(* Types that own their comparison semantics: structural compare on them
   is representational, not semantic, and breaks the moment they gain
   closures or mutable internals. Matched on the normalized head path of
   the instantiated type (module aliases local to the file are resolved
   first; "__"-mangled unit names are unmangled). *)
let semantic_types =
  [
    "Value.t"; "History.t";
    (* ops embed Value.t payloads, so structural compare inherits every
       hazard Value.t has *)
    "Op.t";
    (* identity types with their own compare — today ints, but the
       representation is theirs to change *)
    "Obj_id.t"; "Fault_kind.t";
    (* specs carry an int64 seed and kind lists; Spec.equal is the
       semantic (and boxing-aware) comparison *)
    "Spec.t";
    (* a private int whose equal is physical by design — spell it *)
    "Packed.t";
  ]

(* Polymorphic entry points whose first parameter type decides the
   hazard: (declaring interface, name). *)
let poly_compare_fns =
  [
    ("stdlib.mli", "="); ("stdlib.mli", "<>"); ("stdlib.mli", "compare");
    ("hashtbl.mli", "hash"); ("list.mli", "mem");
  ]

(* Mutations of a captured target inside a Domain.spawn closure:
   (declaring interface, name, what to call it). *)
let mutation_fns =
  [
    ("stdlib.mli", ":=", "ref");
    ("stdlib.mli", "incr", "ref");
    ("stdlib.mli", "decr", "ref");
    ("array.mli", "set", "array");
    ("array.mli", "unsafe_set", "array");
    ("array.mli", "fill", "array");
    ("array.mli", "blit", "array");
    ("bytes.mli", "set", "bytes");
    ("bytes.mli", "unsafe_set", "bytes");
  ]

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* ---- the pass ---- *)

let check ~file structure =
  let findings = ref [] in
  let emit ?severity ~rule loc message =
    let severity = Option.value severity ~default:(Rule.severity rule) in
    findings := Finding.of_location ~rule ~severity ~file loc message :: !findings
  in

  (* Local module aliases (module V = Ffault_objects.Value), so a
     type written V.t still matches the semantic-type table. *)
  let aliases = Hashtbl.create 8 in
  let record_alias (mb : module_binding) =
    match (mb.mb_id, mb.mb_expr.mod_desc) with
    | Some id, Tmod_ident (p, _) -> Hashtbl.replace aliases (Ident.name id) (Path.name p)
    | _ -> ()
  in
  let rec resolve_head depth name =
    if depth > 8 then name
    else
      match String.index_opt name '.' with
      | None -> name
      | Some i -> (
          let head = String.sub name 0 i in
          let rest = String.sub name i (String.length name - i) in
          match Hashtbl.find_opt aliases head with
          | Some target -> resolve_head (depth + 1) (target ^ rest)
          | None -> name)
  in
  let semantic_match path =
    let n = unmangle (resolve_head 0 (Path.name path)) in
    List.find_opt (fun t -> n = t || ends_with ~suffix:("." ^ t) n) semantic_types
  in
  (* Walk the instantiated type: the hazard may sit in a parameter
     (Value.t list is still compared structurally). *)
  let rec scan_type depth ty =
    if depth <= 0 then None
    else
      match Types.get_desc ty with
      | Types.Tconstr (p, params, _) -> (
          match semantic_match p with
          | Some _ as hit -> hit
          | None -> List.find_map (scan_type (depth - 1)) params)
      | Types.Ttuple ts -> List.find_map (scan_type (depth - 1)) ts
      | _ -> None
  in
  let first_param ty =
    match Types.get_desc ty with Types.Tarrow (_, a, _, _) -> Some a | _ -> None
  in

  let check_ident (e : expression) path vd =
    let decl = decl_file vd and name = Path.last path in
    List.iter
      (fun r ->
        if r.decl = decl && Option.fold ~none:true ~some:(List.mem name) r.names then
          emit ~rule:r.rule e.exp_loc (r.message (render path decl)))
      ident_rules;
    (* poly-compare-abstract: a polymorphic comparison entry point
       instantiated (applied or passed) at a semantic type *)
    if List.mem (decl, name) poly_compare_fns then
      match Option.bind (first_param e.exp_type) (scan_type 4) with
      | Some semantic ->
          let owner =
            match String.index_opt semantic '.' with
            | Some i -> String.sub semantic 0 i
            | None -> semantic
          in
          emit ~rule:"poly-compare-abstract" e.exp_loc
            (Fmt.str
               "polymorphic %s instantiated at %s: structural comparison is \
                representational and breaks the moment the type gains closures or \
                mutable internals; use %s.equal/%s.compare (semantic, committed in the \
                interface)"
               (render path decl) semantic owner owner)
      | None -> ()
  in

  (* nondeterminism: [Hashtbl.create ~random:...] as written. An omitted
     optional argument is filled in with a ghost-located [None], so only
     one the source spells out counts. *)
  let check_random_hashtbl (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args)
      when resolve p vd = ("hashtbl.mli", "create")
           && List.exists
                (function
                  | (Asttypes.Labelled "random" | Asttypes.Optional "random"), Some a ->
                      not a.exp_loc.Location.loc_ghost
                  | _ -> false)
                args ->
        emit ~rule:"nondeterminism" e.exp_loc
          "Hashtbl.create ~random:true randomizes iteration order across runs; \
           deterministic code must not depend on randomized hashing"
    | _ -> ()
  in

  (* toplevel-mutable: walk a binding's RHS, stopping at lambdas (a
     function body only allocates per call) and [lazy]. *)
  let rec rhs_mutable e =
    match e.exp_desc with
    | Texp_function _ | Texp_lazy _ -> None
    | Texp_apply (({ exp_desc = Texp_ident (p, _, vd); _ } as fn), args) ->
        let decl, name = resolve p vd in
        if List.mem (decl, name) mutable_makers then Some (fn.exp_loc, render p decl)
        else first_mutable (List.filter_map snd args)
    | Texp_tuple es | Texp_array es -> first_mutable es
    | Texp_record { fields; extended_expression; _ } -> (
        let overridden =
          Array.to_list fields
          |> List.filter_map (function
               | _, Overridden (_, v) -> Some v
               | _, Kept _ -> None)
        in
        match first_mutable overridden with
        | Some _ as r -> r
        | None -> Option.bind extended_expression rhs_mutable)
    | Texp_construct (_, _, args) -> first_mutable args
    | Texp_variant (_, Some a) -> rhs_mutable a
    | Texp_let (_, vbs, body) -> (
        match first_mutable (List.map (fun vb -> vb.vb_expr) vbs) with
        | Some _ as r -> r
        | None -> rhs_mutable body)
    | Texp_sequence (a, b) -> (
        match rhs_mutable a with Some _ as r -> r | None -> rhs_mutable b)
    | _ -> None
  and first_mutable es = List.find_map rhs_mutable es in

  let check_toplevel_binding vb =
    match rhs_mutable vb.vb_expr with
    | None -> ()
    | Some (loc, maker) ->
        emit ~rule:"toplevel-mutable" loc
          (Fmt.str
             "module-level %s creates mutable state shared across every trial in the \
              process; allocate it per run (pass it in), or allowlist the module with \
              a justification"
             maker)
  in

  let rec catch_all (p : pattern) =
    match p.pat_desc with
    | Tpat_any -> true
    | Tpat_alias (p, _, _) -> catch_all p
    | Tpat_or (a, b, _) -> catch_all a || catch_all b
    | _ -> false
  in
  let check_cases : 'k. ('k general_pattern -> pattern option) -> 'k case list -> unit =
   fun handler cases ->
    List.iter
      (fun c ->
        match handler c.c_lhs with
        | Some p when catch_all p && c.c_guard = None ->
            emit ~rule:"catch-all" c.c_lhs.pat_loc
              "wildcard exception handler swallows every exception, including budget \
               exhaustion and cancellation; match the exceptions you mean to handle \
               (or bind and re-raise the rest)"
        | _ -> ())
      cases
  in
  let exception_pattern (p : computation general_pattern) =
    match p.pat_desc with Tpat_exception p -> Some p | _ -> None
  in

  (* effect-discipline, second half: a [match_with] handler record whose
     [exnc] merely re-raises drops the crash half of the Step/Decide
     protocol — a raising process must become a recorded status, not
     unwind the scheduler. Catches [exnc = raise] and
     [exnc = (fun e -> raise e)]. *)
  let is_raise (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, vd) -> resolve p vd = ("stdlib.mli", "raise")
    | _ -> false
  in
  let reraises (v : expression) =
    match v.exp_desc with
    | Texp_ident _ -> is_raise v
    | Texp_function
        {
          cases =
            [
              {
                c_lhs = { pat_desc = Tpat_var (x, _); _ };
                c_guard = None;
                c_rhs =
                  {
                    exp_desc =
                      Texp_apply
                        ( f,
                          [ (Asttypes.Nolabel, Some { exp_desc = Texp_ident (Path.Pident y, _, _); _ }) ]
                        );
                    _;
                  };
              };
            ];
          _;
        } ->
        is_raise f && Ident.same x y
    | _ -> false
  in
  let check_handler_record fields =
    Array.iter
      (fun ((lbl : Types.label_description), def) ->
        match def with
        | Overridden (_, v) when lbl.Types.lbl_name = "exnc" && reraises v ->
            emit ~rule:"effect-discipline" v.exp_loc
              "this handler's exnc re-raises instead of recording the process as \
               crashed; a raising body must land in the scheduler's status array (the \
               Step/Decide protocol), not unwind through it"
        | _ -> ())
      fields
  in

  (* domain-unsafe-capture: mutations of captured state inside a
     Domain.spawn closure — the literal [Domain.spawn (fun () -> ...)]
     and the named form [let work () = ... in Domain.spawn work]. The
     named form is resolved through the spawn argument's value
     description, whose [val_loc] points back at the binding site; the
     pre-pass below indexes every function-valued binding in the file by
     that site. *)
  let bound_closures = Hashtbl.create 16 in
  let pos_key (loc : Location.t) =
    (loc.Location.loc_start.Lexing.pos_fname, loc.Location.loc_start.Lexing.pos_cnum)
  in
  let record_closure (vb : value_binding) =
    match vb.vb_expr.exp_desc with
    | Texp_function _ -> Hashtbl.replace bound_closures (pos_key vb.vb_pat.pat_loc) vb.vb_expr
    | _ -> ()
  in
  let closure_contains (closure : expression) (loc : Location.t) =
    let c = closure.exp_loc in
    loc.Location.loc_start.Lexing.pos_fname = c.Location.loc_start.Lexing.pos_fname
    && loc.Location.loc_start.Lexing.pos_cnum >= c.Location.loc_start.Lexing.pos_cnum
    && loc.Location.loc_end.Lexing.pos_cnum <= c.Location.loc_end.Lexing.pos_cnum
  in
  let capture_severity =
    if Policy.has_prefix ~prefix:"lib/sim" file then Some Finding.Error else None
  in
  let flag_capture closure kind loc (target : expression) =
    match target.exp_desc with
    | Texp_ident (tp, _, tvd) ->
        if not (closure_contains closure tvd.Types.val_loc) then
          emit ?severity:capture_severity ~rule:"domain-unsafe-capture" loc
            (Fmt.str
               "%s `%s' is allocated outside this Domain.spawn closure and mutated \
                inside it: unsynchronized cross-domain mutation is a data race under \
                the OCaml memory model; use Atomic, keep the state domain-local, or \
                pass results through Domain.join"
               kind (Path.last tp))
    | _ -> ()
  in
  let scan_closure (closure : expression) =
    let sub =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, (_, Some target) :: _)
              -> (
                match
                  List.find_opt (fun (d, n, _) -> (d, n) = resolve p vd) mutation_fns
                with
                | Some (_, _, kind) -> flag_capture closure kind e.exp_loc target
                | None -> ())
            | Texp_setfield (target, _, lbl, _) ->
                flag_capture closure
                  (Fmt.str "mutable field `%s' of record" lbl.Types.lbl_name)
                  e.exp_loc target
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
      }
    in
    sub.expr sub closure
  in
  let check_spawn (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args)
      when resolve p vd = ("domain.mli", "spawn") -> (
        match
          List.find_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args
        with
        | Some ({ exp_desc = Texp_function _; _ } as closure) -> scan_closure closure
        | Some { exp_desc = Texp_ident (_, _, avd); _ } -> (
            (* a closure bound to a name before the spawn does not evade
               the rule: follow the name to its definition *)
            match Hashtbl.find_opt bound_closures (pos_key avd.Types.val_loc) with
            | Some closure -> scan_closure closure
            | None -> ())
        | _ -> ())
    | _ -> ()
  in

  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun it mb ->
          record_alias mb;
          Tast_iterator.default_iterator.module_binding it mb);
      structure_item =
        (fun it item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter check_toplevel_binding vbs
          | _ -> ());
          Tast_iterator.default_iterator.structure_item it item);
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (path, _, vd) -> check_ident e path vd
          | Texp_apply _ ->
              check_random_hashtbl e;
              check_spawn e
          | Texp_try (_, cases) -> check_cases Option.some cases
          | Texp_match (_, cases, _) -> check_cases exception_pattern cases
          | Texp_record { fields; _ } -> check_handler_record fields
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  (* module aliases can appear after their uses in the iterator order
     only within mutually recursive modules; a first pass over top-level
     structure items keeps the common case exact *)
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_module mb -> record_alias mb
      | Tstr_recmodule mbs -> List.iter record_alias mbs
      | _ -> ())
    structure.str_items;
  (* pre-pass for named closures: a binding may appear after the spawn
     that uses it (mutual recursion) and local lets are below the top
     level, so the whole tree is indexed first *)
  let collect =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          record_closure vb;
          Tast_iterator.default_iterator.value_binding it vb);
    }
  in
  collect.structure collect structure;
  it.structure it structure;
  List.rev !findings
