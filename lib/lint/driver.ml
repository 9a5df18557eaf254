(* Lint every .ml through the typedtree in its cmt: run Typed_rules,
   apply policy and the suppressions the same tree carries, and add the
   filesystem-level mli-required check. A .ml without a fresh cmt is a
   cmt-missing finding, so a build regression cannot silently shrink
   coverage. *)

type outcome = {
  findings : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
}

(* ---- linting one implementation ---- *)

let lint_structure ~policy ~file structure =
  let raw =
    List.filter
      (fun (f : Finding.t) -> Policy.applies policy ~rule:f.rule ~file)
      (Typed_rules.check ~file structure)
  in
  let sups, sup_errors = Suppress.of_structure ~file structure in
  let findings, suppressed = Suppress.apply sups raw in
  { findings = findings @ sup_errors; suppressed }

(* ---- file collection ---- *)

let skip_dirs = [ "_build"; "_campaigns"; "_opam"; ".git" ]

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let collect_files paths =
  let out = ref [] in
  let rec walk path =
    if Sys.file_exists path then
      if Sys.is_directory path then
        if not (List.mem (Filename.basename path) skip_dirs) then
          Array.iter
            (fun entry -> walk (Filename.concat path entry))
            (Sys.readdir path)
        else ()
      else if is_source path then out := path :: !out
  in
  List.iter walk paths;
  List.sort_uniq String.compare !out

(* ---- mli-required (filesystem-level) ---- *)

let mli_required ~policy files =
  List.filter_map
    (fun file ->
      if
        Filename.check_suffix file ".ml"
        && Policy.applies policy ~rule:"mli-required" ~file
        && not (List.mem (file ^ "i") files || Sys.file_exists (file ^ "i"))
      then
        Some
          (Finding.v ~rule:"mli-required" ~severity:(Rule.severity "mli-required")
             ~file ~line:1 ~col:0
             (Fmt.str
                "%s has no interface: add %si so the module's surface is committed \
                 and reviewable"
                (Filename.basename file) (Filename.basename file)))
      else None)
    files

(* ---- the whole run ---- *)

type result = {
  files : int;
  typed_files : int;
  findings : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
}

let rule_enabled rules (f : Finding.t) =
  match rules with
  | None -> true
  | Some rs -> List.mem f.rule rs || Rule.is_meta f.rule

let run ?rules ?(policy = Policy.default) ?(build_dir = Cmt_loader.default_build_dir)
    paths =
  let files = collect_files paths in
  let loader = Cmt_loader.create ~build_dir () in
  let typed_files = ref 0 in
  let lint_file file =
    let status =
      Option.fold ~none:Cmt_loader.No_cmt ~some:(fun l -> Cmt_loader.for_source l file)
        loader
    in
    match status with
    | Cmt_loader.Typed structure ->
        incr typed_files;
        lint_structure ~policy ~file structure
    | degraded ->
        let why = Option.value ~default:"" (Cmt_loader.describe ~build_dir degraded) in
        {
          findings =
            [
              Finding.v ~rule:"cmt-missing" ~severity:(Rule.severity "cmt-missing") ~file
                ~line:1 ~col:0 why;
            ];
          suppressed = [];
        }
  in
  let outcomes =
    List.map lint_file (List.filter (fun f -> Filename.check_suffix f ".ml") files)
  in
  let findings =
    List.concat_map (fun (o : outcome) -> o.findings) outcomes
    @ mli_required ~policy files
  in
  let suppressed = List.concat_map (fun (o : outcome) -> o.suppressed) outcomes in
  {
    files = List.length files;
    typed_files = !typed_files;
    findings = List.sort Finding.compare (List.filter (rule_enabled rules) findings);
    suppressed;
  }
