(* Map source paths to the .cmt files dune left under _build, verify
   freshness against the source digest, and degrade gracefully: every
   failure mode is a [status] the driver turns into a cmt-missing
   finding — never an exception.

   The index is built from filenames alone (no cmt is read until a
   source asks for it): a cmt at
     _build/default/lib/runtime/.ffault_runtime.objs/byte/ffault_runtime__Cancel.cmt
   is keyed by the directory with the dot-dirs dropped (lib/runtime) and
   the unit name after the last "__" (Cancel) — which is exactly
   (dirname, capitalized basename) of lib/runtime/cancel.ml. Freshness
   is the cmt's recorded source digest against the file on disk, so a
   stale build can never smuggle findings for code that no longer
   exists, or silently bless code that was edited after the build. *)

type status =
  | Typed of Typedtree.structure
  | No_cmt
  | Stale of string
  | Unreadable of string

type t = { index : (string * string, string) Hashtbl.t }

let default_build_dir = Filename.concat "_build" "default"

(* lib/runtime/.ffault_runtime.objs/byte -> lib/runtime: a dot-segment
   is dune bookkeeping, and so is the byte/native flavour below it. *)
let logical_dir rel =
  String.split_on_char '/' rel
  |> List.filter (fun s ->
         s <> "" && s <> "." && s.[0] <> '.' && s <> "byte" && s <> "native")
  |> String.concat "/"

let unit_name_of_cmt path =
  let base = Filename.remove_extension (Filename.basename path) in
  let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> base in
  let segs =
    (* "ffault_runtime__Cancel" / "dune__exe__Main" -> last "__" segment *)
    let out = ref [] and buf = Buffer.create 16 in
    let flush () =
      if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
      Buffer.clear buf
    in
    let n = String.length base in
    let i = ref 0 in
    while !i < n do
      if !i + 1 < n && base.[!i] = '_' && base.[!i + 1] = '_' then begin
        flush ();
        i := !i + 2
      end
      else begin
        Buffer.add_char buf base.[!i];
        incr i
      end
    done;
    flush ();
    List.rev !out
  in
  String.capitalize_ascii (last segs)

let strip_prefix ~prefix s =
  let lp = String.length prefix and ls = String.length s in
  if lp <= ls && String.sub s 0 lp = prefix then String.sub s lp (ls - lp) else s

let create ?(build_dir = default_build_dir) () =
  if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then None
  else begin
    let index = Hashtbl.create 64 in
    let rec walk path =
      match Sys.is_directory path with
      | true -> Array.iter (fun e -> walk (Filename.concat path e)) (Sys.readdir path)
      | false ->
          if Filename.check_suffix path ".cmt" then begin
            let rel = strip_prefix ~prefix:(build_dir ^ "/") path in
            let dir = Policy.normalize (logical_dir (Filename.dirname rel)) in
            let key = (dir, unit_name_of_cmt path) in
            (* first wins: with byte and native flavours both present the
               contents are equivalent *)
            if not (Hashtbl.mem index key) then Hashtbl.add index key path
          end
      | exception Sys_error _ -> ()
    in
    walk build_dir;
    if Hashtbl.length index = 0 then None else Some { index }
  end

let lookup t source =
  let norm = Policy.normalize source in
  let dir = match Filename.dirname norm with "." -> "" | d -> d in
  let unit = String.capitalize_ascii (Filename.remove_extension (Filename.basename norm)) in
  Hashtbl.find_opt t.index (dir, unit)

let for_source t source =
  if not (Filename.check_suffix source ".ml") then No_cmt
  else
    match lookup t source with
    | None -> No_cmt
    | Some cmt_path -> (
        match Cmt_format.read_cmt cmt_path with
        | exception (Sys_error _ | End_of_file | Failure _) ->
            Unreadable (Fmt.str "unreadable cmt at %s" cmt_path)
        | exception (Cmt_format.Error _ | Cmi_format.Error _) ->
            Unreadable (Fmt.str "not a cmt (or wrong compiler version) at %s" cmt_path)
        | cmt -> (
            match cmt.Cmt_format.cmt_source_digest with
            | None -> Stale (Fmt.str "cmt at %s records no source digest" cmt_path)
            | Some recorded -> (
                match Digest.file source with
                | exception Sys_error m -> Unreadable (Fmt.str "cannot digest source: %s" m)
                | actual ->
                    if not (Digest.equal recorded actual) then
                      Stale
                        (Fmt.str
                           "source changed since %s was built (rebuild: dune build)"
                           cmt_path)
                    else
                      match cmt.Cmt_format.cmt_annots with
                      | Cmt_format.Implementation structure -> Typed structure
                      | _ ->
                          Unreadable
                            (Fmt.str "cmt at %s holds no complete implementation \
                                      (did the build type-check it?)" cmt_path))))

let describe ~build_dir = function
  | Typed _ -> None
  | No_cmt ->
      Some (Fmt.str "no cmt found under %s (build first: dune build)" build_dir)
  | Stale m | Unreadable m -> Some m
