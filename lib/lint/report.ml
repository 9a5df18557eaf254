module Json = Ffault_campaign.Json

type t = {
  files : int;
  typed_files : int;
  fresh : Finding.t list;  (** unsuppressed, unbaselined: these fail *)
  baselined : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
  expired : Baseline.entry list;
}

let make ?(baseline = Baseline.empty) (r : Driver.result) =
  let split = Baseline.apply baseline r.Driver.findings in
  {
    files = r.Driver.files;
    typed_files = r.Driver.typed_files;
    fresh = split.Baseline.fresh;
    baselined = split.Baseline.baselined;
    suppressed = r.Driver.suppressed;
    expired = split.Baseline.expired;
  }

let exit_code t = if t.fresh = [] then 0 else 1

(* ---- text ---- *)

let by_rule findings =
  List.fold_left
    (fun acc (f : Finding.t) ->
      match List.assoc_opt f.rule acc with
      | Some n -> (f.rule, n + 1) :: List.remove_assoc f.rule acc
      | None -> (f.rule, 1) :: acc)
    [] findings
  |> List.sort compare

let to_text t =
  let buf = Buffer.create 1024 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter (fun f -> line "%a" Finding.pp f) t.fresh;
  List.iter (fun f -> line "%a [baselined]" Finding.pp f) t.baselined;
  List.iter
    (fun (e : Baseline.entry) ->
      line "%s:%d: note: expired baseline entry for %s (fixed or moved) — regenerate \
            the baseline" e.Baseline.file e.Baseline.line e.Baseline.rule)
    t.expired;
  if t.fresh <> [] then line "";
  (match by_rule t.fresh with
  | [] -> ()
  | counts ->
      line "findings by rule: %s"
        (String.concat ", " (List.map (fun (r, n) -> Fmt.str "%s=%d" r n) counts)));
  line "%d file%s checked (%d typed): %d finding%s, %d baselined, %d suppressed, %d \
        expired baseline entr%s"
    t.files
    (if t.files = 1 then "" else "s")
    t.typed_files
    (List.length t.fresh)
    (if List.length t.fresh = 1 then "" else "s")
    (List.length t.baselined)
    (List.length t.suppressed)
    (List.length t.expired)
    (if List.length t.expired = 1 then "y" else "ies");
  Buffer.contents buf

(* ---- json ---- *)

let finding_to_json ?(extra = []) (f : Finding.t) =
  Json.Obj
    ([
       ("rule", Json.Str f.rule);
       ("severity", Json.Str (Finding.severity_to_string f.severity));
       ("file", Json.Str (Policy.normalize f.file));
       ("line", Json.Int f.line);
       ("col", Json.Int f.col);
       ("message", Json.Str f.message);
     ]
    @ extra)

let to_json t =
  let counts = by_rule t.fresh in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("files", Json.Int t.files);
      ("typed", Json.Obj [ ("files", Json.Int t.typed_files) ]);
      ( "findings",
        Json.List
          (List.map (finding_to_json ~extra:[ ("baselined", Json.Bool false) ]) t.fresh
          @ List.map
              (finding_to_json ~extra:[ ("baselined", Json.Bool true) ])
              t.baselined) );
      ( "suppressed",
        Json.List
          (List.map
             (fun ((f : Finding.t), (s : Suppress.t)) ->
               finding_to_json
                 ~extra:[ ("justification", Json.Str s.Suppress.justification) ]
                 f)
             t.suppressed) );
      ( "expired_baseline",
        Json.List
          (List.map
             (fun (e : Baseline.entry) ->
               Json.Obj
                 [
                   ("rule", Json.Str e.Baseline.rule);
                   ("file", Json.Str e.Baseline.file);
                   ("line", Json.Int e.Baseline.line);
                 ])
             t.expired) );
      ( "summary",
        Json.Obj
          [
            ("fresh", Json.Int (List.length t.fresh));
            ("baselined", Json.Int (List.length t.baselined));
            ("suppressed", Json.Int (List.length t.suppressed));
            ("expired", Json.Int (List.length t.expired));
            ( "by_rule",
              Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) counts) );
          ] );
    ]
