(* The benchmark's own spans, recorded around its calls into each layer
   (nothing inside lib/ is instrumented). Spans stay in memory and are
   written out as a Chrome trace when the run ends; per-layer metrics are
   computed from them. Recording is off unless a traced run enables it. *)

type t = {
  id : int;
  parent : int;  (** 0 = a root span *)
  name : string;
  start_ns : int;
  end_ns : int;
  tid : int;  (** Chrome track: 0 for the benchmark process, k for worker k *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

let add ?(parent = 0) ?(tid = 0) name ~start_ns ~end_ns =
  if !enabled then begin
    let id = Atomic.fetch_and_add next_id 1 in
    Mutex.protect lock (fun () ->
        recorded := { id; parent; name; start_ns; end_ns; tid } :: !recorded);
    id
  end
  else 0

(* [f] receives the span's id, to parent the spans it causes. *)
let with_ ?parent name f =
  if not !enabled then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start_ns = Util.now_ns () in
    let finish () =
      let s = { id; parent = Option.value parent ~default:0; name; start_ns;
                end_ns = Util.now_ns (); tid = 0 } in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    match f id with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let to_chrome spans =
  let module J = Util.Json in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let us ns = J.Float (float_of_int (ns - t0) /. 1000.) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("ph", J.Str "X");
                   ("pid", J.Int 1);
                   ("tid", J.Int s.tid);
                   ("ts", us s.start_ns);
                   ("dur", J.Float (float_of_int (s.end_ns - s.start_ns) /. 1000.));
                   ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
                 ])
             spans) );
    ]
