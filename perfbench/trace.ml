(* In-memory span recorder for the traced run.

   A span is one call into a layer's public functions, recorded by the
   harness around that call: name, start, end, the span that caused it and
   the request (operation) it belongs to. Spans stay in memory until the
   run ends; then [dump] writes them out and [self_times] derives each
   layer's self time — a span's duration minus the part of it covered by
   its children. With tracing off every call is a plain function call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  req : int;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
}

type t = {
  mutable on : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~on = { on; lock = Mutex.create (); next = 1; spans = [] }
let enabled t = t.on
let set t on = t.on <- on
let now = Unix.gettimeofday

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh_id t = locked t (fun () -> let id = t.next in t.next <- id + 1; id)

let add t ?(parent = 0) ~req name ~start ~stop =
  if t.on then (
    let id = fresh_id t in
    locked t (fun () -> t.spans <- { id; name; parent; req; start; stop } :: t.spans);
    id)
  else 0

(* [span t ~parent ~req name f] runs [f id] inside a span named [name];
   [id] is the parent to hand to child spans. The span is recorded even
   when [f] raises. *)
let span t ?(parent = 0) ~req name f =
  if not t.on then f 0
  else
    let id = fresh_id t in
    let start = now () in
    let record () =
      let stop = now () in
      locked t (fun () -> t.spans <- { id; name; parent; req; start; stop } :: t.spans)
    in
    match f id with
    | r -> record (); r
    | exception e -> record (); raise e

let spans t = List.rev t.spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type layer = { layer : string; self_ms : float; count : int }

(* Self time per span name, largest first, plus the wall time of all root
   spans. *)
let self_times t =
  let spans = spans t in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  let by_name = Hashtbl.create 32 in
  let wall = ref 0. in
  List.iter
    (fun s ->
      if s.parent = 0 then wall := !wall +. (s.stop -. s.start);
      let self =
        s.stop -. s.start
        -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)
      in
      let ms, n = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0., 0) in
      Hashtbl.replace by_name s.name (ms +. (self *. 1000.), n + 1))
    spans;
  let layers =
    Hashtbl.fold (fun layer (self_ms, count) acc -> { layer; self_ms; count } :: acc)
      by_name []
    |> List.sort (fun a b -> compare b.self_ms a.self_ms)
  in
  (layers, !wall *. 1000.)

let print_table ~title t =
  let layers, wall_ms = self_times t in
  Printf.printf "self time by layer, %s (traced wall %.1f ms)\n" title wall_ms;
  Printf.printf "  %-26s %12s %8s %8s\n" "layer" "self ms" "share" "count";
  List.iter
    (fun l ->
      Printf.printf "  %-26s %12.3f %7.2f%% %8d\n" l.layer l.self_ms
        (if wall_ms > 0. then 100. *. l.self_ms /. wall_ms else 0.)
        l.count)
    layers

(* One JSON object per line; times in ms from the first span. *)
let dump t path =
  let spans = spans t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ms\":%.4f,\"end_ms\":%.4f}\n"
        s.id s.name s.parent s.req ((s.start -. t0) *. 1000.) ((s.stop -. t0) *. 1000.))
    spans;
  close_out oc
