open Vida_data

type t = {
  buf : Raw_buffer.t;
  starts : int array;  (* per object: first byte *)
  stops : int array;  (* per object: end of line, newline excluded *)
  fields : (string, int array) Hashtbl.t;
      (* per top-level field, column-wise like a positional map: the
         offset of the field's value in each object, [absent] when the
         object has no such field, [unknown] until the object is scanned *)
  scanned : Bytes.t;  (* per object: scanned for some field yet *)
  mutable indexed : int;
}

let unknown = -2
let absent = -1

(* Newline-delimited objects: the boundary scan is chunkable at any byte —
   each chunk reports the object bounds fully inside it, plus enough
   structure (first newline, trailing partial) to stitch objects that span
   a chunk edge. We keep it simpler: chunks collect newline offsets and
   the bounds are derived from the stitched offsets, exactly as in the
   sequential scan, so parallel and sequential builds are identical. *)
let collect_newlines s ~source ~lo ~hi =
  let acc = Offsets.create () in
  let poll_source = Some source in
  for i = lo to hi - 1 do
    if String.unsafe_get s i = '\n' then (
      Offsets.push acc i;
      Vida_governor.Governor.poll ?source:poll_source ();
      Epoch.check ~source ())
  done;
  Offsets.contents acc

(* Objects are the non-empty lines between the newlines, from [first]. *)
let object_ranges ~first len newlines =
  let k = Array.length newlines in
  let line_start i = if i = 0 then first else newlines.(i - 1) + 1 in
  let line_stop i = if i = k then len else newlines.(i) in
  let n = ref 0 in
  for i = 0 to k do
    if line_stop i > line_start i then incr n
  done;
  let starts = Array.make !n 0 and stops = Array.make !n 0 in
  let o = ref 0 in
  for i = 0 to k do
    if line_stop i > line_start i then (
      starts.(!o) <- line_start i;
      stops.(!o) <- line_stop i;
      incr o)
  done;
  (starts, stops)

let make buf starts stops =
  { buf; starts; stops; fields = Hashtbl.create 8;
    scanned = Bytes.make (Array.length starts) '\000'; indexed = 0 }

let build ?(domains = 1) buf =
  let s = Raw_buffer.contents buf in
  let len = String.length s in
  Io_stats.add_bytes_read len;
  let source = Raw_buffer.path buf in
  let d = Morsel.domains_for_bytes ~domains len in
  let newlines =
    if d <= 1 then collect_newlines s ~source ~lo:0 ~hi:len
    else (
      let ranges = Morsel.chunks len d in
      let per_chunk =
        Morsel.run ~domains:d ~tasks:(Array.length ranges) (fun c ->
            let lo, hi = ranges.(c) in
            collect_newlines s ~source ~lo ~hi)
      in
      Array.concat (Array.to_list per_chunk))
  in
  let starts, stops = object_ranges ~first:0 len newlines in
  make buf starts stops

let object_count t = Array.length t.starts

(* Extend an index built over the old prefix of [buf] after an append.
   The last old object may have been a partial line (writer paused
   mid-record, no trailing newline yet), so the rescan resumes from its
   start; earlier objects — and the field offsets recorded for them,
   which point into the unchanged prefix — carry over verbatim. *)
let extend t buf =
  let n_old = object_count t in
  if n_old = 0 then build buf
  else (
    let s = Raw_buffer.contents buf in
    let len = String.length s in
    let source = Raw_buffer.path buf in
    let keep = n_old - 1 in
    let resume = t.starts.(keep) in
    Io_stats.add_bytes_read (len - resume);
    let newlines = collect_newlines s ~source ~lo:resume ~hi:len in
    let tail_starts, tail_stops = object_ranges ~first:resume len newlines in
    let t' =
      make buf
        (Array.append (Array.sub t.starts 0 keep) tail_starts)
        (Array.append (Array.sub t.stops 0 keep) tail_stops)
    in
    let n = object_count t' in
    Hashtbl.iter
      (fun field col ->
        let col' = Array.make n unknown in
        Array.blit col 0 col' 0 keep;
        Hashtbl.replace t'.fields field col')
      t.fields;
    Bytes.blit t.scanned 0 t'.scanned 0 keep;
    for i = 0 to keep - 1 do
      if Bytes.get t'.scanned i <> '\000' then t'.indexed <- t'.indexed + 1
    done;
    t')

let object_bounds t i =
  if i < 0 || i >= object_count t then
    Vida_error.invalid_request ~source:(Raw_buffer.path t.buf)
      "Semi_index.object_bounds: object %d out of range" i;
  (t.starts.(i), t.stops.(i) - t.starts.(i))

let object_value t i =
  let pos, len = object_bounds t i in
  let text = Raw_buffer.slice t.buf ~pos ~len in
  Json.parse_substring ~source:(Raw_buffer.path t.buf) text ~pos:0 ~len

(* Scan object [obj]'s top level for [names] (ranges into [starts] /
   [stops]) and record the value offsets in [cols]. *)
let scan t obj names cols starts stops =
  Json.find_fields ~source:(Raw_buffer.path t.buf) (Raw_buffer.contents t.buf)
    ~pos:t.starts.(obj) ~lim:t.stops.(obj) names starts stops;
  for j = 0 to Array.length cols - 1 do
    cols.(j).(obj) <- starts.(j)
  done;
  if Bytes.get t.scanned obj = '\000' then (
    Bytes.set t.scanned obj '\001';
    t.indexed <- t.indexed + 1)

let column t field =
  match Hashtbl.find_opt t.fields field with
  | Some col -> col
  | None ->
    let col = Array.make (object_count t) unknown in
    Hashtbl.replace t.fields field col;
    col

let field_bounds t ~obj ~field =
  ignore (object_bounds t obj);
  Io_stats.add_index_probes 1;
  let col = column t field in
  if col.(obj) = unknown then scan t obj [| field |] [| col |] [| 0 |] [| 0 |];
  let pos = col.(obj) in
  if pos = absent then None
  else
    let stop =
      Json.value_stop ~source:(Raw_buffer.path t.buf) (Raw_buffer.contents t.buf)
        ~lim:t.stops.(obj) pos
    in
    Some (pos, stop - pos)

let field_string t ~obj ~field =
  match field_bounds t ~obj ~field with
  | None -> None
  | Some (pos, len) -> Some (Raw_buffer.slice t.buf ~pos ~len)

let field_value t ~obj ~field =
  match field_bounds t ~obj ~field with
  | None -> Value.Null
  | Some (pos, len) ->
    Io_stats.add_bytes_read len;
    Io_stats.add_objects_parsed 1;
    Json.parse_range ~source:(Raw_buffer.path t.buf) (Raw_buffer.contents t.buf) ~pos
      ~stop:(pos + len)

let decode ?objs t fields ~on_error =
  let n = object_count t in
  let lo, hi = Option.value objs ~default:(0, n) in
  let source = Raw_buffer.path t.buf in
  if lo < 0 || hi > n || lo > hi then
    Vida_error.invalid_request ~source "Semi_index.decode: objects [%d,%d) out of range"
      lo hi;
  let s = Raw_buffer.contents t.buf in
  let names = Array.of_list fields in
  let k = Array.length names in
  (* as in a positional map, a new field's offsets are published only
     once recorded for every object *)
  let full = lo = 0 && hi = n in
  let fresh = Array.map (fun f -> not (Hashtbl.mem t.fields f)) names in
  let cols =
    Array.mapi (fun j f -> if fresh.(j) then Array.make n unknown else column t f) names
  in
  let builders = Array.init k (fun _ -> Column.Builder.create (hi - lo)) in
  let starts = Array.make k 0 and stops = Array.make k 0 in
  let bytes = ref 0 in
  let fail j obj e = Column.Builder.add_value builders.(j) (on_error j obj e) in
  for obj = lo to hi - 1 do
    let known = ref true in
    for j = 0 to k - 1 do
      if cols.(j).(obj) = unknown then known := false
    done;
    match
      if !known then
        for j = 0 to k - 1 do
          starts.(j) <- cols.(j).(obj);
          if starts.(j) <> absent then
            stops.(j) <- Json.value_stop ~source s ~lim:t.stops.(obj) starts.(j)
        done
      else scan t obj names cols starts stops
    with
    | exception Vida_error.Error e ->
      for j = 0 to k - 1 do
        fail j obj e
      done
    | () ->
      for j = 0 to k - 1 do
        let b = builders.(j) and pos = starts.(j) and stop = stops.(j) in
        if pos = absent then Column.Builder.add_null b
        else (
          bytes := !bytes + (stop - pos);
          match s.[pos] with
          | ('-' | '0' .. '9') when Number.add_json b s ~pos ~stop -> ()
          | _ -> (
            match Json.parse_range ~source s ~pos ~stop with
            | v -> Column.Builder.add_value b v
            | exception Vida_error.Error e -> fail j obj e))
      done
  done;
  if full then Array.iteri (fun j f -> if fresh.(j) then Hashtbl.replace t.fields f cols.(j)) names;
  Io_stats.add_objects_parsed (hi - lo);
  Io_stats.add_bytes_read !bytes;
  Array.map Column.Builder.finish builders

let indexed_objects t = t.indexed

let footprint t =
  (16 * object_count t) + (8 * object_count t * Hashtbl.length t.fields)
