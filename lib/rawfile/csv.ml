open Vida_data

(* [next_pos] convention: a value strictly greater than [row_end] means the
   row is exhausted; otherwise it is the start offset of the next field.

   The tokenizer core works on the whole file as one immutable string:
   [row_end] is clamped to the string length once on entry, after which
   every access below is within-bounds by construction, so the hot loops
   read with [String.unsafe_get] instead of paying a per-byte check. It
   writes its three results into a caller-owned cursor, so a scan loop
   allocates nothing per field. *)
type cursor = { mutable start : int; mutable stop : int; mutable next : int }

let cursor () = { start = 0; stop = 0; next = 0 }

let scan_field c ~delim s ~row_end pos =
  (* [Int.min]: the polymorphic [min] would be a C call per field *)
  let row_end = Int.min row_end (String.length s) in
  if pos >= 0 && pos < row_end && String.unsafe_get s pos = '"' then (
    let i = ref (pos + 1) and close = ref (-1) in
    while !close < 0 do
      if !i >= row_end then close := !i
      else if String.unsafe_get s !i = '"' then
        if !i + 1 < row_end && String.unsafe_get s (!i + 1) = '"' then i := !i + 2
        else close := !i
      else incr i
    done;
    (* Tolerate stray bytes between the closing quote and the delimiter
       (e.g. ["abc"x,next]): the field keeps its quoted content and the
       scan resyncs at the next delimiter instead of dropping the rest of
       the row. *)
    let j = ref (!close + 1) in
    while !j < row_end && String.unsafe_get s !j <> delim do incr j done;
    c.start <- pos + 1;
    c.stop <- !close;
    c.next <- (if !j >= row_end then row_end + 1 else !j + 1))
  else (
    let pos = Int.max 0 pos in
    let i = ref pos in
    while !i < row_end && String.unsafe_get s !i <> delim do incr i done;
    c.start <- pos;
    c.stop <- !i;
    c.next <- (if !i < row_end then !i + 1 else row_end + 1))

let field_bounds_str ~delim s ~row_end pos =
  Io_stats.add_fields_tokenized 1;
  let c = cursor () in
  scan_field c ~delim s ~row_end pos;
  (c.start, c.stop, c.next)

let field_bounds ~delim buf ~row_end pos =
  field_bounds_str ~delim (Raw_buffer.contents buf) ~row_end pos

let skip_fields_str ~delim s ~row_end pos n =
  let c = cursor () in
  let pos = ref pos in
  for _ = 1 to n do
    scan_field c ~delim s ~row_end !pos;
    pos := c.next
  done;
  Io_stats.add_fields_tokenized (Int.max n 0);
  !pos

let skip_fields ~delim buf ~row_end pos n =
  skip_fields_str ~delim (Raw_buffer.contents buf) ~row_end pos n

let unescape_quotes s =
  if not (String.contains s '"') then s
  else (
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i < String.length s then
        if s.[i] = '"' && i + 1 < String.length s && s.[i + 1] = '"' then (
          Buffer.add_char buf '"';
          go (i + 2))
        else (
          Buffer.add_char buf s.[i];
          go (i + 1))
    in
    go 0;
    Buffer.contents buf)

let field_text s ~start ~stop ~quoted =
  let len = stop - start in
  Io_stats.add_bytes_read len;
  let raw = String.sub s start len in
  if quoted then unescape_quotes raw else raw

let field_content_str ~delim s ~row_end pos =
  let start, stop, next = field_bounds_str ~delim s ~row_end pos in
  (field_text s ~start ~stop ~quoted:(start > pos), next)

let field_content ~delim buf ~row_end pos =
  field_content_str ~delim (Raw_buffer.contents buf) ~row_end pos

let split_line ~delim line =
  let n = String.length line in
  let fields = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    if !pos > n then continue := false
    else if !pos < n && line.[!pos] = '"' then (
      let b = Buffer.create 16 in
      let i = ref (!pos + 1) in
      let closed = ref false in
      while not !closed do
        if !i >= n then closed := true
        else if line.[!i] = '"' then
          if !i + 1 < n && line.[!i + 1] = '"' then (
            Buffer.add_char b '"';
            i := !i + 2)
          else (
            closed := true;
            incr i)
        else (
          Buffer.add_char b line.[!i];
          incr i)
      done;
      fields := Buffer.contents b :: !fields;
      (* same trailing-byte tolerance as [field_bounds] *)
      let rec to_delim i =
        if i >= n then n + 1 else if line.[i] = delim then i + 1 else to_delim (i + 1)
      in
      pos := to_delim !i)
    else (
      let stop =
        match String.index_from_opt line !pos delim with
        | Some i when i <= n -> i
        | _ -> n
      in
      fields := String.sub line !pos (stop - !pos) :: !fields;
      if stop < n then pos := stop + 1 else pos := n + 1)
  done;
  List.rev !fields

let is_null_text s =
  s = "" || s = "NULL" || s = "null" || s = "NA"

let convert ty s =
  if is_null_text s then Value.Null
  else (
    Io_stats.add_values_converted 1;
    match ty with
    | Ty.Int -> (
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> Value.type_error "CSV field %S is not an int" s)
    | Ty.Float -> (
      match float_of_string_opt s with
      | Some f -> Value.Float f
      | None -> Value.type_error "CSV field %S is not a float" s)
    | Ty.Bool -> (
      match s with
      | "true" | "TRUE" | "1" | "t" -> Value.Bool true
      | "false" | "FALSE" | "0" | "f" -> Value.Bool false
      | _ -> Value.type_error "CSV field %S is not a bool" s)
    | Ty.String -> Value.String s
    | Ty.Any -> (
      (* schema-less source: sniff the narrowest scalar type *)
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> (
          match s with
          | "true" -> Value.Bool true
          | "false" -> Value.Bool false
          | _ -> Value.String s)))
    | (Ty.Record _ | Ty.Coll _) as ty ->
      Value.type_error "CSV cannot hold a %s field" (Ty.to_string ty))

let needs_quoting ~delim s =
  String.exists (fun c -> c = delim || c = '"' || c = '\n' || c = '\r') s

let escape_field ~delim s =
  if not (needs_quoting ~delim s) then s
  else (
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf)

let write_fields oc ~delim fields =
  List.iteri
    (fun i f ->
      if i > 0 then output_char oc delim;
      output_string oc (escape_field ~delim f))
    fields;
  output_char oc '\n'

let write_header = write_fields
let write_row = write_fields

let render_value = function
  | Value.Null -> ""
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  | Value.String s -> s
  | (Value.Record _ | Value.List _ | Value.Bag _ | Value.Set _ | Value.Array _) as v ->
    (* nested data flattened into CSV is serialized as JSON text *)
    Value.to_json v
