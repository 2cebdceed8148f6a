open Vida_data

let default_source = "json"

let error ~source pos fmt = Vida_error.parse_error ~source ~offset:pos fmt

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Every scanner below reads [s] up to an exclusive bound [lim] instead of
   its length, so a value can be parsed in place inside the whole file
   without copying its bytes out first, and still sees exactly the bytes
   a copy would hold. They take [0 <= pos] and [lim <= String.length s]
   (the entry points check both) and read with [String.unsafe_get] below
   [lim]. *)
let in_range s pos =
  if pos < 0 || pos > String.length s then invalid_arg "Json: offset out of range"

let skip_ws s lim pos =
  let p = ref pos in
  while !p < lim && is_ws (String.unsafe_get s !p) do
    incr p
  done;
  !p

let parse_string_at ~source s lim pos =
  (* pos points at the opening quote; returns (content, next_pos) *)
  let buf = Buffer.create 16 in
  let n = lim in
  let rec go i =
    if i >= n then error ~source i "unterminated string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
        if i + 1 >= n then error ~source i "dangling escape";
        (match s.[i + 1] with
        | '"' -> Buffer.add_char buf '"'; ()
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if i + 5 >= n then error ~source i "truncated unicode escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
            | Some c -> c
            | None -> error ~source i "malformed unicode escape"
          in
          (* encode as UTF-8; surrogate pairs are passed through raw *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then (
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
          else (
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
        | c -> error ~source i "bad escape \\%c" c);
        if s.[i + 1] = 'u' then go (i + 6) else go (i + 2)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  let next = go (pos + 1) in
  (Buffer.contents buf, next)

(* The helpers a structural scan runs per member are top-level functions
   with explicit operands, so scanning allocates no closures. *)
let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let number_end s lim pos =
  let i = ref pos in
  while !i < lim && is_number_char (String.unsafe_get s !i) do
    incr i
  done;
  !i

let parse_number ~source s lim pos =
  let stop = number_end s lim pos in
  let text = String.sub s pos (stop - pos) in
  let v =
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then (
      match float_of_string_opt text with
      | Some f -> Value.Float f
      | None -> error ~source pos "malformed number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Value.Float f
        | None -> error ~source pos "malformed number %S" text)
  in
  (v, stop)

let rec literal_at s pos lit i =
  i = String.length lit || (s.[pos + i] = lit.[i] && literal_at s pos lit (i + 1))

let skip_literal ~source s lim pos lit =
  let n = String.length lit in
  if pos + n <= lim && literal_at s pos lit 0 then pos + n
  else error ~source pos "expected %s" lit

let expect ~source s lim pos lit v = (v, skip_literal ~source s lim pos lit)

let rec parse_value ~source ~depth s lim pos =
  Vida_error.Limits.check_nesting ~source ~offset:pos depth;
  let pos = skip_ws s lim pos in
  if pos >= lim then error ~source pos "unexpected end of input";
  match s.[pos] with
  | '{' ->
    let fields = ref [] in
    let nfields = ref 0 in
    let pos = skip_ws s lim (pos + 1) in
    if pos < lim && s.[pos] = '}' then (Value.Record [], pos + 1)
    else (
      let rec members pos =
        let pos = skip_ws s lim pos in
        if pos >= lim || s.[pos] <> '"' then error ~source pos "expected field name";
        let name, pos = parse_string_at ~source s lim pos in
        let pos = skip_ws s lim pos in
        if pos >= lim || s.[pos] <> ':' then error ~source pos "expected ':'";
        let v, pos = parse_value ~source ~depth:(depth + 1) s lim (pos + 1) in
        fields := (name, v) :: !fields;
        incr nfields;
        Vida_error.Limits.check_fields ~source ~offset:pos !nfields;
        let pos = skip_ws s lim pos in
        if pos < lim && s.[pos] = ',' then members (pos + 1)
        else if pos < lim && s.[pos] = '}' then pos + 1
        else error ~source pos "expected ',' or '}'"
      in
      let pos = members pos in
      (Value.Record (List.rev !fields), pos))
  | '[' ->
    let items = ref [] in
    let pos = skip_ws s lim (pos + 1) in
    if pos < lim && s.[pos] = ']' then (Value.List [], pos + 1)
    else (
      let rec elements pos =
        let v, pos = parse_value ~source ~depth:(depth + 1) s lim pos in
        items := v :: !items;
        let pos = skip_ws s lim pos in
        if pos < lim && s.[pos] = ',' then elements (pos + 1)
        else if pos < lim && s.[pos] = ']' then pos + 1
        else error ~source pos "expected ',' or ']'"
      in
      let pos = elements pos in
      (Value.List (List.rev !items), pos))
  | '"' ->
    let str, pos = parse_string_at ~source s lim pos in
    (Value.String str, pos)
  | 't' -> expect ~source s lim pos "true" (Value.Bool true)
  | 'f' -> expect ~source s lim pos "false" (Value.Bool false)
  | 'n' -> expect ~source s lim pos "null" Value.Null
  | '-' | '0' .. '9' -> parse_number ~source s lim pos
  | c -> error ~source pos "unexpected character %C" c

let parse ?(source = default_source) s =
  let lim = String.length s in
  let v, pos = parse_value ~source ~depth:0 s lim 0 in
  let pos = skip_ws s lim pos in
  if pos <> lim then error ~source pos "trailing input"
  else (
    Io_stats.add_objects_parsed 1;
    v)

let parse_substring ?(source = default_source) s ~pos ~len =
  in_range s pos;
  let lim = String.length s in
  let v, stop = parse_value ~source ~depth:0 s lim pos in
  let stop = skip_ws s lim stop in
  if stop > pos + len then error ~source stop "value extends past range"
  else (
    Io_stats.add_objects_parsed 1;
    v)

let parse_range ?(source = default_source) s ~pos ~stop =
  in_range s pos;
  fst (parse_value ~source ~depth:0 s (Int.min stop (String.length s)) pos)

(* Structural skip: navigate past a value without building it. *)
let rec skip_value_at ~source ~depth s lim pos =
  Vida_error.Limits.check_nesting ~source ~offset:pos depth;
  let pos = skip_ws s lim pos in
  if pos >= lim then error ~source pos "unexpected end of input";
  match s.[pos] with
  | '"' -> skip_string ~source s lim pos
  | '{' -> skip_composite ~source s lim (pos + 1) '}' (fun pos ->
      let pos = skip_ws s lim pos in
      let pos = skip_string ~source s lim pos in
      let pos = skip_ws s lim pos in
      if pos >= lim || s.[pos] <> ':' then error ~source pos "expected ':'";
      skip_value_at ~source ~depth:(depth + 1) s lim (pos + 1))
  | '[' -> skip_composite ~source s lim (pos + 1) ']' (fun pos ->
      skip_value_at ~source ~depth:(depth + 1) s lim pos)
  | 't' -> skip_literal ~source s lim pos "true"
  | 'f' -> skip_literal ~source s lim pos "false"
  | 'n' -> skip_literal ~source s lim pos "null"
  | '-' | '0' .. '9' -> number_end s lim pos
  | c -> error ~source pos "unexpected character %C" c

(* pos at opening quote *)
and skip_string ~source s lim pos = string_end ~source s lim (pos + 1)

and string_end ~source s lim i =
  let i = ref i in
  while !i < lim && String.unsafe_get s !i <> '"' do
    i := !i + if String.unsafe_get s !i = '\\' then 2 else 1
  done;
  if !i >= lim then error ~source !i "unterminated string" else !i + 1

and skip_composite ~source s lim pos closer skip_member =
  let pos = skip_ws s lim pos in
  if pos < lim && s.[pos] = closer then pos + 1
  else (
    let rec members pos =
      let pos = skip_member pos in
      let pos = skip_ws s lim pos in
      if pos < lim && s.[pos] = ',' then members (pos + 1)
      else if pos < lim && s.[pos] = closer then pos + 1
      else error ~source pos "expected ',' or closer"
    in
    members pos)

let skip_value ?(source = default_source) s pos =
  in_range s pos;
  skip_value_at ~source ~depth:0 s (String.length s) pos

let value_stop ?(source = default_source) s ~lim pos =
  in_range s pos;
  skip_value_at ~source ~depth:1 s (Int.min lim (String.length s)) pos

(* Does the member name whose opening quote is at [p] equal [name]?
   Compared in place; only called on names without escapes. *)
let rec name_is s lim p name i =
  if i = String.length name then p + 1 + i < lim && s.[p + 1 + i] = '"'
  else
    p + 1 + i < lim
    && name.[i] <> '"'
    && s.[p + 1 + i] = name.[i]
    && name_is s lim p name (i + 1)

(* Offset past the closing quote of a name, or -1 when the name holds an
   escape (or is unterminated): the parser then decodes it. *)
let name_end s lim i =
  let i = ref i in
  while !i < lim && String.unsafe_get s !i <> '"' && String.unsafe_get s !i <> '\\' do
    incr i
  done;
  if !i < lim && String.unsafe_get s !i = '"' then !i + 1 else -1

(* [skip_value_at] at member depth, with the scalar cases a record holds
   most often taken first *)
let member_value_end ~source s lim v =
  Vida_error.Limits.check_nesting ~source ~offset:v 1;
  if v >= lim then error ~source v "unexpected end of input";
  match String.unsafe_get s v with
  | '"' -> string_end ~source s lim (v + 1)
  | '-' | '0' .. '9' -> number_end s lim v
  | _ -> skip_value_at ~source ~depth:1 s lim v

let rec find_members ~source s lim names starts stops nfields p =
  let p = skip_ws s lim p in
  if p >= lim || s.[p] <> '"' then error ~source p "expected field name";
  let name_start = p in
  let q = name_end s lim (p + 1) in
  (* an escaped name is decoded, and validated, as the parser would *)
  let decoded = if q < 0 then Some (parse_string_at ~source s lim p) else None in
  let p = match decoded with Some (_, p) -> p | None -> q in
  let p = skip_ws s lim p in
  if p >= lim || s.[p] <> ':' then error ~source p "expected ':'";
  let vstart = skip_ws s lim (p + 1) in
  let vstop = member_value_end ~source s lim vstart in
  for j = 0 to Array.length names - 1 do
    if starts.(j) < 0
       && (match decoded with
          | Some (name, _) -> String.equal name names.(j)
          | None ->
            String.length names.(j) = q - name_start - 2
            && name_is s lim name_start names.(j) 0)
    then (
      starts.(j) <- vstart;
      stops.(j) <- vstop)
  done;
  Vida_error.Limits.check_fields ~source ~offset:p nfields;
  let p = skip_ws s lim vstop in
  if p < lim && s.[p] = ',' then
    find_members ~source s lim names starts stops (nfields + 1) (p + 1)
  else if p < lim && s.[p] = '}' then ()
  else error ~source p "expected ',' or '}'"

let find_fields ?(source = default_source) s ~pos ~lim names starts stops =
  in_range s pos;
  let lim = Int.min lim (String.length s) in
  Array.fill starts 0 (Array.length names) (-1);
  let start = skip_ws s lim pos in
  if start >= lim || s.[start] <> '{' then error ~source start "expected an object";
  let p = skip_ws s lim (start + 1) in
  if not (p < lim && s.[p] = '}') then find_members ~source s lim names starts stops 1 p
