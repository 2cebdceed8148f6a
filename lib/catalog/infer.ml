open Vida_data
open Vida_raw

(* Narrowest scalar type of a single CSV field; [None] for null-ish text,
   which constrains nothing. *)
let sniff s : Ty.t option =
  if s = "" || s = "NULL" || s = "null" || s = "NA" then None
  else if int_of_string_opt s <> None then Some Ty.Int
  else if float_of_string_opt s <> None then Some Ty.Float
  else if s = "true" || s = "false" then Some Ty.Bool
  else Some Ty.String

let widen a b =
  match a, b with
  | None, t | t, None -> t
  | Some a, Some b ->
    Some
      (match a, b with
      | Ty.Int, Ty.Int -> Ty.Int
      | (Ty.Int | Ty.Float), (Ty.Int | Ty.Float) -> Ty.Float
      | Ty.Bool, Ty.Bool -> Ty.Bool
      | _ -> Ty.String)

(* Registration reads a sample, not the file: a bounded prefix, doubled
   until it holds [rows] complete records (or is the whole file), with the
   structure built over just those bytes. Unless the prefix is the whole
   file its last record may be cut off, so it must hold one record more
   than the sample. A row beyond the prefix is first read — and its
   errors surface — at the first query. *)
let initial_prefix = 64 * 1024

let sampled buf ~build ~count ~rows =
  let rec go len =
    let text, whole = Raw_buffer.prefix buf len in
    let pbuf = Raw_buffer.of_string ~source:(Raw_buffer.path buf) text in
    let structure = build pbuf in
    if whole then (pbuf, structure, count structure)
    else if count structure > rows then (pbuf, structure, rows)
    else go (2 * len)
  in
  go initial_prefix

let csv_schema ?(delim = ',') ?(header = true) ?(sample = 100) buf =
  let pbuf, pm, nrows =
    sampled buf ~rows:sample ~count:Positional_map.row_count
      ~build:(fun b -> Positional_map.build ~delim ~header b)
  in
  let line row =
    let start, stop = Positional_map.row_bounds pm row in
    Csv.split_line ~delim (Raw_buffer.slice pbuf ~pos:start ~len:(stop - start))
  in
  let names = Positional_map.column_names pm in
  let ncols =
    if names <> [] then List.length names else if nrows = 0 then 0 else List.length (line 0)
  in
  let names =
    if names <> [] then names else List.init ncols (Printf.sprintf "c%d")
  in
  let types = Array.make ncols None in
  for row = 0 to min sample nrows - 1 do
    List.iteri
      (fun col field -> if col < ncols then types.(col) <- widen types.(col) (sniff field))
      (line row)
  done;
  Schema.of_pairs
    (List.mapi
       (fun col name ->
         (name, match types.(col) with Some t -> t | None -> Ty.Any))
       names)

let xml_element ?(sample = 50) buf =
  let xi = Xml_index.build buf in
  let n = min sample (Xml_index.element_count xi) in
  let rec go acc i =
    if i >= n then acc
    else
      let ty = Value.typeof (Xml_index.element_value xi i) in
      let acc' =
        match acc with
        | None -> Some ty
        | Some prev -> (
          match Ty.unify prev ty with Some t -> Some t | None -> Some Ty.Any)
      in
      go acc' (i + 1)
  in
  match go None 0 with Some t -> t | None -> Ty.Any

let json_element ?(sample = 50) buf =
  let _, si, n =
    sampled buf ~rows:sample ~count:Semi_index.object_count ~build:(fun b -> Semi_index.build b)
  in
  let n = min sample n in
  let rec go acc i =
    if i >= n then acc
    else
      let ty = Value.typeof (Semi_index.object_value si i) in
      let acc' =
        match acc with
        | None -> Some ty
        | Some prev -> (
          match Ty.unify prev ty with Some t -> Some t | None -> Some Ty.Any)
      in
      go acc' (i + 1)
  in
  match go None 0 with Some t -> t | None -> Ty.Any
