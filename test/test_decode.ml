(* Tests for the in-place decoders: the numeric fast path against the
   stdlib conversions (bit for bit), the CSV and JSON-lines column
   decoders against a cell-at-a-time reference under every cleaning
   policy, sampled schema inference against whole-file inference, and the
   allocation of result-cache hits and of registration. *)

open Vida_data
open Vida_raw
module Policy = Vida_cleaning.Policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_file ?(suffix = ".raw") contents =
  let path = Filename.temp_file "vida_decode" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Value equality that tells Int from Float and compares floats bit for
   bit (so -0. <> 0. and NaN = NaN). *)
let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y -> same_float x y
  | Value.Int x, Value.Int y -> x = y
  | (Value.Int _ | Value.Float _), _ | _, (Value.Int _ | Value.Float _) -> false
  | _ -> Value.compare a b = 0

(* --- numeric fast path ------------------------------------------------- *)

let int_fast s = Number.int_at s ~pos:0 ~stop:(String.length s)
let float_fast s = Number.float_at s ~pos:0 ~stop:(String.length s)

(* the fast path either declines or agrees exactly with the stdlib *)
let int_agrees s =
  let v = int_fast s in
  v = min_int || int_of_string_opt s = Some v

let float_agrees s =
  let f = float_fast s in
  Float.is_nan f
  || match float_of_string_opt s with Some g -> same_float f g | None -> false

let edge_cases =
  [ "-0"; "-0.0"; "0"; "0.0"; ".5"; "5."; "-.5"; "1e5"; "1E5"; "1.5e3"; "0x1F"; "0b101";
    "1_000"; "+3"; "inf"; "-inf"; "nan"; "infinity"; "007"; "00.50"; "-007.250";
    "123456789012345"; "1234567890123456"; "12345678901234567"; "123456789012345678";
    "1234567890123456789"; "12345678901234567890"; "99999999999999.9";
    "999999999999999.9"; "0.00000000000001"; "0.000000000000001"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "999999999999999999"; "-999999999999999999"; ""; "-"; "--1"; "1-2"; "1.2.3";
    " 5"; "5 "; "0.1"; "0.2"; "0.3"; "2.675"; "9007199254740993"; "1.7976931348623157" ]

let test_number_edges () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "int %S" s) true (int_agrees s);
      check_bool (Printf.sprintf "float %S" s) true (float_agrees s))
    edge_cases;
  (* what the fast path must take, exactly *)
  check_int "-0 int" 0 (int_fast "-0");
  check_bool "-0 float is -0." true (same_float (-0.) (float_fast "-0"));
  check_bool "-0.0 is -0." true (same_float (-0.) (float_fast "-0.0"));
  check_int "leading zeros" 7 (int_fast "007");
  check_bool "00.50" true (same_float 0.5 (float_fast "00.50"));
  check_int "18 digits" 123456789012345678 (int_fast "123456789012345678");
  check_bool "15 digits" true (same_float 99999999999999.9 (float_fast "99999999999999.9"));
  (* and what it must leave to the general conversion *)
  List.iter
    (fun s -> check_bool (Printf.sprintf "int declines %S" s) true (int_fast s = min_int))
    [ "+3"; "0x1F"; "1_000"; "1234567890123456789"; "4611686018427387903"; "-"; ""; " 5"; "1.0" ];
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "float declines %S" s) true (Float.is_nan (float_fast s)))
    [ ".5"; "5."; "1e5"; "+3"; "inf"; "nan"; "1_000"; "1234567890123456"; "999999999999999.9"; "" ]

(* random text over the characters numbers are made of *)
let gen_numberish =
  QCheck.Gen.(string_size ~gen:(oneofl (String.to_seq "0123456789-+._exEinf " |> List.of_seq)) (int_range 0 22))

let prop_fast_path_agrees =
  QCheck.Test.make ~name:"fast path agrees with int/float_of_string_opt" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_numberish) (fun s ->
      int_agrees s && float_agrees s)

(* well-formed decimals: within the digit budget the fast path must take
   them, and give the same bits as float_of_string *)
let gen_decimal =
  QCheck.Gen.(
    map3
      (fun neg int_digits frac_digits ->
        (if neg then "-" else "") ^ int_digits
        ^ if frac_digits = "" then "" else "." ^ frac_digits)
      bool
      (string_size ~gen:numeral (int_range 1 12))
      (oneof [ return ""; string_size ~gen:numeral (int_range 1 9) ]))

let digits s = String.fold_left (fun n c -> if c >= '0' && c <= '9' then n + 1 else n) 0 s

let prop_decimals_exact =
  QCheck.Test.make ~name:"decimals on the fast path are exact" ~count:2000
    (QCheck.make ~print:Fun.id gen_decimal) (fun s ->
      let f = float_fast s in
      let taken = not (Float.is_nan f) in
      (taken = (digits s <= 15))
      && float_agrees s
      && int_agrees s
      && ((String.contains s '.') || int_fast s <> min_int))

(* JSON numbers keep the parser's Int-vs-Float decision *)
let prop_json_numbers =
  QCheck.Test.make ~name:"json fast path agrees with the parser" ~count:1000
    (QCheck.make ~print:Fun.id gen_decimal) (fun s ->
      let b = Column.Builder.create 1 in
      (not (Number.add_json b s ~pos:0 ~stop:(String.length s)))
      || same_value (Column.get (Column.Builder.finish b) 0) (Json.parse s))

(* --- CSV decode vs a cell-at-a-time reference ---------------------------- *)

type csv_case = {
  text : string;
  tys : Ty.t array;  (* per column *)
  requests : int list;  (* requested columns, in request order *)
  policy : int;  (* index into [policies] *)
}

let policies () =
  [| Policy.make ();
     Policy.make ~on_error:Policy.Null_value ();
     Policy.make ~on_error:Policy.Skip_row ();
     Policy.make ~on_error:Policy.Quarantine ();
     Policy.make ~on_error:Policy.Nearest ~rules:[ ("c2", Policy.Dictionary [ "ab"; "cd" ]) ] ();
     Policy.make ~on_error:Policy.Null_value ~rules:[ ("c1", Policy.Range (0., 50.)) ] () |]

let gen_cell =
  QCheck.Gen.(
    frequency
      [ (4, map string_of_int (int_range (-1000) 1000));
        (4, map (fun (a, b) -> Printf.sprintf "%d.%02d" a b) (pair (int_range (-99) 999) (int_range 0 99)));
        (1, oneofl [ ""; "NULL"; "null"; "NA" ]);
        (1, oneofl [ "\"12\""; "\"1.5\""; "\"a,b\""; "\"q\"\"q\""; "\"x\ny\"" ]);
        (1, oneofl [ "abc"; "ab"; "cd"; "true"; "false"; "1e5"; "0x1F"; "1_000"; "+3"; " 5"; "-0"; "-0.0"; ".5"; "5." ]) ])

let gen_csv_case =
  QCheck.Gen.(
    let* ncols = int_range 1 4 in
    let* tys =
      array_size (return ncols) (oneofl [ Ty.Int; Ty.Float; Ty.Float; Ty.String; Ty.Bool; Ty.Any ])
    in
    let* rows =
      list_size (int_range 0 25)
        (let* width = frequency [ (6, return ncols); (1, int_range 1 (ncols + 1)) ] in
         list_size (return width) gen_cell)
    in
    let* crlf = bool in
    let* requests = list_size (int_range 1 (ncols + 1)) (int_range 0 (ncols - 1)) in
    let* policy = int_range 0 5 in
    let nl = if crlf then "\r\n" else "\n" in
    let header = String.concat "," (List.init ncols (Printf.sprintf "c%d")) in
    let text = String.concat nl (header :: List.map (String.concat ",") rows) ^ nl in
    return { text; tys; requests; policy })

let print_csv_case c =
  Printf.sprintf "%S types=[%s] requests=[%s] policy=%d" c.text
    (String.concat ";" (Array.to_list (Array.map Ty.to_string c.tys)))
    (String.concat ";" (List.map string_of_int c.requests))
    c.policy

(* what a decode produced: the columns, or the error it stopped at, plus
   the rows marked bad and the policy's report *)
type outcome = {
  columns : (Value.t array list, string) result;
  bad : int list;
  report : Policy.report;
  quarantined : Policy.quarantine_entry list;
}

let same_outcome a b =
  (match a.columns, b.columns with
  | Ok xs, Ok ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun x y -> Array.length x = Array.length y && Array.for_all2 same_value x y)
         xs ys
  | Error x, Error y -> String.equal x y
  | _ -> false)
  && a.bad = b.bad && a.report = b.report && a.quarantined = b.quarantined

let clean_cell policy bad pm ~field ty row text =
  let start, stop = Positional_map.row_bounds pm row in
  match Policy.clean ~span:("t.csv", start, stop - start) policy ~field ty text with
  | Ok (Some v) -> v
  | Ok None ->
    Hashtbl.replace bad row ();
    Value.Null
  | Error msg -> Vida_error.parse_error ~source:"t.csv" ~offset:start "%s" msg

let outcome_of policy bad f =
  let columns =
    match f () with
    | cols -> Ok cols
    | exception Vida_error.Error e -> Error (Vida_error.to_string e)
  in
  { columns; bad = List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) bad []);
    report = Policy.report policy; quarantined = Policy.quarantined policy }

(* the reference: every requested cell's text through [Policy.clean],
   row by row, in request order *)
let csv_reference c =
  let policy = (policies ()).(c.policy) and bad = Hashtbl.create 8 in
  let pm = Positional_map.build (Raw_buffer.of_string ~source:"t.csv" c.text) in
  let n = Positional_map.row_count pm in
  outcome_of policy bad (fun () ->
      let cols = List.map (fun _ -> Array.make n Value.Null) c.requests in
      for row = 0 to n - 1 do
        List.iter2
          (fun col arr ->
            arr.(row) <-
              clean_cell policy bad pm ~field:(Printf.sprintf "c%d" col) c.tys.(col) row
                (Positional_map.field pm ~row ~col))
          c.requests cols
      done;
      cols)

(* the decoder, driven as the CSV input plugin drives it *)
let csv_decoded c =
  let policy = (policies ()).(c.policy) and bad = Hashtbl.create 8 in
  let pm = Positional_map.build (Raw_buffer.of_string ~source:"t.csv" c.text) in
  let req = Array.of_list c.requests in
  let field j = Printf.sprintf "c%d" req.(j) in
  let target j =
    if Policy.rules_for policy (field j) <> [] then Positional_map.Text_cells
    else
      match c.tys.(req.(j)) with
      | Ty.Int -> Positional_map.Int_cells
      | Ty.Float -> Positional_map.Float_cells
      | _ -> Positional_map.Text_cells
  in
  outcome_of policy bad (fun () ->
      let cols =
        Positional_map.decode pm
          (List.mapi (fun j col -> (col, target j)) c.requests)
          ~fallback:(fun j row text ->
            clean_cell policy bad pm ~field:(field j) c.tys.(req.(j)) row text)
      in
      Array.to_list
        (Array.map (fun col -> Array.init (Column.length col) (Column.get col)) cols))

let prop_csv_decode =
  QCheck.Test.make ~name:"csv decode == cell-at-a-time clean" ~count:500
    (QCheck.make ~print:print_csv_case gen_csv_case) (fun c ->
      same_outcome (csv_reference c) (csv_decoded c))

(* the decoder records the positions it walked: a later probe of a
   decoded column, or one right of it, starts from them *)
let test_csv_decode_records_positions () =
  let pm = Positional_map.build (Raw_buffer.of_string ~source:"t.csv" "a,b,c,d\n1,2.5,x,4\n5,,y,8\n") in
  let cols =
    Positional_map.decode pm
      [ (3, Positional_map.Int_cells); (1, Positional_map.Float_cells) ]
      ~fallback:(fun _ _ _ -> Alcotest.fail "no cell needs the fallback")
  in
  Alcotest.(check (list int)) "recorded" [ 1; 3 ] (Positional_map.populated_columns pm);
  check_bool "d is unboxed ints" true (match cols.(0) with Column.Ints _ -> true | _ -> false);
  check_bool "b is unboxed floats with a NULL" true
    (match cols.(1) with Column.Floats (_, Some _) -> true | _ -> false);
  check_bool "empty cell is NULL" true (Column.get cols.(1) 1 = Value.Null);
  Io_stats.reset ();
  Alcotest.(check string) "probe via anchor" "8" (Positional_map.field pm ~row:1 ~col:3);
  check_int "one field tokenized" 1 (Io_stats.current ()).Io_stats.fields_tokenized

(* --- JSON-lines decode vs per-object parsing ----------------------------- *)

let gen_json_value =
  QCheck.Gen.(
    frequency
      [ (4, map string_of_int (int_range (-1000) 1000));
        (4, map (fun (a, b) -> Printf.sprintf "%d.%02d" a b) (pair (int_range (-99) 999) (int_range 0 99)));
        (1, oneofl [ "null"; "true"; "\"s\""; "\"a\\\"b\""; "[1, 2.5]"; "{\"k\": 1}"; "-0"; "-0.0"; "1e3"; "12345678901234567890" ]);
        (1, oneofl [ "12-3"; "tru"; "\"\\q\""; "1.2.3" ]) ])

let gen_json_line =
  QCheck.Gen.(
    let* members =
      list_size (int_range 0 4)
        (pair (oneofl [ "\"x\""; "\"y\""; "\"z\""; "\"\\u0078\""; "\"x\\\"\"" ]) gen_json_value)
    in
    let obj =
      "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ ": " ^ v) members) ^ "}"
    in
    frequency
      [ (12, return obj);
        (1, return (String.sub obj 0 (String.length obj - 1)));
        (1, return "[1, 2]");
        (1, return "{\"x\" 1}") ])

let gen_jsonl = QCheck.Gen.(map (String.concat "\n") (list_size (int_range 0 20) gen_json_line))

(* Reference per (object, field): a well-formed object parsed whole, its
   first member of that name; otherwise the semi-index's random-access
   field read. An error is kept as its message. *)
let json_reference si text fields =
  let n = Semi_index.object_count si in
  List.map
    (fun f ->
      Array.init n (fun obj ->
          let pos, len = Semi_index.object_bounds si obj in
          match Json.parse (String.sub text pos len) with
          | Value.Record members -> (
            Ok (match List.assoc_opt f members with Some v -> v | None -> Value.Null))
          | _ | (exception Vida_error.Error _) -> (
            match Semi_index.field_value si ~obj ~field:f with
            | v -> Ok v
            | exception Vida_error.Error e -> Error (Vida_error.to_string e))))
    fields

let prop_json_decode =
  QCheck.Test.make ~name:"json decode == per-object parse" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_jsonl) (fun text ->
      let fields = [ "x"; "y"; "w" ] in
      let si () = Semi_index.build (Raw_buffer.of_string ~source:"t.jsonl" text) in
      let expected = json_reference (si ()) text fields in
      let errors = Hashtbl.create 8 in
      let decoded =
        Semi_index.decode (si ()) fields ~on_error:(fun j obj e ->
            Hashtbl.replace errors (j, obj) (Vida_error.to_string e);
            Value.Null)
      in
      List.for_all2
        (fun exp col ->
          Array.length exp = Column.length col
          && Array.for_all (fun x -> x)
               (Array.mapi
                  (fun obj e ->
                    match e with
                    | Ok v -> same_value v (Column.get col obj)
                    | Error _ -> Column.get col obj = Value.Null)
                  exp))
        expected (Array.to_list decoded)
      (* an object the reference could not read is exactly one the decoder
         reported, with the same error *)
      && List.for_all2
           (fun exp j ->
             Array.for_all (fun x -> x)
               (Array.mapi
                  (fun obj e ->
                    match e, Hashtbl.find_opt errors (j, obj) with
                    | Ok _, None -> true
                    | Error m, Some m' -> String.equal m m'
                    | _ -> false)
                  exp))
           expected [ 0; 1; 2 ])

let test_json_mixed_column () =
  let si =
    Semi_index.build
      (Raw_buffer.of_string ~source:"t.jsonl"
         "{\"a\": 1, \"b\": 2.5, \"c\": 3}\n{\"a\": 2, \"b\": 1, \"c\": null}\n{\"b\": -0.0}\n")
  in
  let cols = Semi_index.decode si [ "a"; "b"; "c" ] ~on_error:(fun _ _ _ -> Alcotest.fail "no error") in
  check_bool "ints with a missing field: unboxed, masked" true
    (match cols.(0) with Column.Ints (_, Some _) -> true | _ -> false);
  check_bool "Int and Float mixed stays boxed" true
    (match cols.(1) with Column.Boxed _ -> true | _ -> false);
  check_bool "the Int keeps its type" true (same_value (Value.Int 1) (Column.get cols.(1) 1));
  check_bool "-0.0 kept" true (same_value (Value.Float (-0.)) (Column.get cols.(1) 2));
  check_bool "null and absent are NULL" true
    (Column.get cols.(2) 1 = Value.Null && Column.get cols.(2) 2 = Value.Null);
  check_int "objects indexed" 3 (Semi_index.indexed_objects si)

(* --- sampled schema inference == whole-file inference -------------------- *)

(* Whole-file inference as registration did it before sampling: the whole
   file loaded and indexed, then the first rows sniffed. *)
module Whole_file = struct
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

  let csv_schema ?(delim = ',') ?(header = true) ?(sample = 100) buf =
    let pm = Positional_map.build ~delim ~header buf in
    let line row =
      let start, stop = Positional_map.row_bounds pm row in
      Csv.split_line ~delim (Raw_buffer.slice buf ~pos:start ~len:(stop - start))
    in
    let names = Positional_map.column_names pm in
    let ncols =
      if names <> [] then List.length names
      else if Positional_map.row_count pm = 0 then 0
      else List.length (line 0)
    in
    let names = if names <> [] then names else List.init ncols (Printf.sprintf "c%d") in
    let types = Array.make ncols None in
    for row = 0 to min sample (Positional_map.row_count pm) - 1 do
      List.iteri
        (fun col field -> if col < ncols then types.(col) <- widen types.(col) (sniff field))
        (line row)
    done;
    Schema.of_pairs
      (List.mapi (fun col name -> (name, Option.value types.(col) ~default:Ty.Any)) names)

  let json_element ?(sample = 50) buf =
    let si = Semi_index.build buf in
    let n = min sample (Semi_index.object_count si) in
    let ty = ref None in
    for i = 0 to n - 1 do
      let t = Value.typeof (Semi_index.object_value si i) in
      ty :=
        Some
          (match !ty with
          | None -> t
          | Some prev -> Option.value (Ty.unify prev t) ~default:Ty.Any)
    done;
    Option.value !ty ~default:Ty.Any
end

let result f =
  match f () with
  | v -> Ok v
  | exception Vida_error.Error e -> Error (Vida_error.to_string e)
  | exception Invalid_argument msg -> Error msg

let same_csv_schema ?header path =
  let sampled = result (fun () -> Vida_catalog.Infer.csv_schema ?header (Raw_buffer.of_path path)) in
  let whole = result (fun () -> Whole_file.csv_schema ?header (Raw_buffer.of_path path)) in
  match sampled, whole with
  | Ok a, Ok b -> Schema.equal a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let same_json_element path =
  let sampled = result (fun () -> Vida_catalog.Infer.json_element (Raw_buffer.of_path path)) in
  let whole = result (fun () -> Whole_file.json_element (Raw_buffer.of_path path)) in
  match sampled, whole with
  | Ok a, Ok b -> Ty.equal a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let corpus_dir =
  lazy
    (let dir = Filename.concat (Filename.get_temp_dir_name ()) "vida_decode_corpus" in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     dir)

let test_infer_hbp () =
  let config = { (Vida_workload.Hbp_data.config_of_scale 0.05) with Vida_workload.Hbp_data.seed = 3 } in
  let p = Vida_workload.Hbp_data.generate config ~dir:(Lazy.force corpus_dir) in
  List.iter
    (fun path ->
      check_bool (Printf.sprintf "%s is larger than the first prefix" path) true
        ((Unix.stat path).Unix.st_size > 64 * 1024);
      check_bool ("csv schema " ^ path) true (same_csv_schema path))
    [ p.Vida_workload.Hbp_data.patients; p.Vida_workload.Hbp_data.genetics ];
  check_bool "json element" true (same_json_element p.Vida_workload.Hbp_data.regions)

let test_infer_bank () =
  let dir = Filename.concat (Lazy.force corpus_dir) "bank" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let p = Vida_workload.Bank_data.generate { Vida_workload.Bank_data.trades = 5000; seed = 7 } ~dir in
  check_bool "trades" true (same_csv_schema p.Vida_workload.Bank_data.trades);
  check_bool "settlements" true (same_csv_schema p.Vida_workload.Bank_data.settlements);
  check_bool "risk" true (same_json_element p.Vida_workload.Bank_data.risk)

(* damaged files: bit flips, stray quotes, garbage, truncation *)
let test_infer_faults () =
  let config = Vida_workload.Hbp_data.config_of_scale 0.05 in
  let p = Vida_workload.Hbp_data.generate config ~dir:(Lazy.force corpus_dir) in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let csv = read p.Vida_workload.Hbp_data.patients in
  let json = read p.Vida_workload.Hbp_data.regions in
  let module FI = Fault_inject in
  let faults =
    [ [ FI.Random_bit_flips 20 ]; [ FI.Garbage_append 4096 ]; [ FI.Truncate_at 70_000 ];
      [ FI.Overwrite { offset = 300; bytes = "\"" } ];
      [ FI.Overwrite { offset = 90_000; bytes = "\"" } ] ]
  in
  List.iteri
    (fun i fs ->
      for seed = 0 to 3 do
        let path = tmp_file ~suffix:".csv" (FI.apply ~seed fs csv) in
        check_bool (Printf.sprintf "csv fault %d seed %d" i seed) true (same_csv_schema path);
        check_bool (Printf.sprintf "headerless csv fault %d seed %d" i seed) true
          (same_csv_schema ~header:false path);
        Sys.remove path;
        let path = tmp_file ~suffix:".jsonl" (FI.apply ~seed fs json) in
        check_bool (Printf.sprintf "json fault %d seed %d" i seed) true (same_json_element path);
        Sys.remove path
      done)
    faults

(* --- allocation: O(1) in file size --------------------------------------- *)

let csv_of_rows n =
  let b = Buffer.create (n * 16) in
  Buffer.add_string b "id,v\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "%d,%d\n" i (i mod 97)
  done;
  tmp_file ~suffix:".csv" (Buffer.contents b)

let major_words () = (Gc.quick_stat ()).Gc.major_words

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let test_result_hit_o1 () =
  let per_hit rows =
    let path = csv_of_rows rows in
    let db = Vida.create () in
    Vida.csv db ~name:"T" ~path ();
    let q = "for { t <- T } yield sum t.v" in
    ignore (Vida.query_value db q);
    Gc.full_major ();
    let m0 = major_words () in
    for _ = 1 to 10 do
      match Vida.query db q with
      | Ok r -> check_bool "served from the result cache" true r.Vida.from_result_cache
      | Error e -> Alcotest.fail (Vida.error_to_string e)
    done;
    Sys.remove path;
    (major_words () -. m0) /. 10.
  in
  let small = per_hit 20_000 and large = per_hit 200_000 in
  check_bool (Printf.sprintf "small file: %.0f major words per hit" small) true (small < 10_000.);
  check_bool (Printf.sprintf "10x file: %.0f major words per hit" large) true (large < 10_000.)

let test_registration_o1 () =
  let register rows =
    let path = csv_of_rows rows in
    let jpath =
      tmp_file ~suffix:".jsonl"
        (String.concat "" (List.init rows (fun i -> Printf.sprintf "{\"id\": %d, \"v\": 1.5}\n" i)))
    in
    let db = Vida.create () in
    Gc.full_major ();
    let w0 = words () in
    Vida.csv db ~name:"T" ~path ();
    Vida.json db ~name:"J" ~path:jpath ();
    let w = words () -. w0 in
    Sys.remove path;
    Sys.remove jpath;
    w
  in
  let small = register 20_000 and large = register 200_000 in
  (* a whole-file registration allocates the file itself: ~40k words for
     the small CSV alone, ~400k for the large one *)
  check_bool (Printf.sprintf "small: %.0f words" small) true (small < 100_000.);
  check_bool (Printf.sprintf "10x: %.0f words" large) true (large < 100_000.);
  check_bool "does not grow with the file" true (large < small *. 1.5)

(* a row-length violation past the sample surfaces at the first query *)
let test_late_row_error () =
  let b = Buffer.create 8192 in
  Buffer.add_string b "id,name\n";
  (* well past the first 64 kB the registration samples *)
  for i = 0 to 20_000 do
    Printf.bprintf b "%d,n%d\n" i i
  done;
  Buffer.add_string b "20001,\"unterminated ";
  Buffer.add_string b (String.make 2000 'x');
  let path = tmp_file ~suffix:".csv" (Buffer.contents b) in
  let limits = { Vida_error.Limits.default with max_row_bytes = 1024 } in
  Vida_error.Limits.with_limits limits (fun () ->
      let db = Vida.create () in
      Vida.csv db ~name:"T" ~path ();
      match Vida.query db "for { t <- T } yield count t" with
      | Ok _ -> Alcotest.fail "runaway row not caught"
      | Error (Vida.Data_error (Vida_error.Resource_limit { what; _ })) ->
        Alcotest.(check string) "guard" "row length" what
      | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e));
  Sys.remove path

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vida_decode"
    [ ("number", [ Alcotest.test_case "edge cases" `Quick test_number_edges ]);
      qsuite "number-properties" [ prop_fast_path_agrees; prop_decimals_exact; prop_json_numbers ];
      ( "csv",
        [ Alcotest.test_case "decode records positions" `Quick test_csv_decode_records_positions ] );
      qsuite "csv-properties" [ prop_csv_decode ];
      ("json", [ Alcotest.test_case "mixed column" `Quick test_json_mixed_column ]);
      qsuite "json-properties" [ prop_json_decode ];
      ( "infer",
        [ Alcotest.test_case "hbp corpus" `Quick test_infer_hbp;
          Alcotest.test_case "bank corpus" `Quick test_infer_bank;
          Alcotest.test_case "fault corpus" `Quick test_infer_faults;
          Alcotest.test_case "late row error" `Quick test_late_row_error ] );
      ( "allocation",
        [ Alcotest.test_case "result hit O(1)" `Quick test_result_hit_o1;
          Alcotest.test_case "registration O(1)" `Quick test_registration_o1 ] ) ]
