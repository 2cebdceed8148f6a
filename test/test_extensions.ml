(* Tests for the paper's §5/§7 extensions: data cleaning, result re-use,
   runtime feedback, and the XML format. *)

open Vida_data
open Vida_cleaning

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file contents =
  let path = Filename.temp_file "vida_test" ".raw" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* --- distances --- *)

let test_hamming () =
  check_bool "equal" true (Distance.hamming "abc" "abc" = Some 0);
  check_bool "one diff" true (Distance.hamming "abc" "abd" = Some 1);
  check_bool "length mismatch" true (Distance.hamming "ab" "abc" = None)

let test_levenshtein () =
  check_int "identity" 0 (Distance.levenshtein "kitten" "kitten");
  check_int "classic" 3 (Distance.levenshtein "kitten" "sitting");
  check_int "insert" 1 (Distance.levenshtein "geneva" "genevas");
  check_int "empty" 6 (Distance.levenshtein "" "kitten")

let prop_levenshtein_symmetric =
  let gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (int_range 0 8)) in
  QCheck.Test.make ~name:"levenshtein symmetric" ~count:200
    (QCheck.pair (QCheck.make gen) (QCheck.make gen)) (fun (a, b) ->
      Distance.levenshtein a b = Distance.levenshtein b a)

let prop_levenshtein_zero_iff_equal =
  let gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 0 6)) in
  QCheck.Test.make ~name:"levenshtein zero iff equal" ~count:200
    (QCheck.pair (QCheck.make gen) (QCheck.make gen)) (fun (a, b) ->
      Distance.levenshtein a b = 0 = String.equal a b)

let test_nearest () =
  let dict = [ "geneva"; "zurich"; "basel" ] in
  check_bool "typo repaired" true (Distance.nearest dict "genva" = Some "geneva");
  check_bool "swap repaired" true (Distance.nearest dict "zurihc" = Some "zurich");
  check_bool "too far" true (Distance.nearest dict "madrid" = None);
  check_bool "exact" true (Distance.nearest dict "basel" = Some "basel")

(* --- policy --- *)

let test_policy_strict () =
  let p = Policy.make () in
  check_bool "good value" true (Policy.clean p ~field:"x" Ty.Int "42" = Ok (Some (Value.Int 42)));
  check_bool "bad errors" true (Result.is_error (Policy.clean p ~field:"x" Ty.Int "oops"))

let test_policy_null () =
  let p = Policy.make ~on_error:Policy.Null_value () in
  check_bool "nulled" true (Policy.clean p ~field:"x" Ty.Int "oops" = Ok (Some Value.Null));
  check_int "reported" 1 (Policy.report p).Policy.nulled

let test_policy_skip () =
  let p = Policy.make ~on_error:Policy.Skip_row () in
  check_bool "row dropped" true (Policy.clean p ~field:"x" Ty.Int "oops" = Ok None);
  check_int "reported" 1 (Policy.report p).Policy.rows_skipped

let test_policy_dictionary_repair () =
  let p =
    Policy.make ~on_error:Policy.Nearest
      ~rules:[ ("city", Policy.Dictionary [ "geneva"; "zurich" ]) ]
      ()
  in
  check_bool "repaired" true
    (Policy.clean p ~field:"city" Ty.String "genva" = Ok (Some (Value.String "geneva")));
  check_bool "unrepairable -> null" true
    (Policy.clean p ~field:"city" Ty.String "london" = Ok (Some Value.Null));
  let r = Policy.report p in
  check_int "one repaired" 1 r.Policy.repaired;
  check_int "one nulled" 1 r.Policy.nulled

let test_policy_range_rule () =
  let p =
    Policy.make ~on_error:Policy.Null_value ~rules:[ ("age", Policy.Range (0., 120.)) ] ()
  in
  check_bool "in range" true (Policy.clean p ~field:"age" Ty.Int "44" = Ok (Some (Value.Int 44)));
  check_bool "out of range nulled" true
    (Policy.clean p ~field:"age" Ty.Int "999" = Ok (Some Value.Null));
  check_bool "null passes rules" true
    (Policy.clean p ~field:"age" Ty.Int "" = Ok (Some Value.Null))

(* --- cleaning through the engine --- *)

let dirty_csv =
  "id,age,city\n1,34,geneva\n2,oops,zurich\n3,52,genva\n4,28,basel\n"

let test_engine_strict_fails () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file dirty_csv)
    ~schema:(Schema.of_pairs [ ("id", Ty.Int); ("age", Ty.Int); ("city", Ty.String) ])
    ();
  match Vida.query db "for { p <- P } yield sum p.age" with
  | Error (Vida.Data_error (Vida_error.Parse_error { source = "P"; _ })) -> ()
  | Ok r -> Alcotest.failf "expected failure, got %s" (Value.to_string r.Vida.value)
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)

let test_engine_null_policy () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file dirty_csv)
    ~schema:(Schema.of_pairs [ ("id", Ty.Int); ("age", Ty.Int); ("city", Ty.String) ])
    ();
  Vida.set_cleaning db ~source:"P" (Policy.make ~on_error:Policy.Null_value ());
  (* the bad age becomes NULL and is skipped by sum *)
  check_value "sum skips nulled" (Value.Int 114)
    (Vida.query_value db "for { p <- P } yield sum p.age");
  check_value "count keeps rows" (Value.Int 4)
    (Vida.query_value db "for { p <- P } yield count p")

let test_engine_skip_policy () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file dirty_csv)
    ~schema:(Schema.of_pairs [ ("id", Ty.Int); ("age", Ty.Int); ("city", Ty.String) ])
    ();
  Vida.set_cleaning db ~source:"P" (Policy.make ~on_error:Policy.Skip_row ());
  check_value "row dropped" (Value.Int 3)
    (Vida.query_value db "for { p <- P } yield count p");
  check_int "problematic entry recorded" 1 (Vida.problematic_entries db ~source:"P");
  (* subsequent queries keep skipping the same entry *)
  check_value "still dropped" (Value.Int 114)
    (Vida.query_value db "for { p <- P } yield sum p.age")

let test_engine_nearest_policy () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file dirty_csv)
    ~schema:(Schema.of_pairs [ ("id", Ty.Int); ("age", Ty.Any); ("city", Ty.String) ])
    ();
  Vida.set_cleaning db ~source:"P"
    (Policy.make ~on_error:Policy.Nearest
       ~rules:[ ("city", Policy.Dictionary [ "geneva"; "zurich"; "basel" ]) ]
       ());
  (* the "genva" typo is repaired, so geneva counts twice *)
  check_value "typo repaired" (Value.Int 2)
    (Vida.query_value db "for { p <- P, p.city = \"geneva\" } yield count p");
  check_bool "repair reported" true
    ((Vida.cleaning_report db ~source:"P").Policy.repaired >= 1)

let test_engine_json_skip_malformed () =
  let jsonl = "{\"id\": 1, \"v\": 5}\nTHIS IS NOT JSON\n{\"id\": 3, \"v\": 7}\n" in
  let db = Vida.create () in
  Vida.json db ~name:"D" ~path:(tmp_file jsonl) ~element:Ty.Any ();
  Vida.set_cleaning db ~source:"D" (Policy.make ~on_error:Policy.Skip_row ());
  check_value "malformed object skipped" (Value.Int 12)
    (Vida.query_value db "for { d <- D } yield sum d.v");
  check_int "recorded" 1 (Vida.problematic_entries db ~source:"D")

(* --- result re-use --- *)

let clean_csv = "id,age\n1,30\n2,60\n3,45\n"

let test_result_cache_hit () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file clean_csv) ();
  let q = "for { p <- P, p.age > 40 } yield count p" in
  (match Vida.query db q with
  | Ok r -> check_bool "first run computes" false r.Vida.from_result_cache
  | Error e -> Alcotest.fail (Vida.error_to_string e));
  (match Vida.query db q with
  | Ok r ->
    check_bool "second run reuses" true r.Vida.from_result_cache;
    check_value "same value" (Value.Int 2) r.Vida.value
  | Error e -> Alcotest.fail (Vida.error_to_string e));
  check_int "hit counted" 1 (Vida.stats db).Vida.result_reuse_hits

let test_result_cache_purged_on_update () =
  let path = tmp_file clean_csv in
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path ();
  let q = "for { p <- P } yield count p" in
  check_value "initial" (Value.Int 3) (Vida.query_value db q);
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "4,70\n";
  close_out oc;
  check_value "update visible despite result cache" (Value.Int 4) (Vida.query_value db q)

let test_result_cache_respects_reuse_flag () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file clean_csv) ();
  let q = "for { p <- P } yield count p" in
  ignore (Vida.query db q);
  match Vida.query ~reuse:false db q with
  | Ok r -> check_bool "bypassed" false r.Vida.from_result_cache
  | Error e -> Alcotest.fail (Vida.error_to_string e)

let test_result_cache_cleared_on_param () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file clean_csv) ();
  Vida.bind_param db "lo" (Value.Int 40);
  let q = "for { p <- P, p.age > lo } yield count p" in
  check_value "first" (Value.Int 2) (Vida.query_value db q);
  Vida.bind_param db "lo" (Value.Int 50);
  check_value "param change recomputes" (Value.Int 1) (Vida.query_value db q)

(* --- runtime feedback --- *)

let test_feedback_recorded () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file clean_csv) ();
  let ctx = Vida.ctx db in
  check_int "empty at start" 0 (Vida_engine.Feedback.entries ctx.Vida_engine.Plugins.feedback);
  ignore (Vida.query_value db "for { p <- P, p.age > 40 } yield count p");
  check_bool "entries recorded" true
    (Vida_engine.Feedback.entries ctx.Vida_engine.Plugins.feedback > 0);
  (* the engine observed the source cardinality exactly *)
  check_bool "cardinality learned" true
    (Vida_engine.Feedback.lookup ctx.Vida_engine.Plugins.feedback
       ~key:(Vida_engine.Feedback.cardinality_key "P")
    = Some 3.)

let test_feedback_improves_estimates () =
  (* 100 rows, predicate passes exactly 5 -> heuristic says 33% *)
  let rows = List.init 100 (fun i -> Printf.sprintf "%d,%d" i (i mod 20)) in
  let path = tmp_file ("id,v\n" ^ String.concat "\n" rows ^ "\n") in
  let db = Vida.create () in
  Vida.csv db ~name:"T" ~path ();
  let q = "for { t <- T, t.v < 1 } yield count t" in
  let plan_of s =
    Vida_algebra.Translate.plan_of_comp
      (Vida_calculus.Rewrite.normalize (Vida_calculus.Parser.parse_exn s))
  in
  let before = Vida_optimizer.Cost.estimate (Vida.ctx db) (plan_of q) in
  ignore (Vida.query_value db q);
  let after = Vida_optimizer.Cost.estimate (Vida.ctx db) (plan_of q) in
  (* true output cardinality is 1 (the Reduce); the Select feeds 5 of 100:
     the feedback-informed estimate of the stream must drop sharply *)
  check_bool
    (Printf.sprintf "estimate tightened (%.1f -> %.1f)" before.Vida_optimizer.Cost.cost
       after.Vida_optimizer.Cost.cost)
    true
    (after.Vida_optimizer.Cost.cost < before.Vida_optimizer.Cost.cost);
  let sel =
    Vida_engine.Feedback.lookup
      (Vida.ctx db).Vida_engine.Plugins.feedback
      ~key:
        (Vida_engine.Feedback.selectivity_key
           (Vida_calculus.Parser.parse_exn "t.v < 1"))
  in
  check_bool "observed selectivity ~0.05" true
    (match sel with Some s -> s > 0.04 && s < 0.06 | None -> false)

(* --- output plugins / export --- *)

let patients_like = "id,age\n1,30\n2,60\n3,45\n"

let test_export_roundtrip_csv () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file patients_like) ();
  let out = Filename.temp_file "vida_export" ".csv" in
  (match
     Vida.export db
       "for { p <- P, p.age > 30 } yield bag (id := p.id, age := p.age)"
       ~format:(Vida_engine.Output.Csv { delim = ','; header = true })
       ~path:out
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Vida.error_to_string e));
  (* the exported file is itself a queryable raw source: the full loop *)
  Vida.csv db ~name:"Exported" ~path:out ();
  check_value "re-registered export" (Value.Int 2)
    (Vida.query_value db "for { e <- Exported } yield count e");
  check_value "values survive" (Value.Int 105)
    (Vida.query_value db "for { e <- Exported } yield sum e.age")

let test_export_jsonl_roundtrip () =
  let db = Vida.create () in
  Vida.csv db ~name:"P" ~path:(tmp_file patients_like) ();
  let out = Filename.temp_file "vida_export" ".jsonl" in
  (match
     Vida.export db "for { p <- P } yield bag (id := p.id, senior := p.age > 50)"
       ~format:Vida_engine.Output.Json_lines ~path:out
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Vida.error_to_string e));
  Vida.json db ~name:"J" ~path:out ();
  check_value "json export queryable" (Value.Int 1)
    (Vida.query_value db "for { j <- J, j.senior } yield count j")

let test_export_vbson_roundtrip () =
  let vs =
    Value.Bag
      [ Value.Record [ ("a", Value.Int 1) ];
        Value.Record [ ("a", Value.Int 2); ("b", Value.List [ Value.Null ]) ]
      ]
  in
  let out = Filename.temp_file "vida_export" ".vbson" in
  Vida_engine.Output.write_file out Vida_engine.Output.Vbson_file vs;
  let back = Vida_engine.Output.read_vbson_file out in
  check_bool "vbson file roundtrip" true
    (List.for_all2 Value.equal (Value.elements vs) back)

let test_export_csv_ragged_columns () =
  (* records with different fields: union of columns, blanks elsewhere *)
  let v =
    Value.Bag
      [ Value.Record [ ("a", Value.Int 1) ]; Value.Record [ ("b", Value.Int 2) ] ]
  in
  let out = Filename.temp_file "vida_export" ".csv" in
  Vida_engine.Output.write_file out (Vida_engine.Output.Csv { delim = ','; header = true }) v;
  let contents = In_channel.with_open_bin out In_channel.input_all in
  check_bool "header has both" true (String.trim (List.hd (String.split_on_char '\n' contents)) = "a,b")

(* --- XML --- *)

let sample_xml =
  {|<?xml version="1.0" encoding="utf-8"?>
<!-- hospital export -->
<patients>
  <patient id="1"><name>ada</name><age>34</age><visit year="2010"/><visit year="2012"/></patient>
  <patient id="2"><name>bob &amp; co</name><age>71</age></patient>
  <patient id="3"><name>cyd</name><age>52</age><visit year="2019"/></patient>
</patients>|}

let test_xml_parse () =
  let v = Vida_raw.Xml.parse_document sample_xml in
  match v with
  | Value.Record [ ("patient", Value.List [ p1; p2; _ ]) ] ->
    check_value "attr sniffed" (Value.Int 1) (Value.field p1 "id");
    check_value "text element" (Value.String "ada") (Value.field p1 "name");
    check_value "entity decoded" (Value.String "bob & co") (Value.field p2 "name");
    (match Value.field p1 "visit" with
    | Value.List [ v1; _ ] -> check_value "nested attr" (Value.Int 2010) (Value.field v1 "year")
    | v -> Alcotest.failf "visits: %s" (Value.to_string v))
  | v -> Alcotest.failf "document: %s" (Value.to_string v)

let test_xml_errors () =
  let bad s =
    match Vida_raw.Xml.parse_document s with
    | exception Vida_error.Error (Vida_error.Parse_error _) -> ()
    | v -> Alcotest.failf "%S should fail, got %s" s (Value.to_string v)
  in
  bad "<a><b></a>";
  bad "<a>";
  bad "no markup";
  bad "<a></a><b></b>";
  bad "<a x=1></a>"

let test_xml_mixed_and_selfclosing () =
  let v = Vida_raw.Xml.parse_document {|<n a="x">hello <b>world</b></n>|} in
  check_value "mixed"
    (Value.Record
       [ ("a", Value.String "x"); ("b", Value.String "world");
         ("#text", Value.String "hello") ])
    v;
  check_value "self-closing empty" Value.Null (Vida_raw.Xml.parse_document "<e/>")

let test_xml_index () =
  let xi = Vida_raw.Xml_index.build (Vida_raw.Raw_buffer.of_path (tmp_file sample_xml)) in
  check_int "elements" 3 (Vida_raw.Xml_index.element_count xi);
  check_value "field access" (Value.Int 71)
    (Vida_raw.Xml_index.field_value xi ~elem:1 ~field:"age");
  check_value "absent field" Value.Null
    (Vida_raw.Xml_index.field_value xi ~elem:1 ~field:"visit")

let test_xml_end_to_end () =
  let db = Vida.create () in
  Vida.xml db ~name:"Patients" ~path:(tmp_file sample_xml) ();
  check_value "count" (Value.Int 3)
    (Vida.query_value db "for { p <- Patients } yield count p");
  check_value "filter + aggregate" (Value.Int 123)
    (Vida.query_value db "for { p <- Patients, p.age > 40 } yield sum p.age");
  (* unnest the repeated <visit> elements *)
  check_value "unnest visits" (Value.Int 3)
    (Vida.query_value db
       "(for { p <- Patients, p.id = 1, v <- p.visit } yield sum 1) \
        merge[sum] (for { p <- Patients, p.id = 3, v <- p.visit } yield sum 1)");
  (* second run is served from caches *)
  (match Vida.query ~reuse:false db "for { p <- Patients } yield count p" with
  | Ok r -> check_bool "cached" true r.Vida.served_from_cache
  | Error e -> Alcotest.fail (Vida.error_to_string e))

let test_xml_joins_csv () =
  let db = Vida.create () in
  Vida.xml db ~name:"Px" ~path:(tmp_file sample_xml) ();
  Vida.csv db ~name:"Extra" ~path:(tmp_file "id,score\n1,10\n2,20\n3,30\n") ();
  check_value "xml x csv join" (Value.Int 50)
    (Vida.query_value db "for { p <- Px, e <- Extra, p.id = e.id, p.age > 40 } yield sum e.score")

(* --- persistent positional maps --- *)

let test_posmap_sidecar_roundtrip () =
  let contents = "a,b,c\n1,2,3\n4,5,6\n7,8,9\n" in
  let path = tmp_file contents in
  let buf = Vida_raw.Raw_buffer.of_path path in
  let pm = Vida_raw.Positional_map.build buf in
  ignore
    (Vida_raw.Positional_map.decode pm
       [ (1, Vida_raw.Positional_map.Int_cells); (2, Vida_raw.Positional_map.Int_cells) ]
       ~fallback:(fun _ _ _ -> Value.Null));
  let sidecar = path ^ ".vidx" in
  Vida_raw.Positional_map.save pm ~path:sidecar;
  (match Vida_raw.Positional_map.load buf ~path:sidecar with
  | Error e -> Alcotest.failf "sidecar failed to load: %s" (Vida_error.to_string e)
  | Ok pm' ->
    check_int "rows restored" 3 (Vida_raw.Positional_map.row_count pm');
    Alcotest.(check (list int)) "columns restored" [ 1; 2 ]
      (Vida_raw.Positional_map.populated_columns pm');
    check_bool "navigation works" true
      (Vida_raw.Positional_map.field pm' ~row:2 ~col:2 = "9"));
  (* a changed data file invalidates the sidecar *)
  let oc = open_out_bin path in
  output_string oc "a,b,c\n9,9,9\n";
  close_out oc;
  Vida_raw.Raw_buffer.invalidate buf;
  check_bool "stale sidecar rejected" true
    (match Vida_raw.Positional_map.load buf ~path:sidecar with
    | Error (Vida_error.Stale_auxiliary _) -> true
    | _ -> false);
  check_bool "garbage sidecar rejected" true
    (match Vida_raw.Positional_map.load buf ~path:(tmp_file "not a sidecar") with
    | Error (Vida_error.Stale_auxiliary _) -> true
    | _ -> false)

let test_session_checkpoint_restores () =
  let csv_path = tmp_file "id,v\n1,10\n2,20\n3,30\n" in
  (* session 1: query (builds the map), checkpoint *)
  let db1 = Vida.create () in
  Vida.csv db1 ~name:"T" ~path:csv_path ();
  check_value "session 1 query" (Value.Int 60)
    (Vida.query_value db1 "for { t <- T } yield sum t.v");
  check_int "one sidecar written" 1 (Vida.checkpoint db1);
  (* session 2: the first query must navigate via the restored map instead
     of re-scanning row structure *)
  let db2 = Vida.create () in
  Vida.csv db2 ~name:"T" ~path:csv_path ();
  check_value "session 2 query" (Value.Int 60)
    (Vida.query_value db2 "for { t <- T } yield sum t.v");
  let source = Option.get (Vida.describe db2 "T") in
  let pm =
    Vida_engine.Structures.posmap (Vida.ctx db2).Vida_engine.Plugins.structures source
  in
  check_bool "columns restored in session 2" true
    (Vida_raw.Positional_map.populated_columns pm <> [])

(* --- external sources: a loaded DBMS under the virtualization layer --- *)

let test_external_dbms_source () =
  (* load a relation into the row store (the "existing DBMS")... *)
  let store = Vida_baseline.Rowstore.create () in
  Vida_baseline.Rowstore.create_table store ~name:"accounts"
    (Schema.of_pairs [ ("id", Ty.Int); ("balance", Ty.Int) ]);
  List.iter
    (fun (id, b) ->
      Vida_baseline.Rowstore.insert store ~name:"accounts" [| Value.Int id; Value.Int b |])
    [ (1, 100); (2, 250); (3, 80) ];
  (* ...and register it as a ViDa source next to a raw CSV *)
  let db = Vida.create () in
  Vida.external_source db ~name:"Accounts"
    ~element:(Ty.Record [ ("id", Ty.Int); ("balance", Ty.Int) ])
    ~count:(fun () -> Vida_baseline.Rowstore.row_count store ~name:"accounts")
    ~produce:(fun consumer ->
      Vida_baseline.Rowstore.scan store ~name:"accounts" ~fields:None consumer);
  Vida.csv db ~name:"Owners" ~path:(tmp_file "id,name\n1,ada\n2,bob\n3,cyd\n") ();
  check_value "dbms x raw-file join" (Value.String "bob")
    (Vida.query_value db
       "for { a <- Accounts, o <- Owners, a.id = o.id, a.balance > 200 } yield max o.name");
  (* type checking sees the declared element type *)
  match Vida.query db "for { a <- Accounts } yield sum a.nope" with
  | Error (Vida.Type_error _) -> ()
  | _ -> Alcotest.fail "expected type error on unknown column"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vida_extensions"
    [ ( "distance",
        [ Alcotest.test_case "hamming" `Quick test_hamming;
          Alcotest.test_case "levenshtein" `Quick test_levenshtein;
          Alcotest.test_case "nearest" `Quick test_nearest
        ] );
      qsuite "distance-properties" [ prop_levenshtein_symmetric; prop_levenshtein_zero_iff_equal ];
      ( "policy",
        [ Alcotest.test_case "strict" `Quick test_policy_strict;
          Alcotest.test_case "null" `Quick test_policy_null;
          Alcotest.test_case "skip" `Quick test_policy_skip;
          Alcotest.test_case "dictionary repair" `Quick test_policy_dictionary_repair;
          Alcotest.test_case "range rule" `Quick test_policy_range_rule
        ] );
      ( "engine-cleaning",
        [ Alcotest.test_case "strict fails" `Quick test_engine_strict_fails;
          Alcotest.test_case "null policy" `Quick test_engine_null_policy;
          Alcotest.test_case "skip policy" `Quick test_engine_skip_policy;
          Alcotest.test_case "nearest policy" `Quick test_engine_nearest_policy;
          Alcotest.test_case "json malformed" `Quick test_engine_json_skip_malformed
        ] );
      ( "result-reuse",
        [ Alcotest.test_case "hit" `Quick test_result_cache_hit;
          Alcotest.test_case "purged on update" `Quick test_result_cache_purged_on_update;
          Alcotest.test_case "reuse flag" `Quick test_result_cache_respects_reuse_flag;
          Alcotest.test_case "param change" `Quick test_result_cache_cleared_on_param
        ] );
      ( "feedback",
        [ Alcotest.test_case "recorded" `Quick test_feedback_recorded;
          Alcotest.test_case "improves estimates" `Quick test_feedback_improves_estimates
        ] );
      ( "persistence",
        [ Alcotest.test_case "sidecar roundtrip" `Quick test_posmap_sidecar_roundtrip;
          Alcotest.test_case "session checkpoint" `Quick test_session_checkpoint_restores
        ] );
      ( "external",
        [ Alcotest.test_case "dbms as source" `Quick test_external_dbms_source ] );
      ( "export",
        [ Alcotest.test_case "csv roundtrip" `Quick test_export_roundtrip_csv;
          Alcotest.test_case "jsonl roundtrip" `Quick test_export_jsonl_roundtrip;
          Alcotest.test_case "vbson roundtrip" `Quick test_export_vbson_roundtrip;
          Alcotest.test_case "ragged columns" `Quick test_export_csv_ragged_columns
        ] );
      ( "xml",
        [ Alcotest.test_case "parse" `Quick test_xml_parse;
          Alcotest.test_case "errors" `Quick test_xml_errors;
          Alcotest.test_case "mixed content" `Quick test_xml_mixed_and_selfclosing;
          Alcotest.test_case "index" `Quick test_xml_index;
          Alcotest.test_case "end to end" `Quick test_xml_end_to_end;
          Alcotest.test_case "joins csv" `Quick test_xml_joins_csv
        ] )
    ]
