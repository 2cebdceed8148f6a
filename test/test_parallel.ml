(* Parallel-execution suite: the morsel-driven engine must be
   indistinguishable from the sequential engines in every observable way —
   values (including collection order), typed errors (cancellation, budget),
   auxiliary structures (byte-identical parallel builds), cache statistics
   under concurrent admission. See DESIGN.md §8. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
open Vida_engine
module G = Vida_governor.Governor
module Morsel = Vida_raw.Morsel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file suffix contents =
  let path = Filename.temp_file "vida_par" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* the fixtures are tiny: drop the work-size floors so the parallel paths
   actually engage, and restore them afterwards *)
let with_tiny_floors f =
  Morsel.set_min_parallel_rows 1;
  Morsel.set_min_parallel_bytes 0;
  Fun.protect
    ~finally:(fun () ->
      Morsel.set_min_parallel_rows 2048;
      Morsel.set_min_parallel_bytes (256 * 1024))
    f

let plan_of s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))

(* --- parallel vs sequential across every columnar format --- *)

let csv_contents n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "id,age,city,score\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "%d,%d,%s,%.2f\n" i (18 + (i mod 60))
         (match i mod 3 with 0 -> "geneva" | 1 -> "zurich" | _ -> "basel")
         (float_of_int (i mod 17) /. 1.7))
  done;
  Buffer.contents b

let jsonl_contents n =
  let b = Buffer.create 1024 in
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "{\"id\": %d, \"volume\": %.1f, \"region\": \"%s\"}\n" i
         (float_of_int (i mod 23))
         (if i mod 2 = 0 then "cortex" else "hippocampus"))
  done;
  Buffer.contents b

let xml_contents n =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<patients>\n";
  for i = 1 to n do
    Buffer.add_string b
      (Printf.sprintf "  <patient id=\"%d\"><age>%d</age></patient>\n" i
         (18 + (i mod 60)))
  done;
  Buffer.add_string b "</patients>\n";
  Buffer.contents b

let make_registry () =
  let registry = Registry.create () in
  let _ =
    Registry.register_csv registry ~name:"People"
      ~path:(tmp_file ".csv" (csv_contents 97)) ()
  in
  let _ =
    Registry.register_json registry ~name:"Regions"
      ~path:(tmp_file ".jsonl" (jsonl_contents 53)) ()
  in
  let _ =
    Registry.register_xml registry ~name:"Px"
      ~path:(tmp_file ".xml" (xml_contents 41)) ()
  in
  let ba_path = Filename.temp_file "vida_par" ".varr" in
  Vida_raw.Binarray.write ba_path ~dims:[ 64 ]
    ~fields:[ { Vida_raw.Binarray.name = "v"; is_float = false };
              { Vida_raw.Binarray.name = "w"; is_float = true } ]
    (fun cell -> [| Value.Int cell; Value.Float (float_of_int (cell mod 5)) |]);
  let _ = Registry.register_binarray registry ~name:"Cells" ~path:ba_path in
  let _ =
    Registry.register_inline registry ~name:"Inline"
      (Value.List
         (List.init 40 (fun i ->
              Value.Record
                [ ("k", Value.Int i); ("half", Value.Float (float_of_int i /. 2.)) ])))
  in
  registry

let queries =
  [ "for { p <- People } yield sum p.age";
    "for { p <- People, p.age > 40 } yield count p";
    "for { p <- People, x := p.age * 2, x > 90 } yield max x";
    "for { p <- People } yield avg p.score";
    "for { p <- People } yield set p.city";
    (* collection monoids must come back in source order *)
    "for { p <- People, p.age > 40 } yield list p.id";
    "for { p <- People } yield bag p.city";
    "for { r <- Regions } yield max r.volume";
    "for { r <- Regions, r.volume > 11.0 } yield count r";
    "for { r <- Regions } yield list r.id";
    "for { x <- Px, x.age > 40 } yield sum x.age";
    "for { x <- Px } yield count x";
    "for { c <- Cells, c.v > 10 } yield sum c.v";
    "for { c <- Cells } yield avg c.w";
    "for { i <- Inline, i.k > 7 } yield sum i.half";
    "for { i <- Inline } yield list i.k";
    (* equi-join reduce: parallel build + probe *)
    "for { p <- People, c <- Cells, p.id = c.v } yield count p";
    "for { p <- People, c <- Cells, p.id = c.v, c.w > 1.0 } yield sum p.age";
    "for { p <- People, r <- Regions, p.id = r.id } yield list p.id"
  ]

(* the morsel split reassociates float additions: sums/averages of
   non-representable fractions may differ in the last ulps *)
let rec agrees a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
  | Value.Record fa, Value.Record fb ->
    List.length fa = List.length fb
    && List.for_all2
         (fun (na, va) (nb, vb) -> String.equal na nb && agrees va vb)
         fa fb
  | (Value.Bag xs | Value.List xs), (Value.Bag ys | Value.List ys) ->
    List.length xs = List.length ys && List.for_all2 agrees xs ys
  | a, b -> Value.equal a b

let test_differential_formats () =
  with_tiny_floors @@ fun () ->
  let ctx = Plugins.create_ctx (make_registry ()) in
  List.iter
    (fun q ->
      let plan = plan_of q in
      let sequential = Compile.query ctx plan () in
      List.iter
        (fun d ->
          match Parallel.try_query ctx ~domains:d plan with
          | None -> Alcotest.failf "expected parallel support (d=%d) for %s" d q
          | Some parallel ->
            if not (agrees sequential parallel) then
              Alcotest.failf "d=%d disagrees on %s: %s vs %s" d q
                (Value.to_string sequential) (Value.to_string parallel))
        [ 2; 3; 4; 8 ])
    queries

(* the full facade honors the domain budget: same results, and the
   sequential fallback stays authoritative for unsupported shapes *)
let test_vida_facade_domains () =
  with_tiny_floors @@ fun () ->
  let make d =
    let db = Vida.create () in
    Vida.set_domains db d;
    Vida.csv db ~name:"People" ~path:(tmp_file ".csv" (csv_contents 97)) ();
    Vida.json db ~name:"Regions" ~path:(tmp_file ".jsonl" (jsonl_contents 53)) ();
    Vida.inline db ~name:"Nums"
      (Value.List
         (List.init 30 (fun i -> Value.Record [ ("k", Value.Int (i * 7 mod 13)) ])));
    db
  in
  let db1 = make 1 and db4 = make 4 in
  check_int "budget recorded" 4 (Vida.domains db4);
  List.iter
    (fun q ->
      check_value q (Vida.query_value db1 q) (Vida.query_value db4 q))
    [ "for { p <- People } yield sum p.age";
      (* a CSV source types as a bag, so the facade only accepts
         commutative accumulators over it; ordered collection is
         exercised through the list-typed inline source *)
      "for { p <- People, p.age > 40 } yield bag p.id";
      "for { n <- Nums, n.k > 3 } yield list n.k";
      "for { r <- Regions } yield max r.volume";
      (* grouping is outside the parallel fragment: falls back, same answer *)
      "for { p <- People } yield count p.city"
    ]

(* the optimizer's statistics do not depend on the domain budget: every
   rung a parallel chain can fold on records the source cardinality, the
   filter selectivities and the equi-join selectivity the sequential scan
   records *)
let test_cardinality_feedback_domains () =
  with_tiny_floors @@ fun () ->
  let path = tmp_file ".csv" (csv_contents 2000) in
  let field v f = Expr.Proj (Expr.Var v, f) in
  let age_filter = Expr.BinOp (Expr.Gt, field "p" "age", Expr.Const (Value.Int 40)) in
  let id_join = Expr.BinOp (Expr.Eq, field "p" "id", field "c" "id") in
  let observe ~domains ~vectorized q key =
    let was = Vector.enabled () in
    Vector.set_enabled vectorized;
    Fun.protect ~finally:(fun () -> Vector.set_enabled was) @@ fun () ->
    let db = Vida.create () in
    Vida.set_domains db domains;
    Vida.csv db ~name:"P" ~path ();
    Vida.csv db ~name:"C" ~path ();
    ignore (Vida.query_value db q);
    let feedback = (Vida.ctx db).Plugins.feedback in
    (Feedback.lookup feedback ~key:(Feedback.cardinality_key "P"), Feedback.lookup feedback ~key)
  in
  let budgets = [ (1, true); (4, true); (1, false); (4, false) ] in
  let check q key =
    let _, expected = observe ~domains:1 ~vectorized:false q key in
    Alcotest.(check bool) (Printf.sprintf "%s observed" key) true (Option.is_some expected);
    List.iter
      (fun (domains, vectorized) ->
        let card, observed = observe ~domains ~vectorized q key in
        let case = Printf.sprintf "%s at domains=%d vectorized=%b" q domains vectorized in
        Alcotest.(check (option (float 0.))) ("card|P of " ^ case) (Some 2000.) card;
        Alcotest.(check (option (float 0.))) (key ^ " of " ^ case) expected observed)
      budgets
  in
  List.iter
    (fun head ->
      check
        (Printf.sprintf "for { p <- P, p.age > 40 } yield %s p.age" head)
        (Feedback.selectivity_key age_filter))
    [ "sum"; "bag"; "set" ];
  check "for { p <- P, c <- C, p.id = c.id } yield count p" (Feedback.join_key id_join)

(* --- parallel auxiliary-structure builds are byte-identical --- *)

let awkward_csv =
  (* quoted fields containing newlines and delimiters, \r\n endings, empty
     lines, and a trailing row without a newline *)
  "id,note\r\n\
   1,\"line one\nline two\"\r\n\
   2,plain\n\
   3,\"comma, inside\"\n\
   \n\
   4,\"ends \"\"quoted\"\"\"\n\
   5,last"

let test_parallel_posmap_build () =
  with_tiny_floors @@ fun () ->
  let path = tmp_file ".csv" awkward_csv in
  let seq = Vida_raw.Positional_map.build ~domains:1 (Vida_raw.Raw_buffer.of_path path) in
  let par = Vida_raw.Positional_map.build ~domains:4 (Vida_raw.Raw_buffer.of_path path) in
  check_int "row counts equal" (Vida_raw.Positional_map.row_count seq)
    (Vida_raw.Positional_map.row_count par);
  for row = 0 to Vida_raw.Positional_map.row_count seq - 1 do
    let s = Vida_raw.Positional_map.row_bounds seq row
    and p = Vida_raw.Positional_map.row_bounds par row in
    check_bool (Printf.sprintf "row %d bounds equal" row) true (s = p);
    check_bool
      (Printf.sprintf "row %d fields equal" row)
      true
      (Vida_raw.Positional_map.fields seq ~row ~cols:[ 0; 1 ]
      = Vida_raw.Positional_map.fields par ~row ~cols:[ 0; 1 ])
  done

let test_parallel_semi_index_build () =
  with_tiny_floors @@ fun () ->
  let path = tmp_file ".jsonl" (jsonl_contents 57 ^ "\n\n" ^ jsonl_contents 3) in
  let seq = Vida_raw.Semi_index.build ~domains:1 (Vida_raw.Raw_buffer.of_path path) in
  let par = Vida_raw.Semi_index.build ~domains:4 (Vida_raw.Raw_buffer.of_path path) in
  check_int "object counts equal" (Vida_raw.Semi_index.object_count seq)
    (Vida_raw.Semi_index.object_count par);
  for i = 0 to Vida_raw.Semi_index.object_count seq - 1 do
    check_bool
      (Printf.sprintf "object %d bounds equal" i)
      true
      (Vida_raw.Semi_index.object_bounds seq i = Vida_raw.Semi_index.object_bounds par i);
    check_value
      (Printf.sprintf "object %d value equal" i)
      (Vida_raw.Semi_index.object_value seq i)
      (Vida_raw.Semi_index.object_value par i)
  done

(* --- governed execution inside worker domains --- *)

let big_csv rows =
  let b = Buffer.create (rows * 16) in
  Buffer.add_string b "id,age,v\n";
  for i = 1 to rows do
    Buffer.add_string b
      (Printf.sprintf "%d,%d,%.3f\n" i (18 + (i mod 80)) (float_of_int (i mod 97) /. 9.7))
  done;
  Buffer.contents b

(* a cancellation token tripped mid-morsel must cancel the whole parallel
   region with the structured error, and leave the session re-usable *)
let test_cancellation_mid_morsel () =
  with_tiny_floors @@ fun () ->
  let db = Vida.create () in
  Vida.set_domains db 4;
  Vida.csv db ~name:"P" ~path:(tmp_file ".csv" (big_csv 4000)) ();
  let q = "for { p <- P, p.age > 40 } yield count p" in
  let expected = Vida.query_value db q in
  (* caches are warm now: the next run folds decoded columns on domains,
     and the token trips inside that fold *)
  let s = G.start ~name:"cancel-parallel" () in
  G.cancel_after_polls s ~polls:50;
  (match G.with_session s (fun () -> Vida.query ~reuse:false db q) with
  | Error (Vida.Data_error (Vida_error.Cancelled _)) -> ()
  | Ok _ -> Alcotest.fail "tripped token did not cancel the parallel fold"
  | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e));
  check_value "re-query correct after cancellation" expected (Vida.query_value db q)

(* a memory budget exhausted by a worker domain (join build snapshots are
   charged from whichever domain materializes them) must surface the same
   typed error the sequential engine raises *)
let test_budget_exhausted_in_domain () =
  with_tiny_floors @@ fun () ->
  let limits = { G.unlimited with G.memory_budget = Some 256 } in
  let run d =
    let db = Vida.create ~limits () in
    Vida.set_domains db d;
    Vida.csv db ~name:"P" ~path:(tmp_file ".csv" (big_csv 2000)) ();
    match Vida.query db "for { a <- P, b <- P, a.id = b.id } yield count a" with
    | Error (Vida.Data_error e) -> Vida_error.kind_name e
    | Ok _ -> Alcotest.fail "self-join fit a 256-byte budget"
    | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e)
  in
  let sequential = run 1 and parallel = run 4 in
  Alcotest.(check string) "same typed error" sequential parallel;
  check_bool "budget error" true (String.equal parallel "budget")

(* --- cache statistics under concurrent admission --- *)

let test_cache_stats_concurrent () =
  let module C = Vida_storage.Cache in
  let cache = C.create ~capacity_bytes:(1 lsl 20) () in
  let key i = { C.source = "s"; item = Printf.sprintf "col%d" (i mod 16); layout = Vida_storage.Layout.Values } in
  let payload = C.Column (Column.of_values (Array.init 32 (fun j -> Value.Int j))) in
  let tasks = 8 and per_task = 200 in
  let _ =
    Morsel.run ~domains:4 ~tasks (fun t ->
        for j = 0 to per_task - 1 do
          let k = key ((t * per_task) + j) in
          (match C.find cache k with
          | Some _ -> ()
          | None -> ignore (C.put cache k payload));
          ignore (C.mem cache k)
        done)
  in
  let s = C.stats cache in
  (* every find counted exactly once, under the lock *)
  check_int "finds all accounted" (tasks * per_task) (s.C.hits + s.C.misses);
  check_bool "some hits" true (s.C.hits > 0);
  (* at most one resident entry per distinct key, all bytes accounted *)
  check_bool "entries bounded by distinct keys" true (s.C.entries <= 16);
  check_int "resident bytes = entries * payload"
    (s.C.entries * C.payload_bytes payload)
    s.C.resident_bytes;
  check_bool "within capacity" true (s.C.resident_bytes <= 1 lsl 20);
  C.clear cache;
  let s = C.stats cache in
  check_int "clear empties entries" 0 s.C.entries;
  check_int "clear empties bytes" 0 s.C.resident_bytes

let () =
  Alcotest.run "parallel"
    [ ( "differential",
        [ Alcotest.test_case "formats x domain counts" `Quick test_differential_formats;
          Alcotest.test_case "vida facade budgets" `Quick test_vida_facade_domains;
          Alcotest.test_case "cardinality feedback per budget" `Quick
            test_cardinality_feedback_domains
        ] );
      ( "aux builds",
        [ Alcotest.test_case "positional map" `Quick test_parallel_posmap_build;
          Alcotest.test_case "semi-index" `Quick test_parallel_semi_index_build
        ] );
      ( "governed",
        [ Alcotest.test_case "cancellation mid-morsel" `Quick test_cancellation_mid_morsel;
          Alcotest.test_case "budget in domain" `Quick test_budget_exhausted_in_domain
        ] );
      ( "cache",
        [ Alcotest.test_case "stats under concurrency" `Quick test_cache_stats_concurrent ]
      )
    ]
