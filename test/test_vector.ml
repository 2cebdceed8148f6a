(* Vectorized batch engine (DESIGN.md §13): differential equivalence
   vectorized == closure == generic across physical formats, batch sizes
   and domain counts; directed edge cases (empty input, all-filtered
   batches, NaN/inf columns, quarantined records, mid-batch cooperative
   cancellation, division errors); and the vectorized -> closure ->
   generic degradation ladder, checking the governor report names each
   rung. *)

open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
open Vida_engine
module G = Vida_governor.Governor
module Policy = Vida_cleaning.Policy

let check_bool = Alcotest.(check bool)
let check_value msg expected actual =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string actual)

let tmp_file suffix contents =
  let path = Filename.temp_file "vida_vec" suffix in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let plan_of s = Translate.plan_of_comp (Rewrite.normalize (Parser.parse_exn s))
let default_batch = Vector.batch_rows ()

let with_vector_off f =
  let was = Vector.enabled () in
  Vector.set_enabled false;
  Fun.protect ~finally:(fun () -> Vector.set_enabled was) f

let with_batch n f =
  Vector.set_batch_rows n;
  Fun.protect ~finally:(fun () -> Vector.set_batch_rows default_batch) f

(* Engines may legitimately raise the same data error (e.g. integer
   division by zero); compare outcomes, not just values. *)
let outcome thunk =
  match thunk () with
  | v -> Ok (Value.to_string v)
  | exception Eval.Error m -> Error m

let show = function
  | Ok s -> s
  | Error m -> "error: " ^ m

(* --- fixtures: the same logical table in three physical formats ------- *)

let nrows = 331

let row i =
  let a = (i * 7 mod 23) - 11 in
  let x = (float_of_int (i mod 17) /. 4.0) -. 2.0 in
  let b = i mod 5 in
  (a, x, b)

let csv_fixture () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "a,x,b\n";
  for i = 0 to nrows - 1 do
    let a, x, b = row i in
    (* every 13th b is NULL: exercises validity masks *)
    if i mod 13 = 0 then Printf.bprintf buf "%d,%.4f,\n" a x
    else Printf.bprintf buf "%d,%.4f,%d\n" a x b
  done;
  tmp_file ".csv" (Buffer.contents buf)

let json_fixture () =
  let buf = Buffer.create 4096 in
  for i = 0 to nrows - 1 do
    let a, x, b = row i in
    Printf.bprintf buf {|{"a": %d, "x": %.4f, "b": %d}|} a x b;
    Buffer.add_char buf '\n'
  done;
  tmp_file ".jsonl" (Buffer.contents buf)

let binarray_fixture () =
  let path = Filename.temp_file "vida_vec" ".varr" in
  Vida_raw.Binarray.write path ~dims:[ nrows ]
    ~fields:
      [ { Vida_raw.Binarray.name = "a"; is_float = false };
        { Vida_raw.Binarray.name = "x"; is_float = true };
        { Vida_raw.Binarray.name = "b"; is_float = false }
      ]
    (fun i ->
      let a, x, b = row i in
      [| Value.Int a; Value.Float x; Value.Int b |]);
  path

(* one shared context: VC (csv), VJ (jsonl), VB (binary array) *)
let ctx =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"VC" ~path:(csv_fixture ()) () in
  let _ = Registry.register_json registry ~name:"VJ" ~path:(json_fixture ()) () in
  let _ = Registry.register_binarray registry ~name:"VB" ~path:(binarray_fixture ()) in
  Plugins.create_ctx registry

let formats = [ "VC"; "VJ"; "VB" ]

(* --- the differential harness ----------------------------------------- *)

(* vectorized, closure and generic engines must agree; and inside the
   parallel engine, vectorized morsels must agree with row-at-a-time
   morsels (same morsel split, so float folds associate identically). *)
let engines_agree ~fail q =
  let plan = plan_of q in
  let vec = outcome (fun () -> Compile.query ctx plan ()) in
  let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query ctx plan ())) in
  let gen = outcome (fun () -> Interp.query ctx plan ()) in
  if vec <> clo then
    fail (Printf.sprintf "%s: vectorized %s vs closure %s" q (show vec) (show clo));
  if clo <> gen then
    fail (Printf.sprintf "%s: closure %s vs generic %s" q (show clo) (show gen));
  let show_par = function
    | None -> "<unsupported>"
    | Some o -> show o
  in
  List.iter
    (fun domains ->
      let par () =
        match Parallel.try_query ctx ~domains plan with
        | Some v -> Some (Ok (Value.to_string v))
        | None -> None
        | exception Eval.Error m -> Some (Error m)
      in
      let pv = par () in
      let pc = with_vector_off par in
      if pv <> pc then
        fail
          (Printf.sprintf "%s (domains=%d): vectorized morsels %s vs row morsels %s" q
             domains (show_par pv) (show_par pc)))
    [ 1; 4 ]

(* --- random differential property ------------------------------------- *)

type case = { mk : string -> string; batch : int }

let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  let int_k = int_range (-12) 12 in
  let float_k = map (fun n -> float_of_int n /. 4.0) (int_range (-16) 24) in
  let pred =
    oneof
      [ map (Printf.sprintf "p.a > %d") int_k;
        map (Printf.sprintf "p.a <= %d") int_k;
        map (Printf.sprintf "p.a * 2 - 3 > %d") int_k;
        map (Printf.sprintf "p.x > %.2f") float_k;
        map (Printf.sprintf "p.x < %.2f") float_k;
        map2 (Printf.sprintf "p.a > %d and p.x < %.2f") int_k float_k;
        map2 (Printf.sprintf "p.a < %d or p.b = %d") int_k (int_range 0 4);
        map (Printf.sprintf "not (p.a = %d)") int_k
      ]
  in
  let head =
    oneof
      [ oneofl
          [ "sum p.a"; "sum p.x"; "count p"; "max p.a"; "max p.x"; "min p.x";
            "min p.a"; "avg p.x"; "avg p.a"; "sum p.a * p.a"; "prod p.b"
          ];
        map (Printf.sprintf "all p.a > %d") int_k;
        map (Printf.sprintf "some p.x > %.2f") float_k
      ]
  in
  let* npred = int_range 0 2 in
  let* preds = flatten_l (List.init npred (fun _ -> pred)) in
  let* bind = opt (map (Printf.sprintf "y := p.a * 3 + %d") int_k) in
  let* head =
    match bind with
    | None -> head
    | Some _ -> oneof [ head; oneofl [ "sum y"; "max y"; "min y" ] ]
  in
  let* batch = oneofl [ 1; 3; 64; 4096 ] in
  let mk src =
    let binds = match bind with None -> [] | Some b -> [ b ] in
    Printf.sprintf "for { p <- %s%s } yield %s" src
      (String.concat "" (List.map (fun p -> ", " ^ p) (preds @ binds)))
      head
  in
  return { mk; batch }

let arb_case =
  QCheck.make ~print:(fun c -> Printf.sprintf "%s [batch=%d]" (c.mk "<src>") c.batch)
    gen_case

let prop_engines_agree =
  QCheck.Test.make ~name:"vectorized == closure == generic (3 formats)" ~count:120
    arb_case (fun c ->
      with_batch c.batch (fun () ->
          List.iter
            (fun src ->
              engines_agree ~fail:(fun m -> QCheck.Test.fail_report m) (c.mk src))
            formats;
          true))

(* --- directed edge cases ----------------------------------------------- *)

let directed_agree ?(batch = 4) q =
  with_batch batch (fun () -> engines_agree ~fail:Alcotest.fail q)

let test_empty_source () =
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"E" ~path:(tmp_file ".csv" "a,x\n") () in
  let ctx = Plugins.create_ctx registry in
  List.iter
    (fun q ->
      let plan = plan_of q in
      let vec = outcome (fun () -> Compile.query ctx plan ()) in
      let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query ctx plan ())) in
      check_value q (Value.String (show clo)) (Value.String (show vec)))
    [ "for { p <- E } yield sum p.a";
      "for { p <- E } yield count p";
      "for { p <- E } yield max p.x";
      "for { p <- E } yield avg p.x"
    ]

let test_all_filtered () =
  (* predicates that reject every row: the kernel still walks every batch
     (cooperative polls happen) but never pushes into the accumulator *)
  Vector.reset_stats ();
  directed_agree ~batch:64 "for { p <- VC, p.a > 9999 } yield sum p.x";
  directed_agree ~batch:64 "for { p <- VC, p.a > 9999 } yield count p";
  directed_agree ~batch:64 "for { p <- VC, p.a > 9999 } yield all p.a > 0";
  check_bool "batches were still executed" true ((Vector.stats ()).Vector.batches > 0)

let test_nan_inf () =
  let csv = "x\nnan\ninf\n-inf\n1.5\nnan\n-2.25\n" in
  let registry = Registry.create () in
  let _ = Registry.register_csv registry ~name:"N" ~path:(tmp_file ".csv" csv) () in
  let ctx = Plugins.create_ctx registry in
  Vector.reset_stats ();
  List.iter
    (fun q ->
      let plan = plan_of q in
      let vec = outcome (fun () -> Compile.query ctx plan ()) in
      let clo = outcome (fun () -> with_vector_off (fun () -> Compile.query ctx plan ())) in
      let gen = outcome (fun () -> Interp.query ctx plan ()) in
      check_value (q ^ " vec=closure") (Value.String (show clo)) (Value.String (show vec));
      check_value (q ^ " closure=generic") (Value.String (show gen)) (Value.String (show clo)))
    [ "for { p <- N } yield max p.x";
      "for { p <- N } yield min p.x";
      "for { p <- N } yield sum p.x";
      "for { p <- N, p.x > 0.0 } yield count p";
      (* NaN under the total order: NaN = NaN holds, as in Value.compare *)
      "for { p <- N, p.x = p.x } yield count p"
    ];
  check_bool "NaN columns vectorized, not declined" true
    ((Vector.stats ()).Vector.batches > 0)

let test_division_errors_match () =
  (* b hits 0: integer division by zero must surface identically from the
     fused kernel, the closure engine and the reference interpreter *)
  directed_agree "for { p <- VC } yield sum p.b / p.b";
  directed_agree "for { p <- VC, p.b > 0 } yield sum p.a / p.b"

let test_quarantined_record_mid_batch () =
  (* a malformed record in the middle of the scan: under Skip_row the
     source has no columnar view, so the vectorized rung declines at run
     time and the ladder drops to the closure engine — same answer, and
     the governor report names the rung *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "v\n";
  for i = 1 to 60 do
    if i = 30 then Buffer.add_string buf "oops\n"
    else Printf.bprintf buf "%d\n" i
  done;
  let db = Vida.create () in
  Vida.csv db ~name:"Q" ~path:(tmp_file ".csv" (Buffer.contents buf))
    ~schema:(Schema.of_pairs [ ("v", Ty.Int) ]) ();
  Vida.set_cleaning db ~source:"Q" (Policy.make ~on_error:Policy.Skip_row ());
  with_batch 8 (fun () ->
      match Vida.query ~reuse:false db "for { p <- Q } yield sum p.v" with
      | Error e -> Alcotest.failf "query failed: %s" (Vida.error_to_string e)
      | Ok r ->
        check_value "bad row skipped" (Value.Int 1800) r.Vida.value;
        check_bool "ladder dropped to closure" true
          (List.exists
             (fun f -> f.G.stage = "vectorized->closure")
             r.Vida.governor.G.fallbacks))

let test_cancellation_at_batch_boundary () =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "v\n";
  for i = 1 to 2000 do
    Printf.bprintf buf "%d\n" i
  done;
  let contents = Buffer.contents buf in
  let cancelled_with ~batch ~polls =
    let db = Vida.create () in
    Vida.csv db ~name:"P" ~path:(tmp_file ".csv" contents) ();
    with_batch batch (fun () ->
        let s = G.start ~name:"vec-cancel" () in
        G.cancel_after_polls s ~polls;
        match G.with_session s (fun () -> Vida.query ~reuse:false db "for { p <- P } yield sum p.v") with
        | Error (Vida.Data_error (Vida_error.Cancelled _)) -> ()
        | Ok _ -> Alcotest.failf "tripped token ignored (batch=%d)" batch
        | Error e -> Alcotest.failf "wrong error: %s" (Vida.error_to_string e))
  in
  (* small batches: the token trips mid-scan, at a batch boundary *)
  cancelled_with ~batch:16 ~polls:100;
  (* one huge batch: polls advance by the whole batch, so the check still
     fires at the first boundary rather than being skipped *)
  cancelled_with ~batch:65536 ~polls:100

(* The ladder at 1 and 4 domains, with the vectorized rung switched on
   and off: the same answers and the same stage names per rung at both
   domain counts. Switched off, the vectorized rung is silent: no
   fallback in the report and no increment of the process-wide count. *)
let test_fallback_ladder () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "v,name\n";
  for i = 1 to 50 do
    Printf.bprintf buf "%d,n%03d\n" i i
  done;
  let path = tmp_file ".csv" (Buffer.contents buf) in
  let ladder ~domains ~vectorized () =
    let db = Vida.create () in
    Vida.set_domains db domains;
    Vida.csv db ~name:"L" ~path ();
    let leg = Printf.sprintf "domains=%d vectorized=%b: " domains vectorized in
    let run q =
      match Vida.query ~reuse:false db q with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s%s failed: %s" leg q (Vida.error_to_string e)
    in
    let has_stage r stage =
      List.exists (fun f -> f.G.stage = stage) r.Vida.governor.G.fallbacks
    in
    let fallbacks0 = (Vector.stats ()).Vector.fallbacks in
    (* rung 1 — vectorized: batches recorded, no fallback *)
    let r = run "for { p <- L } yield sum p.v" in
    check_value (leg ^ "vectorized sum") (Value.Int 1275) r.Vida.value;
    check_bool (leg ^ "vectorized rung ran batches") vectorized
      (r.Vida.governor.G.batches > 0);
    check_bool (leg ^ "no vectorized fallback") false (has_stage r "vectorized->closure");
    (* rung 2 — closure: a string column has no unboxed kernel, so the
       vectorized rung declines and the report names the drop *)
    let r = run "for { p <- L } yield max p.name" in
    check_value (leg ^ "closure max") (Value.String "n050") r.Vida.value;
    check_bool (leg ^ "vectorized->closure recorded") vectorized
      (has_stage r "vectorized->closure");
    check_bool (leg ^ "no batches on the closure rung") true (r.Vida.governor.G.batches = 0);
    (* rung 3 — generic: an injected JIT failure drops the whole compiled
       tier, vectorized included *)
    G.Chaos.fail_jit_compiles 1;
    let r = run "for { p <- L } yield sum p.v" in
    check_value (leg ^ "generic sum") (Value.Int 1275) r.Vida.value;
    check_bool (leg ^ "jit->generic recorded") true (has_stage r "jit->generic");
    Alcotest.(check int) (leg ^ "process-wide fallbacks counted")
      (if vectorized then 1 else 0)
      ((Vector.stats ()).Vector.fallbacks - fallbacks0)
  in
  List.iter
    (fun domains ->
      ladder ~domains ~vectorized:true ();
      with_vector_off (ladder ~domains ~vectorized:false))
    [ 1; 4 ]

let test_disabled_switch () =
  (* the kill switch routes everything through the closure engine without
     noise: same answers, no kernels *)
  Vector.reset_stats ();
  with_vector_off (fun () ->
      let plan = plan_of "for { p <- VC, p.a > 0 } yield sum p.x" in
      let off = Compile.query ctx plan () in
      check_value "disabled agrees" (Interp.query ctx plan ()) off);
  check_bool "no batches while disabled" true ((Vector.stats ()).Vector.batches = 0)

let () =
  (* the fixtures are tiny; lower the morsel floor so the parallel legs of
     the differential property are not vacuous *)
  Vida_raw.Morsel.set_min_parallel_rows 1;
  Vida_raw.Morsel.set_min_parallel_bytes 0;
  Alcotest.run "vida_vector"
    [ ("random", [ QCheck_alcotest.to_alcotest prop_engines_agree ]);
      ( "edge cases",
        [ Alcotest.test_case "empty source" `Quick test_empty_source;
          Alcotest.test_case "all-filtered batches" `Quick test_all_filtered;
          Alcotest.test_case "nan and inf" `Quick test_nan_inf;
          Alcotest.test_case "division errors match" `Quick test_division_errors_match;
          Alcotest.test_case "quarantined record mid-batch" `Quick
            test_quarantined_record_mid_batch;
          Alcotest.test_case "cancellation at batch boundary" `Quick
            test_cancellation_at_batch_boundary;
          Alcotest.test_case "disabled switch" `Quick test_disabled_switch
        ] );
      ( "ladder",
        [ Alcotest.test_case "vectorized -> closure -> generic" `Quick
          test_fallback_ladder ] )
    ]
