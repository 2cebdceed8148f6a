open Vida_data
open Vida_calculus
open Vida_algebra

module Governor = Vida_governor.Governor

(* Charge materialized operator state (join build snapshots, product
   snapshots, group accumulators) against the ambient governor memory
   budget; sizing is skipped when no budget is active. *)
let charge_snapshot (vs : Value.t list) =
  if Governor.budgeted () then
    Governor.charge ~source:"compile"
      (List.fold_left
         (fun acc v -> acc + 16 + Vida_storage.Cache.value_bytes v)
         0 vs)

let charge_value v =
  if Governor.budgeted () then
    Governor.charge ~source:"compile" (16 + Vida_storage.Cache.value_bytes v)

(* Binders of a plan subtree, in binding order (used for slot allocation and
   for snapshotting a side of a join). *)
let rec binders (p : Plan.t) : string list =
  match p with
  | Plan.Unit -> []
  | Plan.Source { var; _ } -> [ var ]
  | Plan.Select { child; _ } -> binders child
  | Plan.Map { var; child; _ } -> binders child @ [ var ]
  | Plan.Product { left; right } | Plan.Join { left; right; _ } ->
    binders left @ binders right
  | Plan.Unnest { var; child; _ } -> binders child @ [ var ]
  | Plan.Reduce { child; _ } -> binders child
  | Plan.Nest { var; keys; child; _ } -> binders child @ List.map fst keys @ [ var ]

(* --- runtime feedback ---

   Every instrumented operator counts into a tap: a source its rows, a
   filter the rows it saw and passed, an equi-join its left and right
   inputs and its matches. A pipeline gathers the taps of each instance it
   compiles (one per sequential run, one per morsel task), and
   [flush_feedback] sums them position by position and records each
   observation once, on the calling domain (paper §5 runtime feedback),
   where the optimizer picks them up for later queries. *)

type tap = { key : string; counts : int array; observe : int array -> float option }

let rows_observed c = if c.(0) > 0 then Some (float_of_int c.(0)) else None

let selectivity c =
  if c.(0) >= 16 then Some (float_of_int c.(1) /. float_of_int c.(0)) else None

let join_selectivity c =
  if c.(0) > 0 && c.(1) > 0 then
    Some (float_of_int c.(2) /. (float_of_int c.(0) *. float_of_int c.(1)))
  else None

type pipeline = {
  ctx : Plugins.ctx;
  columns : Vector.columns;
  plan : Plan.t;
  outer_slots : (string * int) list;
  needs : (string * Analysis.need) list;
  instances : tap list list Atomic.t;
}

(* One compiled instance of a pipeline: the row range its [Given] source
   boxes on the current run, and the taps compiled so far. *)
type instance = {
  p : pipeline;
  mutable lo : int;
  mutable hi : int;
  mutable taps : tap list;
}

let tap inst key observe width =
  let counts = Array.make width 0 in
  inst.taps <- { key; counts; observe } :: inst.taps;
  counts

let rec enlist p taps =
  let seen = Atomic.get p.instances in
  if not (Atomic.compare_and_set p.instances seen (taps :: seen)) then enlist p taps

let flush_feedback p =
  match Atomic.exchange p.instances [] with
  | [] -> ()
  | first :: rest ->
    let add sum tap =
      Array.iteri (fun i n -> sum.counts.(i) <- sum.counts.(i) + n) tap.counts
    in
    List.iter (List.iter2 add first) rest;
    List.iter
      (fun tap ->
        Option.iter
          (fun observed -> Feedback.record p.ctx.Plugins.feedback ~key:tap.key ~observed)
          (tap.observe tap.counts))
      first

(* Compile one instance of [p] (closures and taps of its own; [compile]
   builds its run) and enlist its taps. The result runs rows [lo, hi). *)
let instance p compile =
  let inst = { p; lo = 0; hi = 0; taps = [] } in
  let run = compile inst in
  enlist p inst.taps;
  fun ~lo ~hi ->
    inst.lo <- lo;
    inst.hi <- hi;
    run ()

let record_join ctx pred ~left ~right ~matched =
  Option.iter
    (fun observed ->
      Feedback.record ctx.Plugins.feedback ~key:(Feedback.join_key pred) ~observed)
    (join_selectivity [| left; right; matched |])

let make ctx ~outer_slots columns (plan : Plan.t) =
  let need var =
    match plan with
    | Plan.Reduce _ -> Analysis.plan_var_needs plan ~var
    (* a bare stream outputs every binding whole, so no projection pushdown *)
    | _ -> Analysis.Whole
  in
  { ctx; columns; plan; outer_slots;
    needs = List.map (fun var -> (var, need var)) (binders plan);
    instances = Atomic.make [] }

(* --- scalar compilation --- *)

let rec compile_scalar ctx (slots : (string * int) list) (e : Expr.t) :
    Value.t array -> Value.t =
  match e with
  | Expr.Const v -> fun _ -> v
  | Expr.Var x -> (
    match List.assoc_opt x slots with
    | Some i -> fun env -> env.(i)
    | None ->
      (* session-level free variable: parameter or registered source,
         resolved once at first use *)
      let resolved =
        lazy
          (match List.assoc_opt x ctx.Plugins.params with
          | Some v -> v
          | None -> (
            match Vida_catalog.Registry.find ctx.Plugins.registry x with
            | Some source -> Plugins.materialize_source ctx source
            | None -> raise (Plugins.Engine_error (Printf.sprintf "unbound variable %s" x))))
      in
      fun _ -> Lazy.force resolved)
  | Expr.Proj (e, f) ->
    let ce = compile_scalar ctx slots e in
    fun env -> (
      match ce env with
      | Value.Null -> Value.Null
      | Value.Record _ as r -> (
        match Value.field_opt r f with Some v -> v | None -> Value.Null)
      | v ->
        raise
          (Eval.Error
             (Printf.sprintf "projection .%s from non-record %s" f (Value.to_string v))))
  | Expr.Record fields ->
    let compiled = List.map (fun (n, e) -> (n, compile_scalar ctx slots e)) fields in
    fun env -> Value.Record (List.map (fun (n, c) -> (n, c env)) compiled)
  | Expr.If (c, t, f) ->
    let cc = compile_scalar ctx slots c
    and ct = compile_scalar ctx slots t
    and cf = compile_scalar ctx slots f in
    fun env -> (
      match cc env with
      | Value.Bool true -> ct env
      | Value.Bool false | Value.Null -> cf env
      | v -> raise (Eval.Error (Printf.sprintf "if condition evaluated to %s" (Value.to_string v))))
  | Expr.BinOp (op, a, b) ->
    let ca = compile_scalar ctx slots a and cb = compile_scalar ctx slots b in
    fun env -> Eval.eval_binop op (ca env) (cb env)
  | Expr.UnOp (op, a) ->
    let ca = compile_scalar ctx slots a in
    fun env -> Eval.eval_unop op (ca env)
  | Expr.Zero m ->
    let z = Monoid.zero m in
    fun _ -> z
  | Expr.Singleton (m, e) ->
    let ce = compile_scalar ctx slots e in
    fun env -> Monoid.unit m (ce env)
  | Expr.Merge (m, a, b) ->
    let ca = compile_scalar ctx slots a and cb = compile_scalar ctx slots b in
    fun env -> Monoid.merge m (ca env) (cb env)
  | Expr.Index (e, idxs) ->
    let ce = compile_scalar ctx slots e
    and cidxs = List.map (compile_scalar ctx slots) idxs in
    fun env -> (
      match ce env with
      | Value.Null -> Value.Null
      | arr -> Value.array_get arr (List.map (fun c -> Value.to_int (c env)) cidxs))
  | Expr.Comp _ ->
    (* correlated subquery: compile to a closure over the outer env *)
    compile_subquery ctx slots e
  | Expr.Lambda _ | Expr.Apply _ ->
    (* functions escape closure compilation: generic interpreter fallback *)
    let base = lazy (Plugins.base_eval_env ctx) in
    fun env ->
      let full =
        List.fold_left
          (fun acc (x, i) -> Eval.bind x env.(i) acc)
          (Lazy.force base) slots
      in
      Eval.eval full e

(* --- correlated subqueries --- *)

and compile_subquery ctx outer_slots (e : Expr.t) : Value.t array -> Value.t =
  let plan = Translate.plan_of_comp e in
  let free = Plan.free_vars plan in
  let outer_needed = List.filter (fun v -> List.mem_assoc v outer_slots) free in
  let sub_outer_slots = List.mapi (fun i v -> (v, i)) outer_needed in
  let run = compile_query ctx ~outer_slots:sub_outer_slots plan in
  let copies =
    List.map (fun (v, dst) -> (List.assoc v outer_slots, dst)) sub_outer_slots
  in
  fun outer_env ->
    run (fun sub_env ->
        List.iter (fun (src, dst) -> sub_env.(dst) <- outer_env.(src)) copies)

(* --- operator compilation --- *)

(* [compile_query ctx ~outer_slots plan] returns [run] such that [run init]
   executes the plan and yields its value; [init] preloads outer bindings
   into the fresh environment. Each run is one instance of the plan's
   pipeline and records its own feedback. *)
and compile_query ctx ~outer_slots (plan : Plan.t) : (Value.t array -> unit) -> Value.t =
  let p = make ctx ~outer_slots Vector.Fetch plan in
  let finalize =
    match plan with Plan.Reduce { monoid; _ } -> Monoid.finalize monoid | _ -> Fun.id
  in
  fun init ->
    let v = fold p init ~lo:0 ~hi:0 in
    flush_feedback p;
    finalize v

(* One instance folding a Reduce to its pre-finalize accumulator, or a
   bare stream to the bag of its binding records (matching the reference
   executor), in a fresh environment preloaded by [init]. *)
and fold p init =
  let base = List.length p.outer_slots in
  let vars = binders p.plan in
  let slots = p.outer_slots @ List.mapi (fun i v -> (v, base + i)) vars in
  instance p (fun inst ->
      let env = Array.make (base + List.length vars) Value.Null in
      init env;
      let child, consume, result =
        match p.plan with
        | Plan.Reduce { monoid; head; child } ->
          let chead = compile_scalar p.ctx slots head in
          let acc = ref (Monoid.zero monoid) in
          ( child,
            (fun () -> acc := Monoid.merge monoid !acc (Monoid.unit monoid (chead env))),
            fun () -> !acc )
        | plan ->
          let out = ref [] in
          ( plan,
            (fun () ->
              out :=
                Value.Record (List.map (fun v -> (v, env.(List.assoc v slots))) vars)
                :: !out),
            fun () -> Value.Bag (List.rev !out) )
      in
      let run = compile_ops inst slots env child consume in
      fun () ->
        run ();
        result ())

(* Compile the operator tree to a push pipeline over the shared [env].
   Operators are lightly instrumented with taps (see above). *)
and compile_ops inst slots env (p : Plan.t) (consume : unit -> unit) : unit -> unit =
  let ctx = inst.p.ctx in
  let slot v = List.assoc v slots in
  let need var = Option.value (List.assoc_opt var inst.p.needs) ~default:Analysis.Whole in
  match p with
  | Plan.Unit -> fun () -> consume ()
  | Plan.Source { var; expr } ->
    let s = slot var in
    if List.exists (fun v -> List.mem_assoc v slots) (Expr.free_vars expr) then (
      (* correlated source: the collection expression references plan-bound
         variables (e.g. a group produced by Nest) — evaluate it against
         the environment instead of dispatching to a file plugin *)
      let ce = compile_scalar ctx slots expr in
      fun () ->
        match ce env with
        | Value.Null -> ()
        | coll ->
          List.iter
            (fun v ->
              env.(s) <- v;
              consume ())
            (Value.elements coll))
    else (
      let rows =
        match expr with
        | Expr.Var name -> tap inst (Feedback.cardinality_key name) rows_observed 1
        | _ -> [| 0 |]
      in
      let push v =
        Governor.poll ~source:"compile" ();
        rows.(0) <- rows.(0) + 1;
        env.(s) <- v;
        consume ()
      in
      match inst.p.columns with
      | Vector.Fetch -> fun () -> Plugins.producer ctx expr ~need:(need var) push
      | Vector.Given (_, columns) ->
        (* a morsel: box rows [lo, hi) from columns fetched by the caller *)
        fun () ->
          for i = inst.lo to inst.hi - 1 do
            let field (f, c) fs = (f, Column.get c i) :: fs in
            push (Value.Record (Array.fold_right field columns []))
          done)
  | Plan.Select _ -> (
    (* gather the whole selection chain so scan-level pushdown sees every
       conjunct, not just the innermost Select *)
    let rec gather acc (p : Plan.t) =
      match p with
      | Plan.Select { pred; child } -> gather (pred :: acc) child
      | p -> (acc, p)
    in
    let preds, base = gather [] p in
    (* chain the compiled filters (each instrumented for feedback) *)
    let filtered =
      List.fold_left
        (fun consume pred ->
          let cp = compile_scalar ctx slots pred in
          let c = tap inst (Feedback.selectivity_key pred) selectivity 2 in
          fun () ->
            c.(0) <- c.(0) + 1;
            if Eval.truthy (cp env) then (
              c.(1) <- c.(1) + 1;
              consume ()))
        consume preds
    in
    (* scan-level predicate pushdown: a filtered scan of a binary array
       hands its numeric bounds to the format's zone maps, skipping blocks
       that cannot match; the exact predicates still run above *)
    match (inst.p.columns, base) with
    | Vector.Fetch, Plan.Source { var; expr = Expr.Var name } -> (
      let source = Vida_catalog.Registry.find ctx.Plugins.registry name in
      match source with
      | Some ({ Vida_catalog.Source.format = Vida_catalog.Source.Binary_array; _ } as source) ->
        let ranges =
          List.filter_map (Analysis.range_of ~var)
            (List.concat_map Analysis.conjuncts preds)
        in
        if ranges = [] then compile_ops inst slots env base filtered
        else (
          let s = slot var in
          fun () ->
            Plugins.binarray_ranged_producer ctx source (need var) ~ranges (fun v ->
                Governor.poll ~source:"compile" ();
                env.(s) <- v;
                filtered ()))
      | _ -> compile_ops inst slots env base filtered)
    | _ -> compile_ops inst slots env base filtered)
  | Plan.Map { var; expr; child } ->
    let s = slot var in
    let ce = compile_scalar ctx slots expr in
    compile_ops inst slots env child (fun () ->
        env.(s) <- ce env;
        consume ())
  | Plan.Unnest { var; path; outer; child } ->
    let s = slot var in
    let cp = compile_scalar ctx slots path in
    compile_ops inst slots env child (fun () ->
        let elements =
          match cp env with Value.Null -> [] | coll -> Value.elements coll
        in
        match elements with
        | [] ->
          if outer then (
            env.(s) <- Value.Null;
            consume ())
        | vs ->
          List.iter
            (fun v ->
              env.(s) <- v;
              consume ())
            vs)
  | Plan.Product { left; right } ->
    let right_slots = List.map slot (binders right) in
    let stored = ref [] in
    let run_right =
      compile_ops inst slots env right (fun () ->
          let snapshot = List.map (fun i -> env.(i)) right_slots in
          charge_snapshot snapshot;
          stored := snapshot :: !stored)
    in
    let run_left =
      compile_ops inst slots env left (fun () ->
          List.iter
            (fun snapshot ->
              List.iter2 (fun i v -> env.(i) <- v) right_slots snapshot;
              consume ())
            !stored)
    in
    fun () ->
      stored := [];
      run_right ();
      (* right side fully materialized: boundary check before re-scan *)
      Governor.checkpoint ~source:"compile" ();
      stored := List.rev !stored;
      run_left ()
  | Plan.Join { pred; left; right } -> (
    let lvars = binders left and rvars = binders right in
    let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
    match keys with
    | [] ->
      (* no equi-conjunct: product plus filter *)
      compile_ops inst slots env
        (Plan.Select { pred; child = Plan.Product { left; right } })
        consume
    | keys ->
      let right_slots = List.map slot rvars in
      let lkeys = List.map (fun (l, _) -> compile_scalar ctx slots l) keys in
      let rkeys = List.map (fun (_, r) -> compile_scalar ctx slots r) keys in
      let cresidual = Option.map (compile_scalar ctx slots) residual in
      let table : Value.t list list Value.Tbl.t = Value.Tbl.create 1024 in
      (* left rows in, right rows in, matches out *)
      let c = tap inst (Feedback.join_key pred) join_selectivity 3 in
      let run_right =
        compile_ops inst slots env right (fun () ->
            c.(1) <- c.(1) + 1;
            let key = List.map (fun c -> c env) rkeys in
            (* NULL keys never match (three-valued equality) *)
            if not (List.exists (fun v -> v = Value.Null) key) then (
              let snapshot = List.map (fun i -> env.(i)) right_slots in
              charge_snapshot snapshot;
              let bucket = try Value.Tbl.find table key with Not_found -> [] in
              Value.Tbl.replace table key (snapshot :: bucket)))
      in
      let run_left =
        compile_ops inst slots env left (fun () ->
            c.(0) <- c.(0) + 1;
            let key = List.map (fun c -> c env) lkeys in
            if not (List.exists (fun v -> v = Value.Null) key) then
              match Value.Tbl.find_opt table key with
              | None -> ()
              | Some bucket ->
                List.iter
                  (fun snapshot ->
                    List.iter2 (fun i v -> env.(i) <- v) right_slots snapshot;
                    match cresidual with
                    | None ->
                      c.(2) <- c.(2) + 1;
                      consume ()
                    | Some cr ->
                      if Eval.truthy (cr env) then (
                        c.(2) <- c.(2) + 1;
                        consume ()))
                  (List.rev bucket))
      in
      fun () ->
        Value.Tbl.reset table;
        run_right ();
        (* hash build done: boundary check before the probe phase starts *)
        Governor.checkpoint ~source:"compile" ();
        run_left ())
  | Plan.Reduce _ ->
    invalid_arg "Compile: nested Reduce operator (subqueries live in scalars)"
  | Plan.Nest { monoid; var; head; keys; child } ->
    let key_slots = List.map (fun (n, _) -> slot n) keys in
    let var_slot = slot var in
    let ckeys = List.map (fun (_, k) -> compile_scalar ctx slots k) keys in
    let chead = compile_scalar ctx slots head in
    let table : Value.t ref Value.Tbl.t = Value.Tbl.create 256 in
    let order = ref [] in
    let run_child =
      compile_ops inst slots env child (fun () ->
          let key = List.map (fun c -> c env) ckeys in
          let acc =
            match Value.Tbl.find_opt table key with
            | Some acc -> acc
            | None ->
              let acc = ref (Monoid.zero monoid) in
              Value.Tbl.add table key acc;
              order := key :: !order;
              acc
          in
          let unit = Monoid.unit monoid (chead env) in
          charge_value unit;
          acc := Monoid.merge monoid !acc unit)
    in
    fun () ->
      Value.Tbl.reset table;
      order := [];
      run_child ();
      Governor.checkpoint ~source:"compile" ();
      List.iter
        (fun key ->
          let acc = Value.Tbl.find table key in
          List.iter2 (fun s v -> env.(s) <- v) key_slots key;
          env.(var_slot) <- Monoid.finalize monoid !acc;
          consume ())
        (List.rev !order)

(* The compiled tier of the degradation ladder: the vectorized rung, then
   the closure engine, compiled on first need and reused by later runs. *)
let query ctx plan =
  let closure = lazy (compile_query ctx ~outer_slots:[] plan) in
  let vectorized = Ladder.vectorized ctx plan Vector.Fetch (Vector.run ctx) in
  fun () ->
    Ladder.run [ vectorized ] ~last:(fun () -> Lazy.force closure (fun _ -> ()))

let scalar ctx ~slots e = compile_scalar ctx slots e

let pipeline ctx columns plan = make ctx ~outer_slots:[] columns plan

type _ sink =
  | Fold : Value.t sink
  | Push : (string * int) list * Value.t array * (unit -> unit) -> unit sink

let range (type a) p (sink : a sink) : lo:int -> hi:int -> a =
  match sink with
  | Fold -> fold p ignore
  | Push (slots, env, consume) ->
    instance p (fun inst -> compile_ops inst slots env p.plan consume)
