open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
module Morsel = Vida_raw.Morsel
module Governor = Vida_governor.Governor
module Effects = Vida_analysis.Effects

(* Morsel-driven parallel execution over columnar scans.

   [try_query] recognizes plan shapes whose hot loop can fold disjoint row
   ranges on worker domains:

     - Reduce over a Select*/Map* chain on one columnar source, for every
       monoid: morsel partials are merged in morsel (= source) order, so
       non-commutative collection monoids concatenate correctly;
     - Reduce over an equi-Join of two such chains: parallel hash build
       over right-side morsels (stitched in source order), then a parallel
       probe+fold over left-side morsels;
     - a bare chain (no Reduce): parallel filtered/projected
       materialization, concatenated in morsel order — the same bag, in
       the same order, the sequential engine produces.

   Anything else returns [None] and the caller falls back to the
   sequential engines — that fallback is the correctness anchor: with
   [domains = 1] or an unsupported shape, results are the sequential
   engine's by construction.

   This module runs no row itself. Every row a morsel reads is produced,
   filtered and bound by the vectorized kernel or by {!Compile}'s pipeline
   over columns fetched up front; what stays here is the parallelism:
   resolving chains, declining on effect verdicts, splitting into morsels,
   stitching the join table and merging partials in order.

   Worker-domain safety: each task instantiates its own kernel scratch or
   compiles its own closures (no shared mutable compile state), reads
   immutable column arrays built up front on the calling domain, and
   polls/charges the caller's governor session through its atomic
   counters. Expressions whose compiled form could touch shared lazy state
   (subqueries, lambdas, free variables that resolve to registry sources
   and would materialize them inside a worker) are rejected by
   {!Vida_analysis.Effects.worker_verdict}, declining parallelism rather
   than racing; every decline is recorded with its reason in
   {!last_declines}. *)

type decline = { where : string; reason : string }

(* Observability only: declines are recorded from whichever domain hits
   one and read by `.analyze`; a lost entry under contention costs a
   diagnostic line, never an answer. Registered race-allowed with the
   sanitizer on that basis. *)
let declines_cell = "parallel.declines"

let () =
  Vida_sync.Cell.allow_race ~name:declines_cell
    ~justification:
      "decline log is diagnostic-only; a lost entry under contention drops \
       an .analyze line, never an answer"

let declines : decline list ref = ref []

let note_decline ~where reason =
  Vida_sync.Cell.write ~name:declines_cell ~site:"parallel.note-decline";
  declines := { where; reason } :: !declines

let last_declines () =
  Vida_sync.Cell.read ~name:declines_cell ~site:"parallel.last-declines";
  List.rev !declines

(* Observation hook for the plan-shape rewrites this module performs
   (count-head neutralization, one-sided filter pushdown): same contract
   as [Vida_optimizer.Rules.checker]. *)
let checker : (rule:string -> before:Plan.t -> after:Plan.t -> unit) ref =
  ref (fun ~rule:_ ~before:_ ~after:_ -> ())

let with_checker f body =
  let saved = !checker in
  checker := f;
  Fun.protect ~finally:(fun () -> checker := saved) body

type step = Analysis.step = Filter of Expr.t | Bind of string * Expr.t

let chain_vars var steps =
  var :: List.filter_map (function Bind (v, _) -> Some v | Filter _ -> None) steps

(* Closure compilation of [e] must not reach shared mutable state when run
   on a worker domain; the effect analysis decides, and a decline carries
   the offending subterm so callers (and `.analyze`) can explain it. *)
let scoped ctx ~bound ~where e =
  match
    Effects.worker_verdict ~bound
      ~params:(List.map fst ctx.Plugins.params)
      e
  with
  | Ok () -> true
  | Error r ->
    note_decline ~where (Effects.reason_to_string r);
    false

let steps_scoped ctx ~bound ~where steps =
  List.for_all
    (function
      | Filter p -> scoped ctx ~bound ~where:(where ^ " filter") p
      | Bind (_, e) -> scoped ctx ~bound ~where:(where ^ " binding") e)
    steps

(* Fields of [source] the plan needs for chain variable [var]. [Whole] is
   only honored for formats whose declared field list reconstructs the
   row exactly as the sequential producer does (CSV schema, binary-array
   header); JSON/XML objects may carry fields beyond the declared element
   type, so [Whole] declines there. *)
let fields_for ctx ?(whole = false) plan ~var (source : Source.t) =
  match
    if whole then Analysis.Whole else Analysis.plan_var_needs plan ~var
  with
  | Analysis.Fields fs -> Some fs
  | Analysis.Whole -> (
    match source.Source.format with
    | Source.Csv { schema; _ } -> Some (Schema.names schema)
    | Source.Binary_array ->
      Some
        (List.map
           (fun f -> f.Vida_raw.Binarray.name)
           (Vida_raw.Binarray.header
              (Structures.binarray ctx.Plugins.structures source))
             .fields)
    | _ -> None)

type chain = {
  var : string;
  name : string;  (* registry name of the source *)
  steps : step list;
  n : int;  (* row count *)
  columns : (string * Column.t) array;
}

(* Rebuild the algebra subtree a chain stands for — used to hand the
   engine's own rewrites to the plan verifier in the same [before]/[after]
   form the optimizer rules use. *)
let plan_of_step child = function
  | Filter pred -> Plan.Select { pred; child }
  | Bind (var, expr) -> Plan.Map { var; expr; child }

let plan_of_chain (c : chain) =
  List.fold_left plan_of_step
    (Plan.Source { var = c.var; expr = Expr.Var c.name })
    c.steps

let resolve_chain ctx ?whole plan (p : Plan.t) =
  match Analysis.chain p with
  | None -> None
  | Some (var, name, steps) -> (
    match Registry.find ctx.Plugins.registry name with
    | None -> None
    | Some source -> (
      let bound = chain_vars var steps in
      if not (steps_scoped ctx ~bound ~where:"chain" steps) then None
      else
        match fields_for ctx ?whole plan ~var source with
        | None -> None (* Whole needed, format can't reconstruct rows *)
        | Some fields -> (
          (* [] is fine: only the row count matters (e.g. a neutralized
             count head) and column_arrays reports it for every format *)
          match Plugins.column_arrays ctx source ~fields with
          | None -> None
          | Some (n, columns) ->
            Some { var; name; steps; n; columns = Array.of_list columns })))

(* Morsels per domain: a few extra so the atomic-counter scheduler can
   rebalance skew between chunks. *)
let morsel_ranges n d = Morsel.chunks n (d * 4)

(* Every morsel region runs here: [n] rows split into morsels, [task ()]
   run over each range. The task is instantiated on the worker's own
   domain (its kernel scratch, or its compiled closures). Results come
   back in morsel (= source) order. *)
let drive ~domains n task =
  let ranges = morsel_ranges n domains in
  Morsel.run ~domains ~tasks:(Array.length ranges) (fun t ->
      let lo, hi = ranges.(t) in
      task () ~lo ~hi)

(* Discharge the monoid-law obligation before merging partials: the
   indexed fold below combines them in morsel (= source) order, an
   [`Ordered] strategy, which {!Effects.check_merge} proves sufficient for
   every monoid — including non-commutative list/array concatenation.
   P10: with the sanitizer active, the same obligation is discharged on
   every dispatch; a future scheduler that reordered partials would fail
   here before returning rows. *)
let merge_partials ~subject monoid partials =
  (match Effects.check_merge monoid ~strategy:`Ordered with
  | Ok () -> ()
  | Error reason ->
    raise
      (Vida_error.Error
         (Vida_error.Plan_invalid
            { stage = "parallel"; rule = Some "morsel-merge"; reason })));
  if Vida_sync.enabled () then begin
    Vida_sync.note_kernel_check ();
    match Vida_analysis.Kernel.check_merge_order monoid ~strategy:`Ordered with
    | Some reason -> Vida_sync.kernel_failed ~id:"P10" ~subject "%s" reason
    | None -> ()
  end;
  Array.fold_left (Monoid.merge monoid) (Monoid.zero monoid) partials

(* --- Reduce over one chain, and the bare chain ------------------------ *)

(* Both rungs fold morsels through [drive]: the vectorized kernel
   batch at a time, else Compile's pipeline row at a time. Partials are
   pre-finalize accumulators either way (a bare chain's are bag chunks),
   so {!merge_partials} is shared. *)
let fold_chain ctx ~domains ~monoid plan (c : chain) =
  let columns = Vector.Given (c.n, c.columns) in
  let fold task = merge_partials ~subject:c.name monoid (drive ~domains c.n task) in
  Monoid.finalize monoid
    (Ladder.run
       [ Ladder.vectorized ctx plan columns (fun kernel ->
             let acc = fold (fun () -> Vector.run_range (Vector.instantiate kernel)) in
             Vector.flush_feedback ctx kernel;
             acc) ]
       ~last:(fun () ->
         let p = Compile.pipeline ctx columns plan in
         let acc = fold (fun () -> Compile.range p Compile.Fold) in
         Compile.flush_feedback p;
         acc))

(* --- Reduce over an equi-join of two chains -------------------------- *)

let join_reduce ctx ~domains ~monoid ~head ~pred ~post ~join (lc : chain) (rc : chain) =
  let lvars = chain_vars lc.var lc.steps and rvars = chain_vars rc.var rc.steps in
  let post_vars =
    List.filter_map (function Bind (v, _) -> Some v | Filter _ -> None) post
  in
  let vars = lvars @ rvars @ post_vars in
  let slots = List.mapi (fun i v -> (v, i)) vars in
  let nslots = List.length vars in
  let keys, residual = Analysis.split_equi ~left:lvars ~right:rvars pred in
  if keys = [] then None
  else if
    not
      (scoped ctx ~bound:vars ~where:"join head" head
      && steps_scoped ctx ~bound:vars ~where:"post-join" post
      && List.for_all
           (fun (l, r) ->
             scoped ctx ~bound:vars ~where:"join key" l
             && scoped ctx ~bound:vars ~where:"join key" r)
           keys
      &&
      match residual with
      | Some r -> scoped ctx ~bound:vars ~where:"join residual" r
      | None -> true)
  then None
  else begin
    let right_slots = List.map (fun v -> List.assoc v slots) rvars in
    let chain_pipeline (c : chain) =
      Compile.pipeline ctx (Vector.Given (c.n, c.columns)) (plan_of_chain c)
    in
    let key_of exprs =
      let compiled = List.map (Compile.scalar ctx ~slots) exprs in
      fun env ->
        let key = List.map (fun c -> c env) compiled in
        (* NULL keys never match (three-valued equality) *)
        if List.exists (fun v -> v = Value.Null) key then None else Some key
    in
    (* build: each right-side morsel collects (key, snapshot) pairs, newest
       first, and counts the rows it saw *)
    let build = chain_pipeline rc in
    let built =
      drive ~domains rc.n (fun () ->
          let env = Array.make nslots Value.Null in
          let rkey = key_of (List.map snd keys) in
          let rows = ref 0 and pairs = ref [] in
          let run =
            Compile.range build
              (Compile.Push
                 ( slots, env,
                   fun () ->
                     incr rows;
                     Option.iter
                       (fun key ->
                         let snapshot = List.map (fun s -> env.(s)) right_slots in
                         Compile.charge_snapshot snapshot;
                         pairs := (key, snapshot) :: !pairs)
                       (rkey env) ))
          in
          fun ~lo ~hi ->
            run ~lo ~hi;
            (!pairs, !rows))
    in
    (* stitched on the calling domain from the last row back, prepending:
       every bucket comes out in right-source order, the order the
       sequential probe streams matches in *)
    let table = Value.Tbl.create 1024 in
    for t = Array.length built - 1 downto 0 do
      List.iter
        (fun (key, snapshot) ->
          let bucket = Option.value (Value.Tbl.find_opt table key) ~default:[] in
          Value.Tbl.replace table key (snapshot :: bucket))
        (fst built.(t))
    done;
    (* hash build done: boundary check before the probe phase starts *)
    Governor.checkpoint ~source:"parallel" ();
    let probe = chain_pipeline lc in
    (* post-join steps: a Unit-rooted chain, run once per match *)
    let after =
      Compile.pipeline ctx Vector.Fetch (List.fold_left plan_of_step Plan.Unit post)
    in
    let probed =
      drive ~domains lc.n (fun () ->
          let env = Array.make nslots Value.Null in
          let lkey = key_of (List.map fst keys) in
          let cresidual = Option.map (Compile.scalar ctx ~slots) residual in
          let chead = Compile.scalar ctx ~slots head in
          let acc = ref (Monoid.zero monoid) and rows = ref 0 and matched = ref 0 in
          let emit =
            Compile.range after
              (Compile.Push
                 ( slots, env,
                   fun () ->
                     acc := Monoid.merge monoid !acc (Monoid.unit monoid (chead env)) ))
          in
          let run =
            Compile.range probe
              (Compile.Push
                 ( slots, env,
                   fun () ->
                     incr rows;
                     Option.iter
                       (fun key ->
                         List.iter
                           (fun snapshot ->
                             List.iter2 (fun s v -> env.(s) <- v) right_slots snapshot;
                             let pass =
                               match cresidual with
                               | None -> true
                               | Some cr -> Eval.truthy (cr env)
                             in
                             if pass then (
                               incr matched;
                               emit ~lo:0 ~hi:1))
                           (Option.value (Value.Tbl.find_opt table key) ~default:[]))
                       (lkey env) ))
          in
          fun ~lo ~hi ->
            run ~lo ~hi;
            (!acc, !rows, !matched))
    in
    List.iter Compile.flush_feedback [ build; probe; after ];
    (* a Join core's selectivity, under its own predicate, as the
       compiled join records it *)
    Option.iter
      (fun pred ->
        let sum f = Array.fold_left (fun n x -> n + f x) 0 in
        Compile.record_join ctx pred
          ~left:(sum (fun (_, r, _) -> r) probed)
          ~right:(sum snd built)
          ~matched:(sum (fun (_, _, m) -> m) probed))
      join;
    Some
      (Monoid.finalize monoid
         (merge_partials ~subject:lc.name monoid (Array.map (fun (a, _, _) -> a) probed)))
  end

(* --- entry point ------------------------------------------------------ *)

let conj = function
  | [] -> None
  | p :: ps ->
    Some (List.fold_left (fun acc q -> Expr.BinOp (Expr.And, acc, q)) p ps)

(* Reduce over a join/product core: resolve both input chains, push
   one-sided filters into them (filters commute with the product — only
   evaluation counts change, never results), conjoin two-sided filters
   into the join predicate for equi-splitting, and keep everything else
   (binds, filters over bind vars) as post-join steps. *)
let try_join_reduce ctx ~domains:budget ~monoid ~head ?join plan ~left ~right steps =
  match (resolve_chain ctx plan left, resolve_chain ctx plan right) with
  | Some lc, Some rc ->
    let lvars = chain_vars lc.var lc.steps and rvars = chain_vars rc.var rc.steps in
    let one_side vars e =
      List.for_all
        (fun v -> List.mem v vars || List.mem_assoc v ctx.Plugins.params)
        (Expr.free_vars e)
    in
    let lpush = ref [] and rpush = ref [] and cross = ref [] and post = ref [] in
    List.iter
      (fun stp ->
        match stp with
        | Filter p when one_side lvars p -> lpush := stp :: !lpush
        | Filter p when one_side rvars p -> rpush := stp :: !rpush
        | Filter p when one_side (lvars @ rvars) p -> cross := p :: !cross
        | stp -> post := stp :: !post)
      steps;
    (match conj (List.rev !cross) with
    | None ->
      note_decline ~where:"join core"
        "no cross-side equi-conjunct to build a hash table on";
      None
    | Some pred ->
      let lc' = { lc with steps = lc.steps @ List.rev !lpush } in
      let rc' = { rc with steps = rc.steps @ List.rev !rpush } in
      (* the pushdown is a plan-shape rewrite: report it to the verifier
         hook in the same Product+Select form the translator uses *)
      (if !lpush <> [] || !rpush <> [] then
         let rebuild l r rest =
           List.fold_left plan_of_step
             (Plan.Product { left = plan_of_chain l; right = plan_of_chain r })
             rest
         in
         let before = rebuild lc rc steps in
         let after =
           rebuild lc' rc'
             (List.map (fun p -> Filter p) (List.rev !cross) @ List.rev !post)
         in
         !checker ~rule:"parallel-filter-pushdown" ~before ~after);
      let lc = lc' and rc = rc' in
      let domains = Morsel.domains_for_rows ~domains:budget (lc.n + rc.n) in
      if domains <= 1 then None
      else
        join_reduce ctx ~domains ~monoid ~head ~pred ~post:(List.rev !post) ~join lc rc)
  | _ -> None

let try_query ctx ?domains (plan : Plan.t) : Value.t option =
  declines := [];
  let budget =
    match domains with Some d -> max 1 d | None -> ctx.Plugins.domains
  in
  if budget <= 1 then None
  else
    (* neutralizing a count head before needs analysis keeps [count r]
       over a hierarchical source from demanding whole objects *)
    match Analysis.neutralize_count_head plan with
    | Plan.Reduce { monoid; head; child } as neutral -> (
      if neutral != plan then
        !checker ~rule:"parallel-neutralize-count-head" ~before:plan
          ~after:neutral;
      let plan = neutral in
      match resolve_chain ctx plan child with
      | Some c ->
        if
          not
            (scoped ctx
               ~bound:(chain_vars c.var c.steps)
               ~where:"fold head" head)
        then None
        else
          let domains = Morsel.domains_for_rows ~domains:budget c.n in
          if domains <= 1 then None
          else Some (fold_chain ctx ~domains ~monoid plan c)
      | None -> (
        match Analysis.peel child [] with
        | Plan.Join { pred; left; right }, steps ->
          try_join_reduce ctx ~domains:budget ~monoid ~head ~join:pred plan ~left
            ~right (Filter pred :: steps)
        | Plan.Product { left; right }, steps ->
          try_join_reduce ctx ~domains:budget ~monoid ~head plan ~left ~right steps
        | _ -> None))
    | p -> (
      (* bare chain output carries every binder's whole record *)
      match resolve_chain ctx ~whole:true p p with
      | None -> None
      | Some c ->
        let domains = Morsel.domains_for_rows ~domains:budget c.n in
        if domains <= 1 then None
        else Some (fold_chain ctx ~domains ~monoid:(Monoid.Coll Ty.Bag) p c))
