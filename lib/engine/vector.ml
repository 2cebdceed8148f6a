open Vida_data
open Vida_calculus
open Vida_algebra
open Vida_catalog
module Governor = Vida_governor.Governor
module Epoch = Vida_raw.Epoch
module Binarray = Vida_raw.Binarray
module BA1 = Bigarray.Array1

(* Vectorized batch execution (paper §4: "operate over raw data as fast as
   the hardware allows").

   The closure engine executes tuple-at-a-time: per row it pays a governor
   poll, a record allocation, a closure call per operator and a monoid
   merge allocation. This module replaces that hot loop for the commonest
   plan shape — Reduce over a Select*/Map* chain on one columnar source —
   with batch-at-a-time kernels:

   - source columns live in unboxed buffers ([Bigarray] float64/int) plus
     a byte validity mask (1 = non-NULL) — the cache's own typed columns
     ({!Column}), used as they are — or are batch-decoded straight out of
     a binary-array file ({!Binarray.fill_floats});
   - a selection vector (row indices surviving the filters so far) is
     threaded through the operators instead of materializing intermediate
     rows; filters compact it in place, binds evaluate into dense buffers
     aligned with it;
   - select→map→reduce is fused: each batch runs a handful of tight array
     loops and folds directly into a scalar accumulator;
   - governor cancellation polls, epoch ticks and memory charges are
     hoisted to batch boundaries ({!Governor.poll_batch} advances the poll
     counter by the whole batch, so deadline/cancellation/budget semantics
     stay record-equivalent).

   Scalar semantics are bit-compatible with {!Eval.eval_binop} /
   {!Monoid}: Int-vs-Float result types are preserved by typing every
   kernel statically (a column mixing Int and Float declines), comparisons
   use [Float.compare] (NaN totally ordered, as [Value.compare] does),
   integer division/modulo by zero raise the same {!Eval.Error}s, NULLs
   propagate through validity masks, and a whole-scan {!run} accumulates
   in row order so float folds associate exactly as the closure engine's.

   Anything outside the fragment — other monoids, non-scalar expressions,
   mixed-type or non-scalar columns, sources without a columnar view
   (cleaning policies skipping rows, external producers) — declines with a
   reason; {!Ladder} records it as the ["vectorized->closure"] rung of the
   degradation ladder and the closure engine takes over. *)

exception Not_vectorizable of string

let decline fmt = Format.kasprintf (fun s -> raise (Not_vectorizable s)) fmt

(* --- configuration ---------------------------------------------------- *)

let default_batch_rows = 4096

let env_batch_rows =
  match Sys.getenv_opt "VIDA_BATCH_ROWS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let batch_rows_ref = ref (Option.value env_batch_rows ~default:default_batch_rows)
let set_batch_rows n = batch_rows_ref := max 1 n
let batch_rows () = !batch_rows_ref

let enabled_ref =
  ref
    (match Sys.getenv_opt "VIDA_VECTOR" with
    | Some ("0" | "off" | "false") -> false
    | _ -> true)

let set_enabled b = enabled_ref := b
let enabled () = !enabled_ref

(* --- process-global statistics (server health) ------------------------ *)

type stats = {
  kernels : int;  (* queries (or morsel fleets) that compiled a kernel *)
  batches : int;
  rows : int;
  fallbacks : int;
  batch_rows_p50 : int;  (* over recent batches *)
  last_fallbacks : string list;  (* most recent reasons, newest first *)
}

let s_kernels = Atomic.make 0
let s_batches = Atomic.make 0
let s_rows = Atomic.make 0
let ring_cap = 256

(* ring entries are atomics: slots are claimed with a fetch-and-add on the
   cursor and written from every worker domain, so a plain array could
   serve the p50 torn or stale values under the memory model *)
let s_ring = Array.init ring_cap (fun _ -> Atomic.make 0)
let s_cursor = Atomic.make 0

(* the fallback counter and its reason ring move together under the lock:
   a health snapshot must never show reasons without matching counts *)
let reasons_lock = Vida_sync.Lock.create ~rank:70 ~name:"vector.reasons" ()
let s_fallbacks = ref 0
let s_reasons : string list ref = ref []

let note_batch rows =
  ignore (Atomic.fetch_and_add s_batches 1);
  ignore (Atomic.fetch_and_add s_rows rows);
  let slot = Atomic.fetch_and_add s_cursor 1 in
  Atomic.set s_ring.(slot mod ring_cap) rows

let note_fallback reason =
  Vida_sync.Lock.protect reasons_lock (fun () ->
      incr s_fallbacks;
      s_reasons :=
        reason :: (if List.length !s_reasons >= 8 then List.filteri (fun i _ -> i < 7) !s_reasons else !s_reasons))

let stats () =
  let filled = min (Atomic.get s_cursor) ring_cap in
  let p50 =
    if filled = 0 then 0
    else begin
      let xs = Array.init filled (fun i -> Atomic.get s_ring.(i)) in
      Array.sort compare xs;
      xs.(filled / 2)
    end
  in
  let fallbacks, last_fallbacks =
    Vida_sync.Lock.protect reasons_lock (fun () -> (!s_fallbacks, !s_reasons))
  in
  { kernels = Atomic.get s_kernels; batches = Atomic.get s_batches;
    rows = Atomic.get s_rows; fallbacks;
    batch_rows_p50 = p50;
    last_fallbacks }

let reset_stats () =
  Atomic.set s_kernels 0;
  Atomic.set s_batches 0;
  Atomic.set s_rows 0;
  Atomic.set s_cursor 0;
  Vida_sync.Lock.protect reasons_lock (fun () ->
      s_fallbacks := 0;
      s_reasons := [])

(* --- unboxed columns -------------------------------------------------- *)

type fcol = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type icol = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t

(* A source column. Validity [None] means every row is non-NULL (the
   gather loops skip the mask copy). [ColRaw*] columns are batch-decoded
   straight from the binary-array file into per-instance staging buffers —
   no whole-column materialization at all. *)
type col =
  | ColF of fcol * Bytes.t option
  | ColI of icol * Bytes.t option
  | ColB of Bytes.t * Bytes.t option
  | ColRawF of Binarray.t * int
  | ColRawI of Binarray.t * int

type vty = TF | TI | TB

let col_ty = function
  | ColF _ | ColRawF _ -> TF
  | ColI _ | ColRawI _ -> TI
  | ColB _ -> TB

(* A cached column as a kernel column. Numeric columns are unboxed
   already (typed once, when the decoder or the cache built them), so they
   are used as they are; a boxed column is typed here, per run — a
   Bool column is the one kind that can succeed. The type is exact, never
   widened: a column mixing Int and Float declines, because Int-vs-Float
   result typing in {!Eval} is per-row and a widened column would change
   result types. *)
let col_of_column ~field (c : Column.t) : col =
  match c with
  | Column.Floats (a, v) -> ColF (a, v)
  | Column.Ints (a, v) -> ColI (a, v)
  | Column.Boxed arr ->
    let n = Array.length arr in
    let typed = ref false and nulls = ref false in
    Array.iter
      (function
        | Value.Null -> nulls := true
        | Value.Bool _ -> typed := true
        | _ -> decline "column %s is not a uniform numeric/bool column" field)
      arr;
    if not !typed then decline "column %s has no typed values" field;
    let bit f = Bytes.init n (fun i -> if f arr.(i) then '\001' else '\000') in
    let validity = if !nulls then Some (bit (fun v -> v <> Value.Null)) else None in
    ColB (bit (fun v -> v = Value.Bool true), validity)

(* --- typed kernel IR -------------------------------------------------- *)

(* Every node carries its static result type; Int->Float coercions are
   explicit ([XItoF]), inserted where {!Eval.eval_binop}'s mixed-operand
   rules would convert. [XDivF]'s flag marks a statically-Int divisor:
   eval raises on [_ / Int 0] even when the dividend is Float, and the
   Int->Float conversion is exact at 0, so the check survives coercion. *)
type vx =
  | XConstF of float
  | XConstI of int
  | XConstB of bool
  | XColF of int
  | XColI of int
  | XColB of int
  | XBind of int * vty
  | XItoF of vx
  | XArithF of Expr.binop * vx * vx
  | XArithI of Expr.binop * vx * vx
  | XDivF of vx * vx * bool  (* divisor statically Int: zero still raises *)
  | XDivI of vx * vx
  | XModI of vx * vx
  | XCmpF of Expr.binop * vx * vx
  | XCmpI of Expr.binop * vx * vx
  | XAnd of vx * vx
  | XOr of vx * vx
  | XNot of vx
  | XNegF of vx
  | XNegI of vx

let vx_ty = function
  | XConstF _ | XColF _ | XItoF _ | XArithF _ | XDivF _ | XNegF _ -> TF
  | XConstI _ | XColI _ | XArithI _ | XDivI _ | XModI _ | XNegI _ -> TI
  | XConstB _ | XColB _ | XCmpF _ | XCmpI _ | XAnd _ | XOr _ | XNot _ -> TB
  | XBind (_, ty) -> ty

(* Compile one scalar expression to the typed IR. [cols] maps source
   fields (projections off the chain variable) to column slots, [binds]
   maps Map-introduced variables to bind slots, parameters fold to
   constants. Everything else declines with the offending construct. *)
type cenv = {
  src_var : string;
  cols : (string * int) list;
  col_tys : vty array;
  binds : (string * int) list;
  bind_tys : vty array;
  params : (string * Value.t) list;
}

let rec cx env (e : Expr.t) : vx =
  match e with
  | Expr.Const (Value.Int i) -> XConstI i
  | Expr.Const (Value.Float f) -> XConstF f
  | Expr.Const (Value.Bool b) -> XConstB b
  | Expr.Const v -> decline "non-scalar constant %s" (Value.to_string v)
  | Expr.Proj (Expr.Var v, f) when String.equal v env.src_var -> (
    match List.assoc_opt f env.cols with
    | None -> decline "field %s has no promoted column" f
    | Some slot -> (
      match env.col_tys.(slot) with
      | TF -> XColF slot
      | TI -> XColI slot
      | TB -> XColB slot))
  | Expr.Var x -> (
    match List.assoc_opt x env.binds with
    | Some slot -> XBind (slot, env.bind_tys.(slot))
    | None -> (
      if String.equal x env.src_var then decline "whole-row reference %s" x
      else
        match List.assoc_opt x env.params with
        | Some (Value.Int i) -> XConstI i
        | Some (Value.Float f) -> XConstF f
        | Some (Value.Bool b) -> XConstB b
        | Some v -> decline "non-scalar parameter %s = %s" x (Value.to_string v)
        | None -> decline "free variable %s" x))
  | Expr.UnOp (Expr.Not, a) -> (
    let xa = cx env a in
    match vx_ty xa with
    | TB -> XNot xa
    | _ -> decline "'not' on non-boolean kernel operand")
  | Expr.UnOp (Expr.Neg, a) -> (
    let xa = cx env a in
    match vx_ty xa with
    | TF -> XNegF xa
    | TI -> XNegI xa
    | TB -> decline "negation of boolean kernel operand")
  | Expr.BinOp (op, a, b) -> (
    let xa = cx env a and xb = cx env b in
    let ta = vx_ty xa and tb = vx_ty xb in
    let as_f x = if vx_ty x = TI then XItoF x else x in
    match op with
    | Expr.Add | Expr.Sub | Expr.Mul -> (
      match ta, tb with
      | TI, TI -> XArithI (op, xa, xb)
      | (TI | TF), (TI | TF) -> XArithF (op, as_f xa, as_f xb)
      | _ -> decline "arithmetic on boolean kernel operand")
    | Expr.Div -> (
      match ta, tb with
      | TI, TI -> XDivI (xa, xb)
      | (TI | TF), (TI | TF) -> XDivF (as_f xa, as_f xb, tb = TI)
      | _ -> decline "division on boolean kernel operand")
    | Expr.Mod -> (
      match ta, tb with
      | TI, TI -> XModI (xa, xb)
      | _ -> decline "modulo on non-integer kernel operands")
    | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> (
      match ta, tb with
      | TI, TI -> XCmpI (op, xa, xb)
      | (TI | TF), (TI | TF) -> XCmpF (op, as_f xa, as_f xb)
      | _ -> decline "comparison on boolean kernel operands")
    | Expr.And -> (
      match ta, tb with
      | TB, TB -> XAnd (xa, xb)
      | _ -> decline "'and' on non-boolean kernel operands")
    | Expr.Or -> (
      match ta, tb with
      | TB, TB -> XOr (xa, xb)
      | _ -> decline "'or' on non-boolean kernel operands")
    | Expr.Concat -> decline "string concatenation")
  | Expr.Proj _ -> decline "projection off a non-source value"
  | Expr.If _ -> decline "conditional"
  | Expr.Record _ -> decline "record construction"
  | Expr.Lambda _ | Expr.Apply _ -> decline "function value"
  | Expr.Zero _ | Expr.Singleton _ | Expr.Merge _ | Expr.Comp _ ->
    decline "nested monoid expression"
  | Expr.Index _ -> decline "array indexing"

(* Structural (type-independent) support check, run before any column is
   fetched so statically hopeless plans decline without touching data. *)
let rec check_structure ~src_var (e : Expr.t) =
  match e with
  | Expr.Const (Value.Int _ | Value.Float _ | Value.Bool _) -> ()
  | Expr.Const v -> decline "non-scalar constant %s" (Value.to_string v)
  | Expr.Proj (Expr.Var v, _) when String.equal v src_var -> ()
  | Expr.Var x when String.equal x src_var -> decline "whole-row reference %s" x
  | Expr.Var _ -> () (* bind var or parameter; typing decides at run *)
  | Expr.UnOp (_, a) -> check_structure ~src_var a
  | Expr.BinOp (Expr.Concat, _, _) -> decline "string concatenation"
  | Expr.BinOp (_, a, b) ->
    check_structure ~src_var a;
    check_structure ~src_var b
  | Expr.Proj _ -> decline "projection off a non-source value"
  | Expr.If _ -> decline "conditional"
  | Expr.Record _ -> decline "record construction"
  | Expr.Lambda _ | Expr.Apply _ -> decline "function value"
  | Expr.Zero _ | Expr.Singleton _ | Expr.Merge _ | Expr.Comp _ ->
    decline "nested monoid expression"
  | Expr.Index _ -> decline "array indexing"

(* Fields of the source the kernels touch: projections off the chain var. *)
let rec proj_fields ~src_var acc (e : Expr.t) =
  match e with
  | Expr.Proj (Expr.Var v, f) when String.equal v src_var ->
    if List.mem f acc then acc else f :: acc
  | Expr.Const _ | Expr.Var _ -> acc
  | Expr.UnOp (_, a) -> proj_fields ~src_var acc a
  | Expr.BinOp (_, a, b) -> proj_fields ~src_var (proj_fields ~src_var acc a) b
  | Expr.Proj (a, _) -> proj_fields ~src_var acc a
  | Expr.If (a, b, c) ->
    proj_fields ~src_var (proj_fields ~src_var (proj_fields ~src_var acc a) b) c
  | Expr.Record fs ->
    List.fold_left (fun acc (_, e) -> proj_fields ~src_var acc e) acc fs
  | Expr.Lambda (_, a) -> proj_fields ~src_var acc a
  | Expr.Apply (a, b) | Expr.Merge (_, a, b) ->
    proj_fields ~src_var (proj_fields ~src_var acc a) b
  | Expr.Zero _ -> acc
  | Expr.Singleton (_, a) -> proj_fields ~src_var acc a
  | Expr.Comp _ -> acc
  | Expr.Index (a, idxs) ->
    List.fold_left (proj_fields ~src_var) (proj_fields ~src_var acc a) idxs

(* --- compiled kernels -------------------------------------------------- *)

type feedback_tap = {
  tap_pred : Expr.t;
  seen : int Atomic.t;
  passed : int Atomic.t;
}

type kstep = KFilter of vx * feedback_tap | KBind of int * vx

type kernel = {
  k_name : string;  (* registry name, for epoch ticks & poll source *)
  k_cols : col array;
  k_nrows : int;
  k_steps : kstep list;
  k_nbinds : int;
  k_head : vx;
  k_monoid : Monoid.t;
  k_taps : feedback_tap list;
  k_prune : (Binarray.t * Binarray.range list) option;
      (* zone-map batch pruning for direct binary-array scans *)
}

(* Build a kernel for an already-resolved chain: typed columns, typed
   steps, typed head, reduce kind validated against the head type. *)
let build_kernel ?prune ~name ~var ~(cols : (string * col) array) ~nrows ~steps
    ~monoid ~head () : kernel =
  let col_tys = Array.map (fun (_, c) -> col_ty c) cols in
  let col_slots = Array.to_list (Array.mapi (fun i (f, _) -> (f, i)) cols) in
  let bind_names =
    List.filter_map
      (function Analysis.Bind (v, _) -> Some v | Analysis.Filter _ -> None)
      steps
  in
  let nbinds = List.length bind_names in
  let bind_slots = List.mapi (fun i v -> (v, i)) bind_names in
  let bind_tys = Array.make (max nbinds 1) TF in
  (* binds are typed in step order; a bind may reference earlier binds *)
  let env =
    { src_var = var; cols = col_slots; col_tys; binds = []; bind_tys;
      params = [] }
  in
  let taps = ref [] in
  let _, ksteps =
    List.fold_left
      (fun (env, acc) s ->
        match s with
        | Analysis.Filter p ->
          let x = cx env p in
          if vx_ty x <> TB then decline "filter is not boolean-typed";
          let tap =
            { tap_pred = p; seen = Atomic.make 0; passed = Atomic.make 0 }
          in
          taps := tap :: !taps;
          (env, KFilter (x, tap) :: acc)
        | Analysis.Bind (v, e) ->
          let x = cx env e in
          let slot = List.assoc v bind_slots in
          bind_tys.(slot) <- vx_ty x;
          ({ env with binds = (v, slot) :: env.binds }, KBind (slot, x) :: acc))
      (env, []) steps
  in
  let env =
    { env with binds = bind_slots }
  in
  let head_x = cx env head in
  (match monoid, vx_ty head_x with
  | Monoid.Prim (Monoid.Sum | Monoid.Prod | Monoid.Avg | Monoid.Max | Monoid.Min), TB
    ->
    decline "numeric monoid over a boolean head"
  | Monoid.Prim (Monoid.All | Monoid.Some_), (TF | TI) ->
    decline "boolean monoid over a numeric head"
  | _ -> ());
  ignore (Atomic.fetch_and_add s_kernels 1);
  { k_name = name; k_cols = Array.map snd cols; k_nrows = nrows;
    k_steps = List.rev ksteps; k_nbinds = nbinds; k_head = head_x;
    k_monoid = monoid; k_taps = !taps; k_prune = prune }

(* --- instances: per-domain scratch + the batch loop -------------------- *)

type vval = VF of float array * Bytes.t | VI of int array * Bytes.t | VB of Bytes.t * Bytes.t

let dummy_vval = VB (Bytes.create 0, Bytes.create 0)

type state = {
  bcap : int;
  sel : int array;
  mutable n : int;  (* live rows in [sel] *)
  mutable batch_lo : int;
  ones : Bytes.t;
  cols : col array;
  stage_f : fcol array;  (* per raw column, else 0-length *)
  stage_i : icol array;
  binds : vval array;
  mutable assigned : int;  (* bind slots filled so far this batch *)
}

let as_f = function VF (a, v) -> (a, v) | _ -> assert false
let as_i = function VI (a, v) -> (a, v) | _ -> assert false
let as_b = function VB (a, v) -> (a, v) | _ -> assert false

let valid c = c = '\001'

(* Build the evaluator closure tree for one instance. Every operator node
   owns its output buffers and writes nothing else; leaves return borrowed
   buffers (columns gather into their own scratch, binds and constants are
   returned as-is). Values under an invalid mask are garbage by design —
   only division/modulo guard on validity, everything else computes
   through and lets the mask win. *)
let rec build st (x : vx) : unit -> vval =
  let fbuf () = Array.make st.bcap 0.
  and ibuf () = Array.make st.bcap 0
  and bbuf () = Bytes.make st.bcap '\000' in
  match x with
  | XConstF c ->
    let a = fbuf () in
    Array.fill a 0 st.bcap c;
    let r = VF (a, st.ones) in
    fun () -> r
  | XConstI c ->
    let a = ibuf () in
    Array.fill a 0 st.bcap c;
    let r = VI (a, st.ones) in
    fun () -> r
  | XConstB c ->
    let a = bbuf () in
    Bytes.fill a 0 st.bcap (if c then '\001' else '\000');
    let r = VB (a, st.ones) in
    fun () -> r
  | XBind (slot, _) -> fun () -> st.binds.(slot)
  | XColF ci -> (
    let out = fbuf () in
    match st.cols.(ci) with
    | ColF (src, None) ->
      fun () ->
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get src (Array.unsafe_get st.sel k))
        done;
        VF (out, st.ones)
    | ColF (src, Some sv) ->
      let vd = bbuf () in
      fun () ->
        for k = 0 to st.n - 1 do
          let r = Array.unsafe_get st.sel k in
          Array.unsafe_set out k (BA1.unsafe_get src r);
          Bytes.unsafe_set vd k (Bytes.unsafe_get sv r)
        done;
        VF (out, vd)
    | ColRawF _ ->
      let stage = st.stage_f.(ci) in
      fun () ->
        let lo = st.batch_lo in
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get stage (Array.unsafe_get st.sel k - lo))
        done;
        VF (out, st.ones)
    | _ -> assert false)
  | XColI ci -> (
    let out = ibuf () in
    match st.cols.(ci) with
    | ColI (src, None) ->
      fun () ->
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get src (Array.unsafe_get st.sel k))
        done;
        VI (out, st.ones)
    | ColI (src, Some sv) ->
      let vd = bbuf () in
      fun () ->
        for k = 0 to st.n - 1 do
          let r = Array.unsafe_get st.sel k in
          Array.unsafe_set out k (BA1.unsafe_get src r);
          Bytes.unsafe_set vd k (Bytes.unsafe_get sv r)
        done;
        VI (out, vd)
    | ColRawI _ ->
      let stage = st.stage_i.(ci) in
      fun () ->
        let lo = st.batch_lo in
        for k = 0 to st.n - 1 do
          Array.unsafe_set out k (BA1.unsafe_get stage (Array.unsafe_get st.sel k - lo))
        done;
        VI (out, st.ones)
    | _ -> assert false)
  | XColB ci -> (
    let out = bbuf () in
    match st.cols.(ci) with
    | ColB (src, None) ->
      fun () ->
        for k = 0 to st.n - 1 do
          Bytes.unsafe_set out k (Bytes.unsafe_get src (Array.unsafe_get st.sel k))
        done;
        VB (out, st.ones)
    | ColB (src, Some sv) ->
      let vd = bbuf () in
      fun () ->
        for k = 0 to st.n - 1 do
          let r = Array.unsafe_get st.sel k in
          Bytes.unsafe_set out k (Bytes.unsafe_get src r);
          Bytes.unsafe_set vd k (Bytes.unsafe_get sv r)
        done;
        VB (out, vd)
    | _ -> assert false)
  | XItoF a ->
    let ea = build st a in
    let out = fbuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (float_of_int (Array.unsafe_get xa k))
      done;
      VF (out, va)
  | XArithF (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = fbuf () and vd = bbuf () in
    let f =
      match op with
      | Expr.Add -> ( +. )
      | Expr.Sub -> ( -. )
      | Expr.Mul -> ( *. )
      | _ -> assert false
    in
    fun () ->
      let xa, va = as_f (ea ()) in
      let xb, vb = as_f (eb ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (f (Array.unsafe_get xa k) (Array.unsafe_get xb k));
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VF (out, vd)
  | XArithI (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = ibuf () and vd = bbuf () in
    let f =
      match op with
      | Expr.Add -> ( + )
      | Expr.Sub -> ( - )
      | Expr.Mul -> ( * )
      | _ -> assert false
    in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (f (Array.unsafe_get xa k) (Array.unsafe_get xb k));
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VI (out, vd)
  | XDivI (a, b) ->
    let ea = build st a and eb = build st b in
    let out = ibuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k) then begin
          let y = Array.unsafe_get xb k in
          if y = 0 then raise (Eval.Error "integer division by zero");
          Array.unsafe_set out k (Array.unsafe_get xa k / y);
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VI (out, vd)
  | XDivF (a, b, check_int_zero) ->
    let ea = build st a and eb = build st b in
    let out = fbuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_f (ea ()) in
      let xb, vb = as_f (eb ()) in
      for k = 0 to st.n - 1 do
        if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k) then begin
          let y = Array.unsafe_get xb k in
          if check_int_zero && y = 0. then
            raise (Eval.Error "integer division by zero");
          Array.unsafe_set out k (Array.unsafe_get xa k /. y);
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VF (out, vd)
  | XModI (a, b) ->
    let ea = build st a and eb = build st b in
    let out = ibuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k) then begin
          let y = Array.unsafe_get xb k in
          if y = 0 then raise (Eval.Error "modulo by zero");
          Array.unsafe_set out k (Array.unsafe_get xa k mod y);
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VI (out, vd)
  | XCmpF (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    let test =
      match op with
      | Expr.Eq -> fun c -> c = 0
      | Expr.Neq -> fun c -> c <> 0
      | Expr.Lt -> fun c -> c < 0
      | Expr.Le -> fun c -> c <= 0
      | Expr.Gt -> fun c -> c > 0
      | Expr.Ge -> fun c -> c >= 0
      | _ -> assert false
    in
    fun () ->
      let xa, va = as_f (ea ()) in
      let xb, vb = as_f (eb ()) in
      for k = 0 to st.n - 1 do
        (* Float.compare, not IEEE: NaN totally ordered, as Value.compare *)
        Bytes.unsafe_set out k
          (if test (Float.compare (Array.unsafe_get xa k) (Array.unsafe_get xb k))
           then '\001' else '\000');
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VB (out, vd)
  | XCmpI (op, a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    let test =
      match op with
      | Expr.Eq -> fun c -> c = 0
      | Expr.Neq -> fun c -> c <> 0
      | Expr.Lt -> fun c -> c < 0
      | Expr.Le -> fun c -> c <= 0
      | Expr.Gt -> fun c -> c > 0
      | Expr.Ge -> fun c -> c >= 0
      | _ -> assert false
    in
    fun () ->
      let xa, va = as_i (ea ()) in
      let xb, vb = as_i (eb ()) in
      for k = 0 to st.n - 1 do
        Bytes.unsafe_set out k
          (if test (Int.compare (Array.unsafe_get xa k) (Array.unsafe_get xb k))
           then '\001' else '\000');
        Bytes.unsafe_set vd k
          (if valid (Bytes.unsafe_get va k) && valid (Bytes.unsafe_get vb k)
           then '\001' else '\000')
      done;
      VB (out, vd)
  | XAnd (a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_b (ea ()) in
      let xb, vb = as_b (eb ()) in
      for k = 0 to st.n - 1 do
        let av = valid (Bytes.unsafe_get va k)
        and bv = valid (Bytes.unsafe_get vb k) in
        let at = valid (Bytes.unsafe_get xa k)
        and bt = valid (Bytes.unsafe_get xb k) in
        (* three-valued: false ∧ x = false, true ∧ null = null *)
        if (av && not at) || (bv && not bt) then begin
          Bytes.unsafe_set out k '\000';
          Bytes.unsafe_set vd k '\001'
        end
        else if av && bv then begin
          Bytes.unsafe_set out k '\001';
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VB (out, vd)
  | XOr (a, b) ->
    let ea = build st a and eb = build st b in
    let out = bbuf () and vd = bbuf () in
    fun () ->
      let xa, va = as_b (ea ()) in
      let xb, vb = as_b (eb ()) in
      for k = 0 to st.n - 1 do
        let av = valid (Bytes.unsafe_get va k)
        and bv = valid (Bytes.unsafe_get vb k) in
        let at = valid (Bytes.unsafe_get xa k)
        and bt = valid (Bytes.unsafe_get xb k) in
        if (av && at) || (bv && bt) then begin
          Bytes.unsafe_set out k '\001';
          Bytes.unsafe_set vd k '\001'
        end
        else if av && bv then begin
          Bytes.unsafe_set out k '\000';
          Bytes.unsafe_set vd k '\001'
        end
        else Bytes.unsafe_set vd k '\000'
      done;
      VB (out, vd)
  | XNot a ->
    let ea = build st a in
    let out = bbuf () in
    fun () ->
      let xa, va = as_b (ea ()) in
      for k = 0 to st.n - 1 do
        Bytes.unsafe_set out k
          (if valid (Bytes.unsafe_get xa k) then '\000' else '\001')
      done;
      VB (out, va)
  | XNegF a ->
    let ea = build st a in
    let out = fbuf () in
    fun () ->
      let xa, va = as_f (ea ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (-.Array.unsafe_get xa k)
      done;
      VF (out, va)
  | XNegI a ->
    let ea = build st a in
    let out = ibuf () in
    fun () ->
      let xa, va = as_i (ea ()) in
      for k = 0 to st.n - 1 do
        Array.unsafe_set out k (-Array.unsafe_get xa k)
      done;
      VI (out, va)

(* compact one dense bind buffer in place with the same permutation the
   selection vector just underwent (dst <= src, so in-place is safe) *)
let compact_vval v ~src ~dst =
  match v with
  | VF (a, vd) ->
    Array.unsafe_set a dst (Array.unsafe_get a src);
    Bytes.unsafe_set vd dst (Bytes.unsafe_get vd src)
  | VI (a, vd) ->
    Array.unsafe_set a dst (Array.unsafe_get a src);
    Bytes.unsafe_set vd dst (Bytes.unsafe_get vd src)
  | VB (a, vd) ->
    Bytes.unsafe_set a dst (Bytes.unsafe_get a src);
    Bytes.unsafe_set vd dst (Bytes.unsafe_get vd src)

(* Fused reduce accumulators: scalar mutable state folding exactly as
   [Monoid.merge (unit …)] does row by row — same start values, same
   NULL skipping, same Value.compare tie-breaks, same float association
   (row order within a range). The returned value is the pre-finalize
   accumulator, so morsel partials merge with [Monoid.merge] unchanged. *)
type accum = { push : vval -> int -> unit; result : unit -> Value.t }

let make_accum (monoid : Monoid.t) (head_ty : vty) : accum =
  let af = ref 0. and ai = ref 0 and count = ref 0 and any = ref false in
  let ab = ref true in
  let over_valid f =
    fun v n ->
      match v, head_ty with
      | VF (a, vd), _ ->
        for k = 0 to n - 1 do
          if valid (Bytes.unsafe_get vd k) then f (Array.unsafe_get a k) 0 false
        done
      | VI (a, vd), _ ->
        for k = 0 to n - 1 do
          if valid (Bytes.unsafe_get vd k) then f 0. (Array.unsafe_get a k) false
        done
      | VB (a, vd), _ ->
        for k = 0 to n - 1 do
          if valid (Bytes.unsafe_get vd k) then
            f 0. 0 (valid (Bytes.unsafe_get a k))
        done
  in
  match monoid, head_ty with
  | Monoid.Prim Monoid.Count, _ ->
    { push = over_valid (fun _ _ _ -> incr count);
      result = (fun () -> Value.Int !count) }
  | Monoid.Prim Monoid.Sum, TI ->
    { push = over_valid (fun _ x _ -> ai := !ai + x);
      result = (fun () -> Value.Int !ai) }
  | Monoid.Prim Monoid.Sum, TF ->
    { push = over_valid (fun x _ _ -> af := !af +. x; any := true);
      result = (fun () -> if !any then Value.Float !af else Value.Int 0) }
  | Monoid.Prim Monoid.Prod, TI ->
    ai := 1;
    { push = over_valid (fun _ x _ -> ai := !ai * x);
      result = (fun () -> Value.Int !ai) }
  | Monoid.Prim Monoid.Prod, TF ->
    af := 1.;
    { push = over_valid (fun x _ _ -> af := !af *. x; any := true);
      result = (fun () -> if !any then Value.Float !af else Value.Int 1) }
  | Monoid.Prim Monoid.Avg, (TI | TF) ->
    let push =
      match head_ty with
      | TI -> over_valid (fun _ x _ -> af := !af +. float_of_int x; incr count)
      | _ -> over_valid (fun x _ _ -> af := !af +. x; incr count)
    in
    { push;
      result =
        (fun () ->
          Value.Record [ ("sum", Value.Float !af); ("count", Value.Int !count) ])
    }
  | Monoid.Prim Monoid.Max, TI ->
    { push =
        over_valid (fun _ x _ ->
            if not !any then (ai := x; any := true)
            else if Int.compare !ai x < 0 then ai := x);
      result = (fun () -> if !any then Value.Int !ai else Value.Null) }
  | Monoid.Prim Monoid.Max, TF ->
    { push =
        over_valid (fun x _ _ ->
            if not !any then (af := x; any := true)
            else if Float.compare !af x < 0 then af := x);
      result = (fun () -> if !any then Value.Float !af else Value.Null) }
  | Monoid.Prim Monoid.Min, TI ->
    { push =
        over_valid (fun _ x _ ->
            if not !any then (ai := x; any := true)
            else if Int.compare !ai x > 0 then ai := x);
      result = (fun () -> if !any then Value.Int !ai else Value.Null) }
  | Monoid.Prim Monoid.Min, TF ->
    { push =
        over_valid (fun x _ _ ->
            if not !any then (af := x; any := true)
            else if Float.compare !af x > 0 then af := x);
      result = (fun () -> if !any then Value.Float !af else Value.Null) }
  | Monoid.Prim Monoid.All, TB ->
    { push = over_valid (fun _ _ b -> ab := !ab && b);
      result = (fun () -> Value.Bool !ab) }
  | Monoid.Prim Monoid.Some_, TB ->
    ab := false;
    { push = over_valid (fun _ _ b -> ab := !ab || b);
      result = (fun () -> Value.Bool !ab) }
  | _ -> decline "monoid %s has no fused kernel for this head" (Monoid.name monoid)

type instance = {
  i_k : kernel;
  i_st : state;
  i_steps : (unit -> unit) list;  (* per-batch step runners *)
  i_head : unit -> vval;
  i_accum : accum;
  i_domain : int;  (* instantiating domain, for the P09 scratch check *)
}

let instantiate (k : kernel) : instance =
  let bcap = batch_rows () in
  let ncols = Array.length k.k_cols in
  let empty_f = BA1.create Bigarray.float64 Bigarray.c_layout 0 in
  let empty_i = BA1.create Bigarray.int Bigarray.c_layout 0 in
  let st =
    { bcap; sel = Array.make bcap 0; n = 0; batch_lo = 0;
      ones = Bytes.make bcap '\001'; cols = k.k_cols;
      stage_f =
        Array.init ncols (fun i ->
            match k.k_cols.(i) with
            | ColRawF _ -> BA1.create Bigarray.float64 Bigarray.c_layout bcap
            | _ -> empty_f);
      stage_i =
        Array.init ncols (fun i ->
            match k.k_cols.(i) with
            | ColRawI _ -> BA1.create Bigarray.int Bigarray.c_layout bcap
            | _ -> empty_i);
      binds = Array.make (max k.k_nbinds 1) dummy_vval; assigned = 0 }
  in
  let steps =
    List.map
      (function
        | KBind (slot, x) ->
          let e = build st x in
          fun () ->
            st.binds.(slot) <- e ();
            st.assigned <- st.assigned + 1
        | KFilter (x, tap) ->
          let e = build st x in
          fun () ->
            let bb, vd = as_b (e ()) in
            let n = st.n in
            ignore (Atomic.fetch_and_add tap.seen n);
            let m = ref 0 in
            for src = 0 to n - 1 do
              if valid (Bytes.unsafe_get vd src) && valid (Bytes.unsafe_get bb src)
              then begin
                let dst = !m in
                Array.unsafe_set st.sel dst (Array.unsafe_get st.sel src);
                for b = 0 to st.assigned - 1 do
                  compact_vval st.binds.(b) ~src ~dst
                done;
                incr m
              end
            done;
            st.n <- !m;
            ignore (Atomic.fetch_and_add tap.passed !m))
      k.k_steps
  in
  let head = build st k.k_head in
  let accum = make_accum k.k_monoid (vx_ty k.k_head) in
  (* no budget charge: the scratch is O(batch_rows), a per-query constant
     independent of the data — budgets track data-dependent materialized
     working sets, and the closure engine's scans charge nothing either *)
  { i_k = k; i_st = st; i_steps = steps; i_head = head; i_accum = accum;
    i_domain = (Domain.self () :> int) }

(* Run the fused kernel over rows [lo, hi): the per-morsel (or whole-scan)
   batch loop. One governor poll, one epoch tick and one stats note per
   batch; returns the pre-finalize accumulator value. *)
let run_range (inst : instance) ~lo ~hi : Value.t =
  let st = inst.i_st in
  let source = inst.i_k.k_name in
  let sanitize = Vida_sync.enabled () in
  (* P09: the instance's scratch (selection vector, staging buffers, bind
     slots) is single-morsel state — running it from a domain other than
     the one that instantiated it means the scratch escaped its morsel *)
  if sanitize then begin
    Vida_sync.note_kernel_check ();
    match
      Vida_analysis.Kernel.check_scratch_domain ~created_on:inst.i_domain
        ~running_on:(Domain.self () :> int)
    with
    | Some reason -> Vida_sync.kernel_failed ~id:"P09" ~subject:source "%s" reason
    | None -> ()
  end;
  let process rlo rhi =
  let pos = ref rlo in
  while !pos < rhi do
    let blo = !pos in
    let bhi = min rhi (blo + st.bcap) in
    let rows = bhi - blo in
    Governor.poll_batch ~source:"vector" ~rows ();
    Epoch.check ~source ();
    note_batch rows;
    st.batch_lo <- blo;
    Array.iteri
      (fun ci c ->
        match c with
        | ColRawF (ba, field) ->
          Binarray.fill_floats ba ~field ~lo:blo ~hi:bhi st.stage_f.(ci)
        | ColRawI (ba, field) ->
          Binarray.fill_ints ba ~field ~lo:blo ~hi:bhi st.stage_i.(ci)
        | _ -> ())
      st.cols;
    for k = 0 to rows - 1 do
      Array.unsafe_set st.sel k (blo + k)
    done;
    st.n <- rows;
    st.assigned <- 0;
    List.iter (fun step -> step ()) inst.i_steps;
    (* P08: filters only ever compact the selection vector in place, so
       after the steps it must still be strictly increasing and inside
       this batch's bounds — anything else means a kernel wrote rows it
       was never selected to touch *)
    if sanitize then begin
      Vida_sync.note_kernel_check ();
      match Vida_analysis.Kernel.check_selection st.sel ~n:st.n ~lo:blo ~hi:bhi with
      | Some reason -> Vida_sync.kernel_failed ~id:"P08" ~subject:source "%s" reason
      | None -> ()
    end;
    if st.n > 0 then inst.i_accum.push (inst.i_head ()) st.n;
    pos := bhi
  done
  in
  (match inst.i_k.k_prune with
  | Some (ba, ranges) -> Binarray.matching_runs ba ~ranges ~lo ~hi process
  | None -> process lo hi);
  inst.i_accum.result ()

let flush_feedback ctx (k : kernel) =
  List.iter
    (fun tap ->
      let seen = Atomic.exchange tap.seen 0 in
      let passed = Atomic.exchange tap.passed 0 in
      (* same 16-observation gate as the closure engine's instrumentation *)
      if seen >= 16 then
        Feedback.record ctx.Plugins.feedback
          ~key:(Feedback.selectivity_key tap.tap_pred)
          ~observed:(float_of_int passed /. float_of_int seen))
    k.k_taps;
  if k.k_nrows > 0 then
    Feedback.record ctx.Plugins.feedback
      ~key:(Feedback.cardinality_key k.k_name)
      ~observed:(float_of_int k.k_nrows)

(* --- the kernel entry --------------------------------------------------- *)

type columns = Fetch | Given of int * (string * Column.t) array

(* Columns of a single-domain scan, fetched per run so a kernel never
   holds stale columns across a source invalidation: numeric columns come
   out of the plugins cache unboxed already. A clean binary array instead
   decodes batch by batch straight from the file, with no whole-column
   materialization at all, and the filters' numeric bounds prune whole
   batches via zone maps (the batch-granular analogue of the closure
   engine's pushdown). *)
let fetch ctx ~(source : Source.t) ~name ~var ~steps ~fields =
  match source.Source.format with
  | Source.Binary_array when Plugins.bad_row_count ctx name = 0 && fields <> [] ->
    let ba = Structures.binarray ctx.Plugins.structures source in
    let hdr = Binarray.header ba in
    let ranges =
      List.filter_map
        (fun (f, lo, hi) ->
          Option.map
            (fun field -> { Binarray.field; lo; hi })
            (Binarray.field_index ba f))
        (List.filter_map
           (Analysis.range_of ~var)
           (List.concat_map Analysis.conjuncts
              (List.filter_map
                 (function Analysis.Filter p -> Some p | Analysis.Bind _ -> None)
                 steps)))
    in
    Some
      ( Binarray.cell_count ba,
        Array.of_list
          (List.map
             (fun f ->
               match Binarray.field_index ba f with
               | None -> decline "binary array has no field %s" f
               | Some idx ->
                 let fld = List.nth hdr.Binarray.fields idx in
                 if fld.Binarray.is_float then (f, ColRawF (ba, idx))
                 else (f, ColRawI (ba, idx)))
             fields),
        if ranges = [] then None else Some (ba, ranges) )
  | _ ->
    Option.map
      (fun (nrows, cols) ->
        ( nrows,
          Array.of_list (List.map (fun (f, c) -> (f, col_of_column ~field:f c)) cols),
          None ))
      (Plugins.column_arrays ctx source ~fields)

(* The one way to build a kernel. [`Silent]: the plan is not a Reduce over
   a Select*/Map* chain on one registered source, or the engine is off —
   the closure engine is the designed path. [`Declined]: the shape matched
   but a detail rules the kernels out. The kernel is immutable; each
   worker domain instantiates its own scratch. *)
let kernel ctx (p : Plan.t) columns =
  match Analysis.neutralize_count_head p with
  | Plan.Reduce { monoid; head; child } when enabled () -> (
    match Analysis.chain child with
    | None -> `Silent
    | Some (var, name, steps) -> (
      match Registry.find ctx.Plugins.registry name with
      | None | Some { Source.format = Source.External _; _ } -> `Silent
      | Some source -> (
        try
          (match monoid with
          | Monoid.Prim
              ( Monoid.Sum | Monoid.Prod | Monoid.Count | Monoid.Avg | Monoid.Max
              | Monoid.Min | Monoid.All | Monoid.Some_ ) ->
            ()
          | m -> decline "monoid %s has no fused kernel" (Monoid.name m));
          let exprs =
            List.map (function Analysis.Filter e | Analysis.Bind (_, e) -> e) steps
          in
          List.iter (check_structure ~src_var:var) (exprs @ [ head ]);
          let fields =
            List.rev (List.fold_left (proj_fields ~src_var:var) [] (head :: exprs))
          in
          let nrows, cols, prune =
            match columns with
            | Given (nrows, given) ->
              let col f =
                match Array.find_opt (fun (g, _) -> String.equal g f) given with
                | Some (_, c) -> (f, col_of_column ~field:f c)
                | None -> decline "field %s has no column" f
              in
              (nrows, Array.of_list (List.map col fields), None)
            | Fetch -> (
              match fetch ctx ~source ~name ~var ~steps ~fields with
              | Some resolved -> resolved
              | None ->
                decline
                  "source %s has no columnar view (cleaning policy or format)" name)
          in
          `Ran (build_kernel ?prune ~name ~var ~cols ~nrows ~steps ~monoid ~head ())
        with Not_vectorizable reason -> `Declined reason)))
  | _ -> `Silent

let run ctx k =
  let acc = run_range (instantiate k) ~lo:0 ~hi:k.k_nrows in
  flush_feedback ctx k;
  Monoid.finalize k.k_monoid acc
