(** Vectorized batch execution (DESIGN.md §13): a Reduce over a
    Select*/Map* chain on one columnar source runs as fused
    select→map→reduce kernels over unboxed columns, batch at a time, with
    a selection vector threaded through the operators. Scalar semantics
    are bit-compatible with {!Vida_calculus.Eval} and
    {!Vida_calculus.Monoid}; anything outside the fragment declines and
    the {!Ladder} hands the query to the closure engine. *)

(** {1 Configuration} *)

(** [set_batch_rows n] sets the batch stride (floored at 1; the
    [VIDA_BATCH_ROWS] environment variable sets the initial value). *)
val set_batch_rows : int -> unit

val batch_rows : unit -> int

(** [set_enabled false] switches the engine off: {!kernel} is silent for
    every plan ([VIDA_VECTOR=0] does the same at startup). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Process-wide statistics} *)

type stats = {
  kernels : int;  (** queries (or morsel fleets) that compiled a kernel *)
  batches : int;
  rows : int;
  fallbacks : int;
  batch_rows_p50 : int;  (** over recent batches *)
  last_fallbacks : string list;  (** most recent reasons, newest first *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** [note_fallback reason] counts one vectorized→closure drop. The
    {!Ladder} driver is its only caller. *)
val note_fallback : string -> unit

(** {1 Kernels} *)

(** A compiled kernel: typed columns, steps and head; immutable and
    shareable across domains. *)
type kernel

(** Per-domain scratch for running a kernel. *)
type instance

(** Where a kernel's columns come from. [Fetch]: resolved on the calling
    domain, through the plugins cache — or, for a clean binary array,
    decoded from the file batch by batch with zone maps pruning whole
    batches (single-domain only: the pruning writes shared state).
    [Given (nrows, columns)]: fetched up front by the caller (morsel
    chains); every field the kernel reads must be among them. *)
type columns = Fetch | Given of int * (string * Vida_data.Column.t) array

(** [kernel ctx plan columns] builds the kernel for [plan]. [`Silent]
    when [plan] is not a Reduce over a Select*/Map* chain on one
    registered source, or the engine is switched off; [`Declined reason]
    when the shape matches but a monoid, expression or column rules the
    kernels out. *)
val kernel :
  Plugins.ctx -> Vida_algebra.Plan.t -> columns ->
  [ `Ran of kernel | `Declined of string | `Silent ]

(** [run ctx k] runs [k] over the whole scan on the calling domain and
    returns the finalized value, recording observed selectivities and the
    source cardinality in [ctx]'s feedback. *)
val run : Plugins.ctx -> kernel -> Vida_data.Value.t

(** [instantiate k] allocates one domain's scratch for [k]. *)
val instantiate : kernel -> instance

(** [run_range inst ~lo ~hi] folds rows [\[lo, hi)] and returns the
    pre-finalize accumulator, mergeable with {!Vida_calculus.Monoid.merge}.
    Must run on the domain that instantiated [inst]. *)
val run_range : instance -> lo:int -> hi:int -> Vida_data.Value.t

(** [flush_feedback ctx k] records the selectivities observed by [k]'s
    filters across all its instances, and the source cardinality. *)
val flush_feedback : Plugins.ctx -> kernel -> unit
