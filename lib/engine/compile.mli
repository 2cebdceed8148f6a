(** The just-in-time executor (paper §4).

    [query] generates a specialized executor for one plan: every scalar
    expression becomes a closure with variable references resolved to slot
    indices at compile time, every operator becomes a push-based stage
    (HyPer-style pipelining, which the paper cites as its execution model),
    and every [Source] gets an input plugin generated for exactly the fields
    the query touches. The general-purpose checks a static engine performs
    per tuple — name lookups, qualifier dispatch, AST walking — are all
    resolved here, once per query; {!Interp} is the engine with those checks
    left in, used as the paper's "pre-cooked operator" foil.

    Pipelining: scans never materialize; only hash-join builds,
    [Product]/[Nest] materialization and [Reduce] accumulators are blocking
    (paper §4.1 Operator Output). Correlated subqueries remaining in
    scalars (e.g. nested comprehensions in a [Reduce] head) are compiled
    recursively into closures over the outer environment.

    Runtime feedback: sources count their rows, filters the rows they see
    and pass, equi-joins their inputs and matches. The counts of every
    instance of a pipeline (one per run; one per morsel task under
    {!Parallel}) are summed and recorded in the context's {!Feedback}
    once, on the calling domain. *)

(** [query ctx plan] compiles [plan]. The returned thunk can be run many
    times; each run re-reads through caches/plugins.
    @raise Plugins.Engine_error on unknown sources.
    @raise Vida_calculus.Eval.Error on scalar evaluation failures. *)
val query : Plugins.ctx -> Vida_algebra.Plan.t -> unit -> Vida_data.Value.t

(** [scalar ctx ~slots expr] compiles one scalar expression against an
    explicit slot layout — exposed for tests and the optimizer's constant
    folding. *)
val scalar :
  Plugins.ctx -> slots:(string * int) list -> Vida_calculus.Expr.t ->
  Vida_data.Value.t array -> Vida_data.Value.t

(** {1 Morsel pipelines}

    The entry {!Parallel} drives: the same pipeline as {!query}, one
    instance per morsel task. *)

(** A plan prepared for many instances, with their summed feedback. *)
type pipeline

(** [pipeline ctx columns plan] — [plan]'s pipeline. Its one source reads
    [columns]: [Fetch] runs the plugin producer (with zone maps for a
    filtered binary-array scan); [Given (n, columns)] boxes rows
    [\[lo, hi)] from the caller's columns, polling the governor per row.
    A [Unit]-rooted chain has no source and runs its steps once per call. *)
val pipeline :
  Plugins.ctx -> Vector.columns -> Vida_algebra.Plan.t -> pipeline

(** What one instance does with the rows that survive its pipeline. *)
type _ sink =
  | Fold : Vida_data.Value.t sink
      (** a [Reduce] folds them to its pre-finalize accumulator (mergeable
          with {!Vida_calculus.Monoid.merge}); a bare chain to the bag of
          its binding records *)
  | Push :
      (string * int) list * Vida_data.Value.t array * (unit -> unit)
      -> unit sink
      (** [Push (slots, env, consume)]: a chain binds each row into the
          caller's [env], laid out by [slots], and calls [consume] *)

(** [range p sink] compiles a fresh instance of [p] (closures, and for
    [Fold] an environment, of its own) on the calling domain and returns
    its run over rows [\[lo, hi)]. A [Fold] instance runs once. *)
val range : pipeline -> 'a sink -> lo:int -> hi:int -> 'a

(** [flush_feedback p] sums the counts of every instance of [p] run since
    the last flush and records them in the context's feedback. *)
val flush_feedback : pipeline -> unit

(** [record_join ctx pred ~left ~right ~matched] records the selectivity
    of equi-join [pred] — [matched] of [left × right] pairs — as a
    compiled join does. *)
val record_join :
  Plugins.ctx -> Vida_calculus.Expr.t -> left:int -> right:int -> matched:int -> unit

(** [charge_snapshot row] charges a materialized join-build row against
    the ambient governor memory budget. *)
val charge_snapshot : Vida_data.Value.t list -> unit
