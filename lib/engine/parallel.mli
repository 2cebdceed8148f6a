(** Morsel-driven parallel execution (paper §8 cites parallel operators
    for in-situ processing; monoids make it principled: any monoid
    aggregation splits into per-morsel partial folds merged back in
    source order).

    Supported plan shapes, each over Select*/Map* chains on single
    columnar sources (CSV, binary array, JSON lines, XML, inline
    records):

    - [Reduce] with {e any} monoid — partials merge in morsel order, so
      non-commutative collection monoids (list/array) concatenate
      correctly;
    - [Reduce] over an equi-[Join] of two such chains — parallel hash
      build (stitched in right-source order) then parallel probe+fold;
    - a bare chain — parallel filtered/projected materialization,
      concatenated in morsel order.

    This module drives morsels over the vectorized and closure rungs,
    with no row fold of its own: every morsel runs through the
    {!Vector} kernel or an instance of {!Compile}'s pipeline
    ({!Compile.range}), and the join's build and probe are that pipeline
    with a consumer. Needed columns are faulted in once on the calling
    domain (through the ordinary plugins and caches); workers then read
    only immutable arrays and their own kernel scratch or task-compiled
    closures, polling the caller's governor session through atomic
    counters. Feedback from all morsels is summed and recorded once, on
    the calling domain. Floating-point accumulations are reassociated by
    the split, so float aggregates can differ from the sequential result
    in the last bits. *)

(** One reason the engine declined (part of) a plan for worker execution:
    [where] names the position ("fold head", "join key", "chain filter",
    …), [reason] is the effect-analysis verdict rendered by
    {!Vida_analysis.Effects.reason_to_string}. *)
type decline = { where : string; reason : string }

(** Declines recorded by the most recent {!try_query} call, in the order
    they were hit. Empty when the plan parallelized (or was never
    gated on an expression verdict). *)
val last_declines : unit -> decline list

(** Observation hook for this module's own plan-shape rewrites
    (["parallel-neutralize-count-head"], ["parallel-filter-pushdown"]) —
    same contract as {!Vida_optimizer.Rules.checker}: called once per
    firing with the rule named; may raise to abort. *)
val checker :
  (rule:string ->
  before:Vida_algebra.Plan.t ->
  after:Vida_algebra.Plan.t ->
  unit)
  ref

(** [with_checker f body] installs [f] for the duration of [body]
    (exception-safe, restores the previous hook). *)
val with_checker :
  (rule:string ->
  before:Vida_algebra.Plan.t ->
  after:Vida_algebra.Plan.t ->
  unit) ->
  (unit -> 'a) -> 'a

(** [try_query ctx ?domains plan] — [None] when the plan is outside the
    parallelizable fragment or the effective domain budget is 1 (callers
    fall back to {!Compile.query}; with [domains = 1] the sequential
    engines are authoritative). [domains] defaults to
    [ctx.domains]; either is clamped per region to the row count and the
    {!Vida_raw.Morsel} minimum-rows floor. *)
val try_query :
  Plugins.ctx -> ?domains:int -> Vida_algebra.Plan.t -> Vida_data.Value.t option
