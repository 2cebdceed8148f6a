(** The degradation ladder (DESIGN.md §7): one ordered list of rungs —
    parallel → vectorized → closure → generic — tried by one driver.

    A rung runs the query, declines with a reason, or stays silent when
    the plan was never its candidate. A decline records the rung's stage
    in the ambient governor session's [fallbacks] (and, for the
    vectorized rung, in {!Vector.stats}) and hands the query to the next
    rung; silence hands it over unrecorded. This module makes every such
    note for the engine rungs. *)

type 'a outcome = [ `Ran of 'a | `Declined of string | `Silent ]

type 'a rung

(** [vectorized ctx plan columns run] — the vectorized rung: builds
    {!Vector.kernel} for [plan] over [columns] and hands it to [run]. A
    decline is recorded as ["vectorized->closure"]. *)
val vectorized :
  Plugins.ctx -> Vida_algebra.Plan.t -> Vector.columns -> (Vector.kernel -> 'a) ->
  'a rung

(** [run rungs ~last] tries [rungs] in order and falls through to
    [last]. Exceptions raised by a rung propagate. *)
val run : 'a rung list -> last:(unit -> 'a) -> 'a

(** [jit ~parallel ~compiled ~generic] — the ladder of a JIT query.
    [parallel] is the morsel-parallel attempt; a failure there records
    ["parallel->sequential"]. [compiled] is the sequential compiled tier
    (itself [run] over the vectorized rung, then the closure engine); a
    failure there, or an injected {!Vida_governor.Governor.Chaos} JIT
    failure, records ["jit->generic"] and runs [generic]. A failure is an
    exception in the {!engine_failure} class; anything else — governor
    violations, structured data errors — propagates. *)
val jit :
  parallel:(unit -> 'a outcome) -> compiled:(unit -> 'a) -> generic:(unit -> 'a) -> 'a

(** [engine_failure e] — [Some message] when [e] is an engine failure
    ([Plugins.Engine_error], [Eval.Error], [Value.Type_error],
    [Invalid_argument]): the class that drops a query from the compiled
    tier to the generic engine. *)
val engine_failure : exn -> string option
