open Vida_data
open Vida_calculus
module Governor = Vida_governor.Governor

(* The degradation ladder (DESIGN.md §7): parallel → vectorized → closure
   → generic. Every rung is tried by [run]; the only fallback notes an
   engine rung records are made in [drop]. *)

type 'a outcome = [ `Ran of 'a | `Declined of string | `Silent ]
type 'a rung = { stage : string; attempt : unit -> 'a outcome }

let vectorized_stage = "vectorized->closure"
let jit_stage = "jit->generic"

let vectorized ctx plan columns run =
  { stage = vectorized_stage;
    attempt =
      (fun () ->
        match Vector.kernel ctx plan columns with
        | `Ran kernel -> `Ran (run kernel)
        | (`Declined _ | `Silent) as declined -> declined) }

(* Compiled-tier failures: engine bugs, not governor violations or
   structured data errors, which propagate from every rung. *)
let engine_failure = function
  | Plugins.Engine_error msg | Eval.Error msg | Value.Type_error msg
  | Invalid_argument msg ->
    Some msg
  | _ -> None

let drop stage reason =
  if String.equal stage vectorized_stage then Vector.note_fallback reason;
  Governor.note_fallback ~stage ~reason ()

(* A rung that declines records its stage and hands over to the next one;
   a silent rung (the plan was never its candidate) hands over unrecorded.
   With [failover], an engine failure raised by a rung is a decline too. *)
let rec climb ~failover rungs ~last =
  match rungs with
  | [] -> last ()
  | r :: rest -> (
    let next reason =
      Option.iter (drop r.stage) reason;
      climb ~failover rest ~last
    in
    match r.attempt () with
    | `Ran v -> v
    | `Silent -> next None
    | `Declined reason -> next (Some reason)
    | exception e when failover && Option.is_some (engine_failure e) ->
      next (engine_failure e))

let run rungs ~last = climb ~failover:false rungs ~last

let jit ~parallel ~compiled ~generic =
  match Governor.Chaos.take_jit_failure () with
  | Some reason ->
    drop jit_stage reason;
    generic ()
  | None ->
    climb ~failover:true
      [ { stage = "parallel->sequential"; attempt = parallel };
        { stage = jit_stage; attempt = (fun () -> `Ran (compiled ())) } ]
      ~last:generic
