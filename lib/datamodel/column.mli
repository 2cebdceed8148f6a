(** Decoded columns: the one in-memory representation of a source
    attribute.

    A column whose non-NULL values are all [Float] (or all [Int]) is held
    unboxed in a Bigarray, with an optional validity mask marking the NULL
    rows; every other column (strings, booleans, nested values, Int/Float
    mixes, all-NULL columns) is a plain array of boxed values. The raw-file
    decoders build typed columns directly; {!of_values} types a boxed array
    once, at cache insertion. Engines that work on unboxed data read the
    arrays directly; row-at-a-time engines box per access through {!get}. *)

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Validity masks hold ['\001'] for a non-NULL row and ['\000'] for a
    NULL one (whose array slot holds [0] / [0.]); [None] means no row is
    NULL. *)
type t =
  | Floats of floats * Bytes.t option
  | Ints of ints * Bytes.t option
  | Boxed of Value.t array

val length : t -> int

(** [get c i] is row [i] as a value ([Null] where the mask says so). *)
val get : t -> int -> Value.t

(** [of_values vs] types a uniform numeric array, and wraps anything else
    as [Boxed] (sharing [vs]). *)
val of_values : Value.t array -> t

(** [splice c ~keep tail] is the first [keep] rows of [c] followed by
    [tail] — how a cached column is extended after an append. Two typed
    columns of one kind are joined unboxed; any other pair goes through
    {!of_values}. *)
val splice : t -> keep:int -> t -> t

(** In-order column construction: exactly one [add_*] per row, then
    {!Builder.finish}. The builder stays unboxed while the values allow,
    and boxes what it holds on the first value that does not fit. *)
module Builder : sig
  type column := t
  type t

  val create : int -> t
  val add_null : t -> unit
  val add_int : t -> int -> unit
  val add_float : t -> float -> unit
  val add_value : t -> Value.t -> unit

  (** @raise Invalid_argument unless every row was appended. *)
  val finish : t -> column
end
