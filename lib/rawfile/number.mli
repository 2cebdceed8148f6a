(** In-place numeric decoding: the raw decoders' fast path.

    Numbers are read straight from the file bytes [s.[pos .. stop)] with
    no copy, only when the result is exact by construction:

    - ints: [-?digits], at most 18 digits (cannot overflow);
    - floats: [-?digits[.digits]], at most 15 digits in all, computed as
      [m /. 10^k] — both operands are exact doubles, so the quotient is
      the correctly rounded decimal, i.e. what [float_of_string] returns.

    Any other text (exponents, [+], hex, underscores, whitespace, longer
    mantissas, [inf]/[nan], [.5], [5.]) is declined, and the caller falls
    back to its general conversion. *)

(** [int_at s ~pos ~stop] is the int, or [min_int] when declined (a
    fast-path int never has 19 digits, so [min_int] is never a result). *)
val int_at : string -> pos:int -> stop:int -> int

(** [float_at s ~pos ~stop] is the float, or [nan] when declined. *)
val float_at : string -> pos:int -> stop:int -> float

(** [add_int b s ~pos ~stop] appends the int to [b] and returns [true],
    or appends nothing and returns [false] when declined. *)
val add_int : Vida_data.Column.Builder.t -> string -> pos:int -> stop:int -> bool

(** [add_float] — likewise for a float cell. *)
val add_float : Vida_data.Column.Builder.t -> string -> pos:int -> stop:int -> bool

(** [add_json b s ~pos ~stop] decodes a JSON number token with the JSON
    parser's typing: digits only is an [Int], a fraction makes a
    [Float]. *)
val add_json : Vida_data.Column.Builder.t -> string -> pos:int -> stop:int -> bool
