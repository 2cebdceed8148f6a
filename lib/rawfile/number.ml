open Vida_data

(* In-place numeric decoding (the raw decoders' fast path).

   A cell is decoded straight from the file bytes only when the result is
   exact by construction, so it always equals what [int_of_string] /
   [float_of_string] make of the same text:

   - ints: [-?digits] with at most 18 digits, which cannot overflow;
   - floats: [-?digits[.digits]] with at most 15 digits in all. The
     mantissa m < 10^15 < 2^53 and the power 10^k (k <= 14) are both
     exact doubles, so the single division m /. 10^k is the correctly
     rounded value of the decimal — the same double a correctly rounding
     [float_of_string] returns. A leading '-' negates exactly, so "-0"
     and "-0.0" give -0.

   Everything else — signs other than a leading '-', exponents, hex,
   underscores, whitespace, longer mantissas, [inf]/[nan], empty fraction
   or integer parts — is left to the caller's general conversion. *)

let not_int = min_int

(* The scanners are top-level recursive functions with every operand
   passed explicitly: a local closure over [s] would be allocated on
   every call, i.e. per cell. *)
let rec int_digits s stop i acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> int_digits s stop (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> not_int

let int_at s ~pos ~stop =
  if pos < 0 || stop > String.length s then not_int
  else
    let neg = pos < stop && String.unsafe_get s pos = '-' in
    let first = if neg then pos + 1 else pos in
    let ndigits = stop - first in
    if ndigits < 1 || ndigits > 18 then not_int
    else
      let v = int_digits s stop first 0 in
      if v = not_int || not neg then v else -v

(* A fast-path decimal is packed into one immediate int — mantissa,
   number of fraction digits, sign — so no float is boxed between the
   scan and the store; -1 when the text is not on the fast path. The
   mantissa is accumulated over the integer and fraction digits alike;
   [k] counts the fraction digits, [-1] before the dot. *)
let rec decimal_digits s stop i m k =
  if i = stop then if k = 0 then -1 else (m lsl 5) lor (Int.max k 0 lsl 1)
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
      decimal_digits s stop (i + 1) ((m * 10) + Char.code c - 48) (if k < 0 then k else k + 1)
    | '.' when k < 0 && i + 1 < stop -> decimal_digits s stop (i + 1) m 0
    | _ -> -1

let decimal_at s ~pos ~stop =
  if pos < 0 || stop > String.length s then -1
  else
    let neg = pos < stop && String.unsafe_get s pos = '-' in
    let first = if neg then pos + 1 else pos in
    (* at least one integer digit; at most 15 digits, plus the dot *)
    let len = stop - first in
    if len < 1 || len > 16 || String.unsafe_get s first = '.' then -1
    else
      let p = decimal_digits s stop first 0 (-1) in
      let has_dot = p >= 0 && (p lsr 1) land 15 > 0 in
      if p < 0 || ((not has_dot) && len > 15) then -1 else p lor if neg then 1 else 0

let pow10 = Array.init 16 (fun k -> 10. ** float_of_int k)

let float_of_decimal p =
  let x = float_of_int (p lsr 5) /. Array.unsafe_get pow10 ((p lsr 1) land 15) in
  if p land 1 = 1 then -.x else x

let float_at s ~pos ~stop =
  let p = decimal_at s ~pos ~stop in
  if p < 0 then Float.nan else float_of_decimal p

let add_int b s ~pos ~stop =
  let x = int_at s ~pos ~stop in
  x <> not_int
  && (Column.Builder.add_int b x;
      true)

let add_float b s ~pos ~stop =
  let p = decimal_at s ~pos ~stop in
  p >= 0
  && (Column.Builder.add_float b (float_of_decimal p);
      true)

(* JSON keeps the parser's Int-vs-Float decision: a token without '.'
   (or exponent) is an Int, one with a fraction a Float. *)
let add_json b s ~pos ~stop =
  add_int b s ~pos ~stop || add_float b s ~pos ~stop
