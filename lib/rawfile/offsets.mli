(** A growable int array, for the offsets a boundary scan collects. *)

type t

val create : unit -> t
val push : t -> int -> unit

(** [contents t] is a copy of the offsets pushed so far, in order. *)
val contents : t -> int array
