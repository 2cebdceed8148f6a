(* A growable int array: the row/object boundaries a scan collects, kept
   as one flat array instead of a list that is copied once more at the
   end. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let push t x =
  if t.len = Array.length t.data then (
    let data = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let contents t = Array.sub t.data 0 t.len
