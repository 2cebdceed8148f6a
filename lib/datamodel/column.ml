module BA1 = Bigarray.Array1

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t

type t =
  | Floats of floats * Bytes.t option
  | Ints of ints * Bytes.t option
  | Boxed of Value.t array

let length = function
  | Floats (a, _) -> BA1.dim a
  | Ints (a, _) -> BA1.dim a
  | Boxed vs -> Array.length vs

let valid mask i =
  match mask with None -> true | Some m -> Bytes.get m i <> '\000'

let get c i =
  match c with
  | Floats (a, m) -> if valid m i then Value.Float (BA1.get a i) else Value.Null
  | Ints (a, m) -> if valid m i then Value.Int (BA1.get a i) else Value.Null
  | Boxed vs -> vs.(i)

let new_floats n =
  let a = BA1.create Bigarray.float64 Bigarray.c_layout n in
  BA1.fill a 0.;
  a

let new_ints n =
  let a = BA1.create Bigarray.int Bigarray.c_layout n in
  BA1.fill a 0;
  a

(* The exact type is kept, never widened: a column mixing Int and Float
   stays boxed, because Int-vs-Float result typing is per row. *)
let of_values vs =
  let n = Array.length vs in
  let kind = ref `None and nulls = ref false in
  (try
     Array.iter
       (function
         | Value.Null -> nulls := true
         | Value.Float _ -> (
           match !kind with `None -> kind := `F | `F -> () | _ -> raise Exit)
         | Value.Int _ -> (
           match !kind with `None -> kind := `I | `I -> () | _ -> raise Exit)
         | _ -> raise Exit)
       vs
   with Exit -> kind := `Mixed);
  let mask () =
    if not !nulls then None
    else
      Some
        (Bytes.init n (fun i ->
             match vs.(i) with Value.Null -> '\000' | _ -> '\001'))
  in
  match !kind with
  | `F ->
    let a = new_floats n in
    Array.iteri (fun i v -> match v with Value.Float f -> BA1.unsafe_set a i f | _ -> ()) vs;
    Floats (a, mask ())
  | `I ->
    let a = new_ints n in
    Array.iteri (fun i v -> match v with Value.Int x -> BA1.unsafe_set a i x | _ -> ()) vs;
    Ints (a, mask ())
  | `None | `Mixed -> Boxed vs

let join_masks ~keep m ~len mt =
  match m, mt with
  | None, None -> None
  | _ ->
    let r = Bytes.make (keep + len) '\001' in
    Option.iter (fun m -> Bytes.blit m 0 r 0 keep) m;
    Option.iter (fun mt -> Bytes.blit mt 0 r keep len) mt;
    Some r

let join_arrays fresh ~keep a b =
  let len = BA1.dim b in
  let r = fresh (keep + len) in
  BA1.blit (BA1.sub a 0 keep) (BA1.sub r 0 keep);
  BA1.blit b (BA1.sub r keep len);
  r

let splice c ~keep tail =
  match c, tail with
  | Floats (a, m), Floats (b, mt) ->
    Floats (join_arrays new_floats ~keep a b, join_masks ~keep m ~len:(BA1.dim b) mt)
  | Ints (a, m), Ints (b, mt) ->
    Ints (join_arrays new_ints ~keep a b, join_masks ~keep m ~len:(BA1.dim b) mt)
  | _ ->
    of_values
      (Array.init (keep + length tail) (fun i ->
           if i < keep then get c i else get tail (i - keep)))

module Builder = struct
  type column = t

  (* [kind]: nothing typed yet (only NULLs so far), unboxed floats,
     unboxed ints, or boxed. [mask] stays empty until the first NULL. *)
  type t = {
    cap : int;
    mutable len : int;
    mutable kind : [ `None | `F | `I | `Boxed ];
    mutable fa : floats;
    mutable ia : ints;
    mutable va : Value.t array;
    mutable mask : Bytes.t;
  }

  let no_floats = new_floats 0
  let no_ints = new_ints 0

  let create cap =
    { cap; len = 0; kind = `None; fa = no_floats; ia = no_ints; va = [||];
      mask = Bytes.empty }

  let valid b i = Bytes.length b.mask = 0 || Bytes.unsafe_get b.mask i <> '\000'

  let to_boxed b =
    let va = Array.make b.cap Value.Null in
    for i = 0 to b.len - 1 do
      if valid b i then
        va.(i) <-
          (match b.kind with
          | `F -> Value.Float (BA1.get b.fa i)
          | `I -> Value.Int (BA1.get b.ia i)
          | `None | `Boxed -> Value.Null)
    done;
    b.va <- va;
    b.fa <- no_floats;
    b.ia <- no_ints;
    b.kind <- `Boxed

  let add_null b =
    (match b.kind with
    | `Boxed -> ()
    | `None | `F | `I ->
      if Bytes.length b.mask = 0 then b.mask <- Bytes.make b.cap '\001';
      Bytes.set b.mask b.len '\000');
    b.len <- b.len + 1

  let add_float b x =
    (match b.kind with
    | `F -> BA1.set b.fa b.len x
    | `None ->
      b.fa <- new_floats b.cap;
      b.kind <- `F;
      BA1.set b.fa b.len x
    | `I ->
      to_boxed b;
      b.va.(b.len) <- Value.Float x
    | `Boxed -> b.va.(b.len) <- Value.Float x);
    b.len <- b.len + 1

  let add_int b x =
    (match b.kind with
    | `I -> BA1.set b.ia b.len x
    | `None ->
      b.ia <- new_ints b.cap;
      b.kind <- `I;
      BA1.set b.ia b.len x
    | `F ->
      to_boxed b;
      b.va.(b.len) <- Value.Int x
    | `Boxed -> b.va.(b.len) <- Value.Int x);
    b.len <- b.len + 1

  let add_value b (v : Value.t) =
    match v with
    | Value.Null -> add_null b
    | Value.Int x -> add_int b x
    | Value.Float x -> add_float b x
    | v ->
      if b.kind <> `Boxed then to_boxed b;
      b.va.(b.len) <- v;
      b.len <- b.len + 1

  let finish b : column =
    if b.len <> b.cap then
      invalid_arg
        (Printf.sprintf "Column.Builder.finish: %d of %d rows" b.len b.cap);
    let mask = if Bytes.length b.mask = 0 then None else Some b.mask in
    match b.kind with
    | `F -> Floats (b.fa, mask)
    | `I -> Ints (b.ia, mask)
    | `Boxed -> Boxed b.va
    | `None -> Boxed (Array.make b.cap Value.Null)
end
