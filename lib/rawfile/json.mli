(** JSON parsing onto the ViDa data model.

    Objects become [Record]s (field order preserved), arrays become [List]s,
    integers stay [Int] when exactly representable. The parser is
    substring-addressable so the semi-index ({!Semi_index}) can parse only
    the byte range of a requested field.

    Malformed input raises {!Vida_error.Parse_error} carrying [source]
    (default ["json"]) and the byte offset; nesting deeper than
    {!Vida_error.Limits} allows raises [Resource_limit] instead of
    overflowing the stack. *)

(** [parse s] parses the full string.
    @raise Vida_error.Error with a byte position on malformed input. *)
val parse : ?source:string -> string -> Vida_data.Value.t

(** [parse_substring s ~pos ~len] parses one JSON value occupying exactly
    [s.[pos .. pos+len)] (surrounding whitespace tolerated). Counts one
    parsed object. *)
val parse_substring : ?source:string -> string -> pos:int -> len:int -> Vida_data.Value.t

(** [skip_value s pos] returns the offset just past the JSON value starting
    at [pos] without building it — structural navigation only. *)
val skip_value : ?source:string -> string -> int -> int

(** {1 In-place access}

    The functions below read a value where it lies in a larger string
    (a whole file), bounded by an exclusive [stop]/[lim]: they see exactly
    the bytes a copy of the range would hold, without making the copy.
    Error offsets are offsets into [s]. *)

(** [parse_range s ~pos ~stop] parses the value starting at [pos] within
    [s.[pos .. stop)]. Counts nothing. *)
val parse_range : ?source:string -> string -> pos:int -> stop:int -> Vida_data.Value.t

(** [value_stop s ~lim pos] is the offset just past the member value at
    [pos] (structural skip, at member depth), within [lim]. *)
val value_stop : ?source:string -> string -> lim:int -> int -> int

(** [find_fields s ~pos ~lim names starts stops] scans the top level of
    the object in [s.[pos .. lim)] without building values, matching
    member names in place: for each [names.(j)] it writes the byte range
    of the first member so named into [starts.(j)], [stops.(j)], or [-1]
    into [starts.(j)] when the object has no such member.
    @raise Vida_error.Error if the range does not hold an object. *)
val find_fields :
  ?source:string -> string -> pos:int -> lim:int -> string array -> int array ->
  int array -> unit
