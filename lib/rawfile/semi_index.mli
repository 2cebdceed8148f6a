(** Structural semi-index for JSON files (paper §5; Ottaviano & Grossi).

    For a JSON-lines file (one object per line — how ViDa's workload stores
    the BrainRegions hierarchy), the index records each object's byte range
    up front, and lazily records where each requested top-level field's
    value starts in each object — column-wise, one int array per field,
    as a positional map does for CSV. A later access to the same
    (object, field) seeks directly and parses only the field's bytes,
    skipping the rest of the object entirely — which is what keeps
    projective queries over deep hierarchies cheap (paper Figure 4's
    "positions" layout carries exactly these ranges). *)

type t

(** [build buf] scans object boundaries (newline-separated values). *)
val build : ?domains:int -> Raw_buffer.t -> t

val object_count : t -> int

(** [extend t buf] extends an index built over the old prefix of [buf]
    (see {!Delta.Appended}) to cover appended bytes: the rescan resumes
    from the start of the last old object (which may have been a partial
    line), earlier objects and their recorded field offsets carry over
    verbatim. Object bounds equal what [build buf] would produce. *)
val extend : t -> Raw_buffer.t -> t

(** [object_bounds t i] is the byte range [(pos, len)] of object [i]. *)
val object_bounds : t -> int -> int * int

(** [object_value t i] parses the whole object (expensive; pollutes no
    cache by itself — callers decide what to retain). *)
val object_value : t -> int -> Vida_data.Value.t

(** [field_bounds t ~obj ~field] is the byte range of a top-level field's
    value, recording the field's offset in the object on first access.
    [None] when the object lacks the field. *)
val field_bounds : t -> obj:int -> field:string -> (int * int) option

(** [field_value t ~obj ~field] parses just the requested field ([Null]
    when absent), in place. *)
val field_value : t -> obj:int -> field:string -> Vida_data.Value.t

(** [field_string t ~obj ~field] is the raw text of the field's value,
    for position-only handling (paper §5 cache-pollution avoidance). *)
val field_string : t -> obj:int -> field:string -> string option

(** [decode ?objs t fields ~on_error] is the JSON-lines decoder: one pass
    over the objects (all, or [objs = (lo, hi)]) that scans each object's
    top level once for all of [fields], matching names in place, records
    their offsets, and returns one column per field. Numbers on
    {!Number}'s exact fast path go straight into unboxed columns, keeping
    the parser's Int-vs-Float decision; other values are parsed in place.
    An absent field is [Null]. When an object is malformed, every field
    of it calls [on_error j obj err]; a malformed field value calls it
    for that field only. [on_error] returns the value to store, or
    raises. Counts the objects decoded and the bytes of the values. *)
val decode :
  ?objs:int * int -> t -> string list ->
  on_error:(int -> int -> Vida_error.t -> Vida_data.Value.t) -> Vida_data.Column.t array

(** Number of objects scanned for fields so far. *)
val indexed_objects : t -> int

(** Approximate memory footprint in bytes. *)
val footprint : t -> int
