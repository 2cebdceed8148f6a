(** Positional maps for CSV files (paper §5; NoDB).

    A positional map stores binary positions of fields inside a raw text
    file so later queries navigate directly instead of re-tokenizing. It is
    built {e lazily}: registering a file only scans row boundaries (one
    cheap pass); column positions are recorded as queries touch columns.
    A probe for column [c] seeks to the nearest recorded column [c' <= c]
    and tokenizes only the [c - c'] intervening fields — the partial-map
    behaviour whose cost the optimizer models.

    The map is an auxiliary structure: dropping it at any time only costs
    performance (paper §2.1 invalidation). *)

type t

(** [build ?delim ?header ?domains buf] scans row boundaries (quote-aware)
    and the header line if [header] (default [true]). With [domains > 1]
    and a file above the parallel-bytes floor, the scan is chunked across
    domains (a quote-parity prepass gives each chunk its starting state)
    and the per-chunk boundaries are stitched in file order — the
    resulting map is byte-identical to a sequential build. *)
val build : ?delim:char -> ?header:bool -> ?domains:int -> Raw_buffer.t -> t

val row_count : t -> int
val column_names : t -> string list  (** empty when the file has no header *)

val delim : t -> char

(** [row_bounds t row] is the [(start, stop)] byte range of a data row
    (0-based, excluding the header), newline excluded. *)
val row_bounds : t -> int -> int * int

(** [populated_columns t] is the sorted list of recorded column indices.
    Column 0 is implicitly always available (row starts). *)
val populated_columns : t -> int list

(** [field t ~row ~col] extracts one field's text, navigating via the map.
    Counts an [index_probe] plus the fields actually tokenized.
    @raise Vida_error.Error ([Invalid_request]) if [row] is out of range. *)
val field : t -> row:int -> col:int -> string

(** [fields t ~row ~cols] extracts several columns of one row; [cols] need
    not be sorted. More efficient than repeated [field] for ascending
    runs. *)
val fields : t -> row:int -> cols:int list -> string array

(** {1 Decoding}

    How the cells of a requested column are decoded:
    - [Int_cells] / [Float_cells]: unquoted cells on {!Number}'s exact
      fast path are decoded in place, straight into an unboxed column;
      empty cells are NULL; every other cell goes to the fallback;
    - [Text_cells]: every cell goes to the fallback. *)
type target = Int_cells | Float_cells | Text_cells

(** [decode ?rows t requests ~fallback] is the CSV decoder: one walk over
    the rows (all of them, or [rows = (lo, hi)]) with a non-allocating
    cursor, which records the positions of the requested columns as a
    side effect (the NoDB "piggy-backed" build — a later probe of these
    columns, or of columns right of them, starts from the recorded
    offsets) and returns one column per request, in request order.

    A request is [(column index, target)]. [fallback j row text] converts
    a cell the fast path declined — its text copied and unquoted, [""]
    for a row too short to hold the column — for request [j]; it may
    raise. Per row, fallbacks run after the walk, in request order.
    Counts the fields tokenized, the values converted on the fast path
    and the bytes of the cells it decoded. *)
val decode :
  ?rows:int * int -> t -> (int * target) list ->
  fallback:(int -> int -> string -> Vida_data.Value.t) -> Vida_data.Column.t array

(** Approximate memory footprint in bytes, for cache accounting. *)
val footprint : t -> int

(** {1 Incremental repair}

    When a data file grew by append (its old prefix unchanged — see
    {!Delta}), the map over the prefix stays valid and can be extended
    instead of rebuilt. *)

(** [extend t buf] extends a map built over the old prefix of [buf] to
    cover the appended tail: the rescan resumes from the start of the
    last old row (which may have been partial), old rows and their
    populated column offsets carry over verbatim, and only tail rows are
    tokenized. Produces exactly what [build] over [buf] followed by
    [decode] of the same columns would record. *)
val extend : t -> Raw_buffer.t -> t

(** structural equality over everything derived (rows, header, populated
    offsets) — the differential oracle for incremental-vs-full tests. *)
val equal_structure : t -> t -> bool

(** {1 Persistence}

    A positional map is pure navigation metadata, so it can outlive the
    process: [save] publishes a sidecar through {!Atomic_sidecar}
    (temp+rename, per-frame CRC32, generation counter) stamped with a
    {!Fingerprint} of the data it was built from; [load] restores it,
    returning [Error (Stale_auxiliary _)] when the sidecar is missing,
    torn/corrupt (in which case it is also quarantined aside), internally
    inconsistent (row/column arrays of different lengths or offsets
    outside the data file), or was built against a different version of
    the data file. Callers treat any [Error] as "rebuild from raw" — the
    paper's §2.1 auxiliary-structure invalidation. *)

val save : t -> path:string -> unit

val load : ?delim:char -> Raw_buffer.t -> path:string -> (t, Vida_error.t) result
