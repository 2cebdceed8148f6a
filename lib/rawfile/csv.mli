(** CSV tokenization, typed conversion, and writing.

    The tokenizer works on byte offsets so the positional map
    ({!Positional_map}) can record field positions and later resume
    tokenization mid-row. Quoting follows RFC 4180: fields may be wrapped in
    double quotes, with [""] escaping a quote; delimiters and newlines
    inside quotes are data. *)

(** [field_bounds ~delim buf ~row_end pos] scans one field starting at [pos]
    (which must be a field start), returning [(content_start, content_stop,
    next_pos)] — content bounds exclude the quotes of a quoted field, and
    [next_pos] is the start of the following field, or [row_end] (+1 past
    the delimiter handling) when the row is exhausted. Counts one
    [field_tokenized]. *)
val field_bounds :
  delim:char -> Raw_buffer.t -> row_end:int -> int -> int * int * int

(** [skip_fields ~delim buf ~row_end pos n] tokenizes past [n] fields,
    returning the offset of the field that follows. *)
val skip_fields : delim:char -> Raw_buffer.t -> row_end:int -> int -> int -> int

(** [field_content ~delim buf ~row_end pos] extracts the (unescaped) string
    content of the field starting at [pos] and the offset past it. *)
val field_content :
  delim:char -> Raw_buffer.t -> row_end:int -> int -> string * int

(** String-core variants of the three tokenizer entry points, for scan
    loops that hoist {!Raw_buffer.contents} once and avoid per-byte bounds
    checks. [row_end] is clamped to the string length. *)
val field_bounds_str :
  delim:char -> string -> row_end:int -> int -> int * int * int

val skip_fields_str : delim:char -> string -> row_end:int -> int -> int -> int

val field_content_str :
  delim:char -> string -> row_end:int -> int -> string * int

(** {1 Non-allocating cursor}

    The scan core behind the entry points above, for decode loops: it
    writes the field's content bounds and the next field's offset into a
    caller-owned cursor instead of returning a tuple, and counts nothing
    (callers account in bulk). A quoted field's content starts past
    its opening quote, so [c.start > pos] tells it was quoted. *)

type cursor = { mutable start : int; mutable stop : int; mutable next : int }

val cursor : unit -> cursor

(** [scan_field c ~delim s ~row_end pos] scans the field at [pos] into
    [c], with the conventions of {!field_bounds}. *)
val scan_field : cursor -> delim:char -> string -> row_end:int -> int -> unit

(** [field_text s ~start ~stop ~quoted] copies a field's content,
    unescaping doubled quotes when [quoted], and counts the bytes read. *)
val field_text : string -> start:int -> stop:int -> quoted:bool -> string

(** [split_line ~delim line] tokenizes a standalone string (header parsing,
    tests). *)
val split_line : delim:char -> string -> string list

(** [convert ty s] converts CSV field text to a typed value. The empty
    string, ["NULL"] and ["NA"] convert to [Null] for every type.
    @raise Vida_data.Value.Type_error on malformed input. *)
val convert : Vida_data.Ty.t -> string -> Vida_data.Value.t

(** [escape_field ~delim s] quotes [s] if it contains the delimiter, a
    quote, or a newline. *)
val escape_field : delim:char -> string -> string

(** [write_header oc ~delim names] / [write_row oc ~delim fields] append one
    line. Callers render values with {!render_value}. *)
val write_header : out_channel -> delim:char -> string list -> unit

val write_row : out_channel -> delim:char -> string list -> unit

(** [render_value v] is the CSV text of a scalar value ([Null] → empty). *)
val render_value : Vida_data.Value.t -> string
