(* Seeded input generation. Every file the benchmark queries is written
   here from the seed, together with the column arrays the answer checks
   do their arithmetic over; the program under test only ever sees the
   files. *)

open Vida_workload

type file_info = { path : string; rows : int; bytes : int; columns : int }

let file_bytes path = (Unix.stat path).Unix.st_size

(* [info] also flushes the file to disk, so that its write-back does not
   run while set-ups and passes are timed *)
let info path ~rows ~columns =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
  { path; rows; bytes = file_bytes path; columns }

(* [mkdir_p dir] creates [dir] and any missing parents. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())

(* ---- numeric CSV: id,a,b,c,d ----

   [a] and [d] are integers, [b] and [c] decimals with two digits. The
   kept columns hold exactly what [float_of_string] makes of the printed
   text, so expected aggregates are computed from the same values the
   engine converts; no query reads [c]. *)

type numeric = { csv : file_info; a : int array; b : float array; d : int array }

let decimal rng = Printf.sprintf "%d.%02d" (Prng.int rng 10_000) (Prng.int rng 100)

let numeric_csv ~seed ~rows path =
  let rng = Prng.create ~seed in
  let a = Array.make rows 0 and b = Array.make rows 0. and d = Array.make rows 0 in
  let oc = open_out_bin path in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "id,a,b,c,d\n";
  for i = 0 to rows - 1 do
    let ai = Prng.int rng 1000 and bs = decimal rng and cs = decimal rng in
    let di = Prng.int rng 1_000_000 in
    a.(i) <- ai;
    b.(i) <- float_of_string bs;
    d.(i) <- di;
    Printf.bprintf buf "%d,%d,%s,%s,%d\n" i ai bs cs di;
    if Buffer.length buf > 60_000 then (
      Buffer.output_buffer oc buf;
      Buffer.clear buf)
  done;
  Buffer.output_buffer oc buf;
  close_out oc;
  { csv = info path ~rows ~columns:5; a; b; d }

(* ---- JSON lines: {"id","u","v","w","tag"}; no query reads w or tag ---- *)

type objects = { json : file_info; u : int array; v : float array }

let tags = [| "alpha"; "beta"; "gamma"; "delta"; "omega" |]

let json_lines ~seed ~objects path =
  let rng = Prng.create ~seed in
  let u = Array.make objects 0 and v = Array.make objects 0. in
  let oc = open_out_bin path in
  let buf = Buffer.create (1 lsl 16) in
  for i = 0 to objects - 1 do
    let ui = Prng.int rng 1000 and vs = decimal rng and wi = Prng.int rng 100_000 in
    u.(i) <- ui;
    v.(i) <- float_of_string vs;
    Printf.bprintf buf "{\"id\": %d, \"u\": %d, \"v\": %s, \"w\": %d, \"tag\": \"%s\"}\n"
      i ui vs wi tags.(Prng.int rng (Array.length tags));
    if Buffer.length buf > 60_000 then (
      Buffer.output_buffer oc buf;
      Buffer.clear buf)
  done;
  Buffer.output_buffer oc buf;
  close_out oc;
  { json = info path ~rows:objects ~columns:5; u; v }

(* ---- append log: id,v, grown in fixed batches ----

   [v] is drawn from one seeded stream, so generation [g] (after [g]
   appended batches) is the first [base + g * batch] values of it. *)

type append_log = {
  log_path : string;
  base : int;
  batch : int;
  values : int array;  (** every row the run may ever write *)
  mutable written : int;
}

let append_log ~seed ~base ~batch ~max_batches path =
  let rng = Prng.create ~seed in
  let total = base + (batch * max_batches) in
  let values = Array.init total (fun _ -> Prng.int rng 1000) in
  let oc = open_out_bin path in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "id,v\n";
  for i = 0 to base - 1 do
    Printf.bprintf buf "%d,%d\n" i values.(i);
    if Buffer.length buf > 60_000 then (
      Buffer.output_buffer oc buf;
      Buffer.clear buf)
  done;
  Buffer.output_buffer oc buf;
  close_out oc;
  { log_path = path; base; batch; values; written = base }

(* [append_batch log] writes the next batch with one [write] call and
   returns the new row count. *)
let append_batch log =
  if log.written + log.batch > Array.length log.values then
    invalid_arg "append_batch: the run outgrew its preallocated rows";
  let buf = Buffer.create (log.batch * 12) in
  for i = log.written to log.written + log.batch - 1 do
    Printf.bprintf buf "%d,%d\n" i log.values.(i)
  done;
  let fd = Unix.openfile log.log_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let s = Buffer.contents buf in
      let n = Unix.write_substring fd s 0 (String.length s) in
      if n <> String.length s then failwith "append_batch: short write");
  log.written <- log.written + log.batch;
  log.written

(* ---- HBP (paper §6) at a fixed scale factor ---- *)

let hbp ~seed ~sf dir =
  let config = { (Hbp_data.config_of_scale sf) with Hbp_data.seed } in
  let paths = Hbp_data.generate config ~dir in
  List.map2
    (fun path (r : Hbp_data.table_row) ->
      info path ~rows:r.Hbp_data.tuples ~columns:r.Hbp_data.attributes)
    [ paths.Hbp_data.patients; paths.Hbp_data.genetics; paths.Hbp_data.regions ]
    (Hbp_data.table2 config paths)
