(* The write-ahead log: an append-only file of logical statement
   records, each framed as [length ∥ crc32 ∥ payload] (both u32 LE) so a
   torn tail — a record cut short by a crash mid-write — is detected and
   truncated, never replayed.

   Records are logical: DML deltas carry the exact rows in a binary
   value encoding (no text round-trip, so float payloads survive
   bit-identically), DDL and REFRESH carry SQL text, bulk/CSV loads
   carry the loaded rows.  Every log opens with [Begin epoch]; a
   checkpoint bumps the epoch and atomically installs a fresh log, so
   recovery distinguishes the new log from a stale one left by a crash
   between the checkpoint rename and the log reset.

   The writer is an unbuffered handle on the [Io] seam: a record is on
   its way to disk the moment [append] returns and durable once [sync]
   returns.  The commit protocol in Database captures [position] first
   and [truncate_back]s on any append/sync failure, so a rolled-back
   statement leaves no record behind.  All byte traffic routes through
   {!Io}, so the simulated disk (ENOSPC budgets, bit flips, crash-lost
   tails) applies to the log like every other artifact. *)

open Rfview_relalg

exception Wal_error of string

exception Truncate_error of { path : string; target : int; detail : string }

let wal_error fmt = Format.kasprintf (fun s -> raise (Wal_error s)) fmt

(* ---- Fault-injection sites ---- *)

let site_append = Fault.define "wal.append"
let site_fsync = Fault.define "wal.fsync"

(* ---- CRC32 (IEEE 802.3 / zlib polynomial, reflected) ---- *)

(* On ints: a byte costs two table reads and no allocation, where
   [Int32] arithmetic boxes a value per operation. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 (s : string) : int32 =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ---- Binary codec ---- *)

module Codec = struct
  exception Decode of string

  let decode_error fmt = Format.kasprintf (fun s -> raise (Decode s)) fmt

  let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

  let put_int buf (i : int) =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int i);
    Buffer.add_bytes buf b

  let put_i64 buf (i : int64) =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 i;
    Buffer.add_bytes buf b

  let put_string buf s =
    put_int buf (String.length s);
    Buffer.add_string buf s

  let put_value buf (v : Value.t) =
    match v with
    | Value.Null -> Buffer.add_char buf 'N'
    | Value.Bool b ->
      Buffer.add_char buf 'B';
      put_bool buf b
    | Value.Int i ->
      Buffer.add_char buf 'I';
      put_int buf i
    | Value.Float f ->
      Buffer.add_char buf 'F';
      put_i64 buf (Int64.bits_of_float f)
    | Value.String s ->
      Buffer.add_char buf 'S';
      put_string buf s
    | Value.Date d ->
      Buffer.add_char buf 'D';
      put_int buf d

  let put_row buf (row : Row.t) =
    put_int buf (Array.length row);
    Array.iter (put_value buf) row

  let put_schema buf (schema : Schema.t) =
    put_int buf (Schema.arity schema);
    Array.iter
      (fun (c : Schema.column) ->
        (match c.Schema.rel with
         | None -> put_bool buf false
         | Some r ->
           put_bool buf true;
           put_string buf r);
        put_string buf c.Schema.name;
        put_string buf (Dtype.to_string c.Schema.ty))
      schema

  let put_relation buf (r : Relation.t) =
    put_schema buf (Relation.schema r);
    let rows = Relation.rows r in
    put_int buf (Array.length rows);
    Array.iter (put_row buf) rows

  type reader = { data : string; mutable pos : int }

  let reader data = { data; pos = 0 }
  let at_end r = r.pos >= String.length r.data

  (* written so that a hostile [n] near [max_int] cannot overflow *)
  let need r n =
    if n > String.length r.data - r.pos then
      decode_error "payload truncated (want %d bytes at %d of %d)" n r.pos
        (String.length r.data)

  let get_char r =
    need r 1;
    let c = r.data.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let get_bool r =
    match get_char r with
    | '\000' -> false
    | '\001' -> true
    | c -> decode_error "bad bool byte %C" c

  let get_i64 r =
    need r 8;
    let v = Bytes.get_int64_le (Bytes.unsafe_of_string r.data) r.pos in
    r.pos <- r.pos + 8;
    v

  let get_int r = Int64.to_int (get_i64 r)

  let get_count r what =
    let n = get_int r in
    if n < 0 then decode_error "negative %s %d" what n;
    if n > String.length r.data - r.pos then
      decode_error "%s %d exceeds the %d byte(s) left" what n
        (String.length r.data - r.pos);
    n

  let get_string r =
    let n = get_int r in
    if n < 0 then decode_error "negative string length %d" n;
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  (* [n] raw bytes, no length prefix (the compression wrapper carries
     its own lengths) *)
  let get_raw r n =
    if n < 0 then decode_error "negative raw length %d" n;
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let get_value r : Value.t =
    match get_char r with
    | 'N' -> Value.Null
    | 'B' -> Value.Bool (get_bool r)
    | 'I' -> Value.Int (get_int r)
    | 'F' -> Value.Float (Int64.float_of_bits (get_i64 r))
    | 'S' -> Value.String (get_string r)
    | 'D' -> Value.Date (get_int r)
    | c -> decode_error "bad value tag %C" c

  let get_row r : Row.t =
    let n = get_count r "row arity" in
    Array.init n (fun _ -> get_value r)

  let get_schema r : Schema.t =
    let n = get_count r "schema arity" in
    Schema.make
      (List.init n (fun _ ->
           let rel = if get_bool r then Some (get_string r) else None in
           let name = get_string r in
           let ty_name = get_string r in
           match Dtype.of_string ty_name with
           | Some ty -> { Schema.rel; name; ty }
           | None -> decode_error "bad column type %S" ty_name))

  let get_relation r : Relation.t =
    let schema = get_schema r in
    let n = get_count r "row count" in
    Relation.init schema n (fun _ -> get_row r)
end

(* ---- Records ---- *)

type record =
  | Begin of int
  | Statement of string
  | Insert of { table : string; rows : Row.t array }
  | Delete of { table : string; rows : Row.t array }
  | Update of { table : string; pairs : (Row.t * Row.t) array }
  | Load of { table : string; rows : Row.t array }
  | Batch of record list

let describe = function
  | Begin epoch -> Printf.sprintf "BEGIN epoch=%d" epoch
  | Statement sql -> Printf.sprintf "STATEMENT %s" sql
  | Insert { table; rows } -> Printf.sprintf "INSERT %d row(s) into %s" (Array.length rows) table
  | Delete { table; rows } -> Printf.sprintf "DELETE %d row(s) from %s" (Array.length rows) table
  | Update { table; pairs } -> Printf.sprintf "UPDATE %d row(s) of %s" (Array.length pairs) table
  | Load { table; rows } -> Printf.sprintf "LOAD %d row(s) into %s" (Array.length rows) table
  | Batch records -> Printf.sprintf "BATCH of %d record(s)" (List.length records)

let rec payload_of_record (r : record) : string =
  let buf = Buffer.create 64 in
  (match r with
   | Begin epoch ->
     Buffer.add_char buf 'E';
     Codec.put_int buf epoch
   | Statement sql ->
     Buffer.add_char buf 's';
     Codec.put_string buf sql
   | Insert { table; rows } ->
     Buffer.add_char buf 'i';
     Codec.put_string buf table;
     Codec.put_int buf (Array.length rows);
     Array.iter (Codec.put_row buf) rows
   | Delete { table; rows } ->
     Buffer.add_char buf 'd';
     Codec.put_string buf table;
     Codec.put_int buf (Array.length rows);
     Array.iter (Codec.put_row buf) rows
   | Update { table; pairs } ->
     Buffer.add_char buf 'u';
     Codec.put_string buf table;
     Codec.put_int buf (Array.length pairs);
     Array.iter
       (fun (old_row, new_row) ->
         Codec.put_row buf old_row;
         Codec.put_row buf new_row)
       pairs
   | Load { table; rows } ->
     Buffer.add_char buf 'l';
     Codec.put_string buf table;
     Codec.put_int buf (Array.length rows);
     Array.iter (Codec.put_row buf) rows
   | Batch records ->
     (* group commit: the sub-records nest as length-prefixed payloads,
        so one frame (and one fsync) covers the whole batch.  Large
        batch bodies are LZSS-compressed (tag 'z'); [Compress.pack]
        falls back to raw storage when compression does not win, and
        small bodies keep the plain 'b' framing. *)
     let body = Buffer.create 256 in
     Codec.put_int body (List.length records);
     List.iter (fun sub -> Codec.put_string body (payload_of_record sub)) records;
     let body = Buffer.contents body in
     if String.length body >= 256 then begin
       Buffer.add_char buf 'z';
       Compress.pack buf body
     end
     else begin
       Buffer.add_char buf 'b';
       Buffer.add_string buf body
     end);
  Buffer.contents buf

let rec record_of_payload (payload : string) : record =
  let r = Codec.reader payload in
  let get_rows () =
    let table = Codec.get_string r in
    let n = Codec.get_count r "record row count" in
    (table, Array.init n (fun _ -> Codec.get_row r))
  in
  match Codec.get_char r with
  | 'E' -> Begin (Codec.get_int r)
  | 's' -> Statement (Codec.get_string r)
  | 'i' ->
    let table, rows = get_rows () in
    Insert { table; rows }
  | 'd' ->
    let table, rows = get_rows () in
    Delete { table; rows }
  | 'u' ->
    let table = Codec.get_string r in
    let n = Codec.get_count r "record row count" in
    let pairs =
      Array.init n (fun _ ->
          let old_row = Codec.get_row r in
          let new_row = Codec.get_row r in
          (old_row, new_row))
    in
    Update { table; pairs }
  | 'l' ->
    let table, rows = get_rows () in
    Load { table; rows }
  | 'b' ->
    let n = Codec.get_count r "batch record count" in
    Batch (List.init n (fun _ -> record_of_payload (Codec.get_string r)))
  | 'z' ->
    (* compressed batch body: unwrap, then parse as the 'b' body *)
    let body =
      try
        Compress.unpack
          ~get_int:(fun () -> Codec.get_int r)
          ~get_char:(fun () -> Codec.get_char r)
          ~get_bytes:(fun n -> Codec.get_raw r n)
      with Compress.Corrupt m ->
        raise (Codec.Decode (Printf.sprintf "compressed batch: %s" m))
    in
    let br = Codec.reader body in
    let n = Codec.get_count br "batch record count" in
    Batch (List.init n (fun _ -> record_of_payload (Codec.get_string br)))
  | c -> raise (Codec.Decode (Printf.sprintf "bad record tag %C" c))

(* ---- Frames: [length ∥ crc32 ∥ payload], both u32 LE ----

   The one frame format of every durable artifact: this log, the
   checkpoint and the replication feed.  Nothing else reads or writes a
   frame header. *)

let frame_payload (payload : string) : string =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (crc32 payload);
  Bytes.blit_string payload 0 b 8 n;
  Bytes.unsafe_to_string b

let frame r = frame_payload (payload_of_record r)

(* Sanity bound on a frame's length: a corrupt length field must not
   make a walk skip (or allocate) gigabytes. *)
let max_frame = 1 lsl 30

type frame = { f_offset : int; f_payload : string; f_crc_ok : bool }

let frames ?(from = 0) (data : string) : frame list * int option =
  let len = String.length data in
  let b = Bytes.unsafe_of_string data in
  let rec walk pos acc =
    if pos + 8 > len then (List.rev acc, if pos < len then Some pos else None)
    else
      let n = Int32.to_int (Bytes.get_int32_le b pos) in
      if n < 0 || n > max_frame || pos + 8 + n > len then (List.rev acc, Some pos)
      else
        let f_payload = String.sub data (pos + 8) n in
        let f_crc_ok = crc32 f_payload = Bytes.get_int32_le b (pos + 4) in
        walk (pos + 8 + n) ({ f_offset = pos; f_payload; f_crc_ok } :: acc)
  in
  walk from []

(* ---- The writer ---- *)

type writer = { file : Io.file; mutable pos : int }

let create path ~epoch : writer =
  Io.install path (fun f -> Io.write f (frame (Begin epoch)));
  let f = Io.openf path ~mode:Io.Append in
  { file = f; pos = Io.size f }

let open_append path : writer =
  if not (Sys.file_exists path) then wal_error "no log at %s" path;
  let f = Io.openf path ~mode:Io.Append in
  { file = f; pos = Io.size f }

let position w = w.pos

let append w (r : record) =
  Fault.hit site_append;
  let framed = frame r in
  Io.write w.file framed;
  w.pos <- w.pos + String.length framed

let sync w =
  Fault.hit site_fsync;
  Io.fsync w.file

(* Chop a failed commit's partial record back off.  A truncate that
   itself fails surfaces as the typed [Truncate_error] carrying the path
   and target offset — never a raw [Unix_error]. *)
let truncate_back w pos =
  (try Io.ftruncate w.file pos
   with
   | Io.Io_error { detail; _ } ->
     raise (Truncate_error { path = Io.path_of w.file; target = pos; detail })
   | Unix.Unix_error (e, _, _) ->
     raise
       (Truncate_error
          { path = Io.path_of w.file; target = pos; detail = Unix.error_message e }));
  w.pos <- pos

let close w = Io.close w.file

(* ---- Scanning ---- *)

type scan = {
  epoch : int;
  records : record list;
  torn : bool;
  valid_bytes : int;
}

let scan path : scan =
  if not (Sys.file_exists path) then wal_error "no log at %s" path;
  let frames, tail = frames (Io.read_file path) in
  (* stop at the first damaged or undecodable record: for an append-only
     log everything from there on is a torn tail *)
  let rec take acc valid_bytes = function
    | [] -> (List.rev acc, valid_bytes, tail <> None)
    | f :: rest ->
      (match if f.f_crc_ok then Some (record_of_payload f.f_payload) else None with
       | Some record ->
         take (record :: acc) (f.f_offset + 8 + String.length f.f_payload) rest
       | None | (exception Codec.Decode _) -> (List.rev acc, valid_bytes, true))
  in
  match take [] 0 frames with
  | Begin epoch :: records, valid_bytes, torn -> { epoch; records; torn; valid_bytes }
  | _ -> wal_error "%s: missing or unreadable BEGIN record" path

(* ---- Detailed scanning (wal-info, the replication shipper) ----

   Unlike [scan], this keeps walking past a damaged record (the length
   field still frames it) and reports every frame with its byte span
   and CRC status.  A record that fails to decode despite a matching
   CRC is reported as undecodable rather than aborting the walk. *)

type entry = {
  e_index : int;      (* 1-based position in the file *)
  e_offset : int;     (* byte offset of the frame (length field) *)
  e_bytes : int;      (* total frame size: 8 + payload length *)
  e_crc_ok : bool;
  e_record : record option; (* decoded record; [None] when CRC or decode failed *)
}

type detail = {
  d_entries : entry list;
  d_torn : int option; (* byte offset of a torn tail, when present *)
  d_size : int;        (* file size in bytes *)
}

let scan_detail path : detail =
  if not (Sys.file_exists path) then wal_error "no log at %s" path;
  let data = Io.read_file path in
  let frames, d_torn = frames data in
  let entry i f =
    let e_record =
      if not f.f_crc_ok then None
      else match record_of_payload f.f_payload with
        | r -> Some r
        | exception Codec.Decode _ -> None
    in
    { e_index = i + 1; e_offset = f.f_offset; e_bytes = 8 + String.length f.f_payload;
      e_crc_ok = f.f_crc_ok; e_record }
  in
  { d_entries = List.mapi entry frames; d_torn; d_size = String.length data }

let truncate path valid_bytes =
  let f = Io.openf path ~mode:Io.Write in
  Fun.protect
    ~finally:(fun () -> Io.close f)
    (fun () ->
      Io.ftruncate f valid_bytes;
      Io.fsync f)

let () =
  Printexc.register_printer (function
    | Wal_error m -> Some (Printf.sprintf "WAL error: %s" m)
    | Truncate_error { path; target; detail } ->
      Some
        (Printf.sprintf "WAL truncate error: %s: cannot truncate to %d: %s" path
           target detail)
    | Codec.Decode m -> Some (Printf.sprintf "WAL decode error: %s" m)
    | _ -> None)
