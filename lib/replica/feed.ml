(* A replication feed: the append-only stream one replica consumes.

   The file is a sequence of CRC-framed entries (Wal.frames):

     C lsn epoch fp? data        a checkpoint artifact — the primary's
                                 whole checkpoint file, packed
     R lsn epoch fp? payload     one shipped WAL record, packed

   Record payloads and checkpoint bytes travel through Compress.pack,
   so the feed is the compact wire format even when the primary's own
   files are not.  [fp], when present, is the CRC32 of the primary's
   logical fingerprint at exactly [lsn]: the shipper attaches it to the
   entry at the tip of a pump, and the replica compares after applying
   to detect divergence.

   Fault-injection sites: [ship.append] (before an entry's bytes are
   written) and [ship.fsync] (before the durability barrier). *)

open Rfview_engine
module Codec = Wal.Codec

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let site_append = Fault.define "ship.append"
let site_sync = Fault.define "ship.fsync"

type entry =
  | Artifact of { lsn : int; epoch : int; fp : int32 option; data : string }
  | Record of { lsn : int; epoch : int; fp : int32 option; record : Wal.record }

let lsn_of = function Artifact { lsn; _ } | Record { lsn; _ } -> lsn

(* ---- Encoding ---- *)

let put_fp buf = function
  | None -> Codec.put_bool buf false
  | Some fp ->
    Codec.put_bool buf true;
    Codec.put_int buf (Int32.to_int fp)

let encode (e : entry) : string =
  let buf = Buffer.create 256 in
  (match e with
   | Artifact { lsn; epoch; fp; data } ->
     Buffer.add_char buf 'C';
     Codec.put_int buf lsn;
     Codec.put_int buf epoch;
     put_fp buf fp;
     Compress.pack buf data
   | Record { lsn; epoch; fp; record } ->
     Buffer.add_char buf 'R';
     Codec.put_int buf lsn;
     Codec.put_int buf epoch;
     put_fp buf fp;
     Compress.pack buf (Wal.payload_of_record record));
  Buffer.contents buf

let decode (payload : string) : entry =
  let r = Codec.reader payload in
  try
    let tag = Codec.get_char r in
    let lsn = Codec.get_int r in
    let epoch = Codec.get_int r in
    let fp =
      if Codec.get_bool r then Some (Int32.of_int (Codec.get_int r)) else None
    in
    let data =
      Compress.unpack
        ~get_int:(fun () -> Codec.get_int r)
        ~get_char:(fun () -> Codec.get_char r)
        ~get_bytes:(Codec.get_raw r)
    in
    match tag with
    | 'C' -> Artifact { lsn; epoch; fp; data }
    | 'R' -> Record { lsn; epoch; fp; record = Wal.record_of_payload data }
    | c -> corrupt "unknown feed entry tag %C" c
  with
  | Codec.Decode m -> corrupt "%s" m
  | Compress.Corrupt m -> corrupt "%s" m

(* ---- Writer ----

   All bytes go through the [Io] seam, so the [io.*] storage fault
   sites and the simulated disk apply to feed writes too.  A stale
   [path.tmp] from a crashed atomic install is swept when the feed is
   (re)opened. *)

type writer = { f : Io.file; mutable pos : int }

let sweep_tmp path = Io.remove (path ^ ".tmp")

let create path : writer =
  sweep_tmp path;
  { f = Io.openf path ~mode:Io.Create_trunc; pos = 0 }

(* Reopening after a shipper crash: a torn tail (an append the crash cut
   short) is chopped off before appending resumes, so the frame stream
   stays parseable.  Complete-but-corrupt frames are left in place — the
   replica detects them and quarantines. *)
let open_append path : writer =
  if not (Sys.file_exists path) then create path
  else begin
    sweep_tmp path;
    let data = Io.read_file path in
    let valid = Option.value (snd (Wal.frames data)) ~default:(String.length data) in
    let f = Io.openf path ~mode:Io.Write in
    if valid < String.length data then Io.ftruncate f valid;
    Io.seek f valid;
    { f; pos = valid }
  end

let position w = w.pos

let append w (e : entry) =
  Fault.hit site_append;
  let framed = Wal.frame_payload (encode e) in
  Io.write w.f framed;
  w.pos <- w.pos + String.length framed

let sync w =
  Fault.hit site_sync;
  Io.fsync w.f

let truncate_to w pos =
  Io.ftruncate w.f pos;
  Io.seek w.f pos;
  w.pos <- pos

let close w = Io.close w.f

(* ---- Reader ---- *)

type item =
  | Entry of entry
  | Damage of { offset : int }

let size = Io.file_size

(* Walk the feed from [offset].  Each item is paired with the byte
   offset just past its frame — the reader's resume point.  A
   CRC-mismatched or undecodable frame becomes [Damage] and the walk
   continues past it (its length field still frames it); a short tail
   (an append in flight, or one a crash cut off) stops the walk and is
   reported so the reader can retry from there. *)
let read_from path ~offset : (item * int) list * int option =
  if not (Sys.file_exists path) then ([], None)
  else begin
    let data = Io.read_file path in
    if offset > String.length data then
      (* the file shrank under us: it is not the feed we were reading *)
      ([ (Damage { offset }, offset) ], None)
    else begin
      let frames, tail = Wal.frames ~from:offset data in
      let item { Wal.f_offset; f_payload; f_crc_ok } =
        let it =
          match if f_crc_ok then Some (decode f_payload) else None with
          | Some e -> Entry e
          | None | (exception Corrupt _) -> Damage { offset = f_offset }
        in
        (it, f_offset + 8 + String.length f_payload)
      in
      (List.map item frames, tail)
    end
  end
