(* Versioned checkpoints: a snapshot of base tables, index DDL, view
   definitions and per-view materialized state.

   File layout — a sequence of CRC-framed records (Wal.frames):

     H epoch                      header
     T name schema rows           one per base table
     I ddl                        one per index (tables and views)
     V name materialized sql      one per view, definition only
     S name stale incr contents?  state, right after its view's V record
     Z count                      trailer: number of records before it

   Installed by Io.install (tmp file, fsync, rename) — a visible
   checkpoint file is always complete, so on read a short file or
   missing trailer means real corruption, not a torn write.

   Damage policy on read: a CRC-mismatched record sitting where a
   materialized view's S record belongs marks that view [`Damaged] (the
   recovery quarantines it — restored stale, healed by full refresh on
   first read); a mismatch anywhere else raises [Corrupt].  This is what
   lets recovery always terminate with a readable database: per-view
   state damage degrades one view, it never sinks the snapshot. *)

open Rfview_relalg
module Codec = Wal.Codec

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let site_write = Fault.define "checkpoint.write"

let file ~dir = Filename.concat dir "checkpoint"

type table_snap = {
  t_name : string;
  t_schema : Schema.t;
  t_rows : Row.t array;
}

type state_snap = {
  s_stale : bool;
  s_contents : Relation.t option;
  s_incremental : bool;
}

type view_entry = {
  v_name : string;
  v_materialized : bool;
  v_sql : string;
  v_state : [ `None | `Snap of state_snap | `Damaged ];
}

type snapshot = {
  epoch : int;
  lsn : int;
  tables : table_snap list;
  index_ddl : string list;
  views : view_entry list;
}

(* ---- Record payloads ---- *)

let header_payload epoch lsn =
  let buf = Buffer.create 16 in
  Buffer.add_char buf 'H';
  Codec.put_int buf epoch;
  Codec.put_int buf lsn;
  Buffer.contents buf

let table_payload (t : table_snap) =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'T';
  Codec.put_string buf t.t_name;
  Codec.put_schema buf t.t_schema;
  Codec.put_int buf (Array.length t.t_rows);
  Array.iter (Codec.put_row buf) t.t_rows;
  Buffer.contents buf

let index_payload ddl =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'I';
  Codec.put_string buf ddl;
  Buffer.contents buf

let view_payload (v : view_entry) =
  let buf = Buffer.create 128 in
  Buffer.add_char buf 'V';
  Codec.put_string buf v.v_name;
  Codec.put_bool buf v.v_materialized;
  Codec.put_string buf v.v_sql;
  Buffer.contents buf

let state_payload name (s : state_snap) =
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'S';
  Codec.put_string buf name;
  Codec.put_bool buf s.s_stale;
  Codec.put_bool buf s.s_incremental;
  (match s.s_contents with
   | None -> Codec.put_bool buf false
   | Some r ->
     Codec.put_bool buf true;
     Codec.put_relation buf r);
  Buffer.contents buf

let trailer_payload count =
  let buf = Buffer.create 16 in
  Buffer.add_char buf 'Z';
  Codec.put_int buf count;
  Buffer.contents buf

(* ---- Writing ---- *)

let write ~dir ~lsn ~epoch ~tables ~index_ddl ~views =
  let payloads =
    header_payload epoch lsn
    :: List.map table_payload tables
    @ List.map index_payload index_ddl
    @ List.concat_map
        (fun v ->
          view_payload v
          ::
          (match v.v_state with
           | `Snap s -> [ state_payload v.v_name s ]
           | `None | `Damaged -> []))
        views
  in
  let payloads = payloads @ [ trailer_payload (List.length payloads) ] in
  Io.install (file ~dir) (fun f ->
      List.iter
        (fun payload ->
          Fault.hit site_write;
          Io.write f (Wal.frame_payload payload))
        payloads)

(* ---- Reading ---- *)

let read_data ~name data : snapshot =
  let frames, tail = Wal.frames data in
  if tail <> None then corrupt "%s: short file (checkpoints are rename-atomic)" name;
  let epoch = ref None in
  let lsn = ref 0 in
  let tables = ref [] in
  let index_ddl = ref [] in
  let views = ref [] in (* reversed; head is the most recent V record *)
  let seen = ref 0 in
  let trailer = ref None in
  let with_reader payload off f =
    let r = Codec.reader payload in
    match f r with
    | v -> v
    | exception Codec.Decode m -> corrupt "%s: at byte %d: %s" name off m
  in
  List.iter
    (fun (f : Wal.frame) ->
      (* messages give the payload's offset *)
      let off = f.Wal.f_offset + 8 in
      if !trailer <> None then
        corrupt "%s: record after the trailer at byte %d" name off;
      incr seen;
      if not f.Wal.f_crc_ok then
        (* a CRC-mismatched record: tolerable only in the position of a
           materialized view's state record *)
        (match !views with
         | v :: rest when v.v_materialized && v.v_state = `None ->
           views := { v with v_state = `Damaged } :: rest
         | _ ->
           corrupt "%s: damaged record %d at byte %d is not a view state" name
             !seen off)
      else
        with_reader f.Wal.f_payload off (fun r ->
            match Codec.get_char r with
            | 'H' ->
              if !epoch <> None then corrupt "%s: duplicate header" name;
              epoch := Some (Codec.get_int r);
              (* pre-replication checkpoints have no lsn field *)
              lsn := if Codec.at_end r then 0 else Codec.get_int r
            | 'T' ->
              let t_name = Codec.get_string r in
              let t_schema = Codec.get_schema r in
              let n = Codec.get_count r "row count" in
              let t_rows = Array.init n (fun _ -> Codec.get_row r) in
              tables := { t_name; t_schema; t_rows } :: !tables
            | 'I' -> index_ddl := Codec.get_string r :: !index_ddl
            | 'V' ->
              let v_name = Codec.get_string r in
              let v_materialized = Codec.get_bool r in
              let v_sql = Codec.get_string r in
              views := { v_name; v_materialized; v_sql; v_state = `None } :: !views
            | 'S' ->
              let sname = Codec.get_string r in
              let s_stale = Codec.get_bool r in
              let s_incremental = Codec.get_bool r in
              let s_contents =
                if Codec.get_bool r then Some (Codec.get_relation r) else None
              in
              (match !views with
               | v :: rest
                 when String.lowercase_ascii v.v_name = String.lowercase_ascii sname
                      && v.v_state = `None ->
                 views :=
                   { v with v_state = `Snap { s_stale; s_contents; s_incremental } }
                   :: rest
               | _ ->
                 corrupt "%s: state record for %s has no matching view" name sname)
            | 'Z' ->
              (* the trailer counts every record before it *)
              trailer := Some (Codec.get_int r)
            | c -> corrupt "%s: unknown record tag %C at byte %d" name c off))
    frames;
  (match !trailer with
   | None -> corrupt "%s: missing trailer" name
   | Some n ->
     if n <> !seen - 1 then
       corrupt "%s: trailer counts %d records, file has %d" name n (!seen - 1));
  match !epoch with
  | None -> corrupt "%s: missing header" name
  | Some epoch ->
    {
      epoch;
      lsn = !lsn;
      tables = List.rev !tables;
      index_ddl = List.rev !index_ddl;
      views = List.rev !views;
    }

let read_bytes ?(name = "<checkpoint bytes>") data = read_data ~name data

(* Raw file bytes, for shipping the artifact to a replica feed. *)
let contents ~dir =
  let path = file ~dir in
  if Sys.file_exists path then Some (Io.read_file path) else None

let read ~dir : snapshot option =
  let path = file ~dir in
  if not (Sys.file_exists path) then None
  else Some (read_data ~name:path (Io.read_file path))

(* ---- Test helper: damage one view's state record in place ---- *)

let corrupt_state ~dir ~view : bool =
  let path = file ~dir in
  let is_state (f : Wal.frame) =
    let p = f.Wal.f_payload in
    f.Wal.f_crc_ok && String.length p > 0 && p.[0] = 'S'
    &&
    let r = Codec.reader p in
    match
      let _tag = Codec.get_char r in
      Codec.get_string r
    with
    | name -> String.lowercase_ascii name = String.lowercase_ascii view
    | exception Codec.Decode _ -> false
  in
  let target =
    if Sys.file_exists path then List.find_opt is_state (fst (Wal.frames (Io.read_file path)))
    else None
  in
  match target with
  | None -> false
  | Some { Wal.f_offset; f_payload = payload; _ } ->
    let f = Io.openf path ~mode:Io.Write in
    Fun.protect
      ~finally:(fun () -> Io.close f)
      (fun () ->
        (* flip the last payload byte: the frame CRC no longer matches *)
        let at = f_offset + 8 + String.length payload - 1 in
        let byte = Char.code payload.[String.length payload - 1] lxor 0xFF in
        Io.pwrite f ~at (String.make 1 (Char.chr byte)));
    true
