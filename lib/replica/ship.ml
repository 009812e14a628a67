(* The primary-side WAL shipper.

   One shipper wraps one durable primary and fans its log out to any
   number of per-replica feeds.  [pump] reads the primary's current WAL,
   computes each record's global LSN from the primary's position, and
   appends every not-yet-shipped record to every feed, fsyncing once per
   feed per pump (the feed's own group commit).

   A feed that is behind the primary's checkpoint horizon — its last
   shipped LSN predates the records still in the log, because a
   checkpoint compacted them away — is re-seeded with a checkpoint
   artifact: the whole checkpoint file as one entry, which the replica
   bootstraps from before consuming the record suffix.  The same
   mechanism serves divergence repair: [resync] forces a fresh primary
   checkpoint and ships it, giving the quarantined replica a clean
   rebuild point.

   The entry at the tip of a pump carries the primary's logical
   fingerprint (CRC32), valid exactly at that LSN; intermediate entries
   carry none, because the primary no longer holds those states. *)

open Rfview_engine

exception Ship_error of string

let ship_error fmt = Format.kasprintf (fun s -> raise (Ship_error s)) fmt

(* must match the engine's database layout *)
let wal_file dir = Filename.concat dir "log.wal"

type feed_state = {
  f_name : string;
  f_path : string;
  f_writer : Feed.writer;
  mutable f_shipped : int; (* highest LSN this feed holds *)
}

type t = {
  db : Database.t;
  dir : string;
  mutable feeds : feed_state list;
}

let create db =
  match Database.durable_dir db with
  | None -> ship_error "shipping needs a durable primary (open_durable)"
  | Some dir -> { db; dir; feeds = [] }

let primary t = t.db
let feeds t = List.rev_map (fun f -> f.f_name) t.feeds |> List.sort String.compare

let find t name =
  match List.find_opt (fun f -> f.f_name = name) t.feeds with
  | Some f -> f
  | None -> ship_error "no feed named %s" name

let shipped t ~name = (find t name).f_shipped

let fp_now t = Wal.crc32 (Database.fingerprint t.db)

(* Append one entry durably; a failed append truncates the partial
   frame back off so the feed stays well-formed. *)
let append_synced f entry =
  let pos = Feed.position f.f_writer in
  try
    Feed.append f.f_writer entry;
    Feed.sync f.f_writer
  with e ->
    (try Feed.truncate_to f.f_writer pos with _ -> ());
    raise e

(* Ship the primary's current checkpoint artifact (no-op before the
   first checkpoint: replicas then start from the empty state at LSN 0).
   The fingerprint is attached only when the checkpoint sits at the
   primary's tip — otherwise the checkpointed state is one the primary
   has already moved past. *)
let ship_artifact t f =
  match Checkpoint.contents ~dir:t.dir with
  | None -> ()
  | Some data ->
    let snap = Checkpoint.read_bytes ~name:(Checkpoint.file ~dir:t.dir) data in
    let fp =
      if snap.Checkpoint.lsn = Database.lsn t.db then Some (fp_now t) else None
    in
    append_synced f
      (Feed.Artifact { lsn = snap.Checkpoint.lsn; epoch = snap.Checkpoint.epoch; fp; data });
    if snap.Checkpoint.lsn > f.f_shipped then f.f_shipped <- snap.Checkpoint.lsn

let attach t ~name ~path =
  if List.exists (fun f -> f.f_name = name) t.feeds then
    ship_error "feed %s is already attached" name;
  let f = { f_name = name; f_path = path; f_writer = Feed.create path; f_shipped = 0 } in
  ship_artifact t f;
  t.feeds <- t.feeds @ [ f ]

(* Reopen an existing feed after a shipper (or primary) restart: a torn
   tail is chopped, and the resume point is recovered from the feed
   itself — the highest LSN among its readable entries. *)
let reattach t ~name ~path =
  if List.exists (fun f -> f.f_name = name) t.feeds then
    ship_error "feed %s is already attached" name;
  let writer = Feed.open_append path in
  let items, _torn = Feed.read_from path ~offset:0 in
  let shipped =
    List.fold_left
      (fun acc (item, _) ->
        match item with
        | Feed.Entry e -> max acc (Feed.lsn_of e)
        | Feed.Damage _ -> acc)
      0 items
  in
  t.feeds <- t.feeds @ [ { f_name = name; f_path = path; f_writer = writer; f_shipped = shipped } ]

let close t = List.iter (fun f -> try Feed.close f.f_writer with _ -> ()) t.feeds

let pump t =
  if Database.in_batch t.db then ship_error "pump inside an open batch";
  let tip = Database.lsn t.db in
  let scan =
    try Wal.scan (wal_file t.dir) with Wal.Wal_error m -> ship_error "%s" m
  in
  let records = Array.of_list scan.Wal.records in
  (* records.(i) is the record with LSN base + i + 1 *)
  let base = tip - Array.length records in
  let fp = lazy (fp_now t) in
  let moved = ref 0 in
  List.iter
    (fun f ->
      (* behind the checkpoint horizon: the records before [base] were
         compacted away, so re-seed from the checkpoint artifact *)
      if f.f_shipped < base then ship_artifact t f;
      if f.f_shipped < base then
        ship_error "feed %s is at lsn %d, before the checkpoint horizon %d"
          f.f_name f.f_shipped base;
      if f.f_shipped < tip then begin
        let pos = Feed.position f.f_writer in
        (try
           for i = f.f_shipped - base to Array.length records - 1 do
             let lsn = base + i + 1 in
             let fp = if lsn = tip then Some (Lazy.force fp) else None in
             Feed.append f.f_writer
               (Feed.Record { lsn; epoch = scan.Wal.epoch; fp; record = records.(i) })
           done;
           Feed.sync f.f_writer
         with e ->
           (try Feed.truncate_to f.f_writer pos with _ -> ());
           raise e);
        moved := !moved + (tip - f.f_shipped);
        f.f_shipped <- tip
      end)
    t.feeds;
  !moved

(* Divergence repair: force a fresh checkpoint (the artifact then sits
   at the tip, so it carries a fingerprint) and ship it to the named
   feed.  The quarantined replica bootstraps from it on its next poll. *)
let resync t ~name =
  let f = find t name in
  if Database.in_batch t.db then ship_error "resync inside an open batch";
  Database.checkpoint t.db;
  ship_artifact t f
