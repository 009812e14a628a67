(* Scrub + cross-source repair.  See repair.mli.

   The WAL rebuild is the interesting part.  A mid-log CRC hit (bit
   rot, a flipped sector) makes plain recovery truncate at the damage —
   silently dropping every committed record after it.  But any attached
   feed that shipped those records still holds them, tagged with their
   LSNs and epoch.  So: take the log's own valid prefix, extend it with
   the longest continuous chain of feed records picking up exactly
   where the prefix ends, verify the replayed result against the
   fingerprint the shipper recorded, and only then atomically install
   the rebuilt log.  The WAL codec is canonical (same record, same
   bytes), so a full rebuild is bit-identical to the undamaged log. *)

open Rfview_engine

let wal_file dir = Filename.concat dir "log.wal"

(* ---- Feed content checks ---- *)

let feed_damage path : Scrub.damage list =
  if not (Io.exists path) then []
  else begin
    let art = Scrub.Feed_file path in
    (* offsets the frame-level scan already reports as CRC damage — a
       [Feed.Damage] item there is not additionally "undecodable" *)
    let crc_offsets =
      List.filter_map
        (fun (d : Scrub.damage) ->
          match d.Scrub.d_kind with
          | Scrub.Crc { offset } -> Some offset
          | _ -> None)
        (Scrub.feed_frame_damage path)
    in
    let items, _torn = Feed.read_from path ~offset:0 in
    let out = ref [] in
    let push k = out := { Scrub.d_artifact = art; d_kind = k } :: !out in
    let expect = ref None in
    let start = ref 0 in
    List.iter
      (fun (item, finish) ->
        (match item with
         | Feed.Damage { offset } ->
           if not (List.mem offset crc_offsets) then
             push
               (Scrub.Undecodable
                  { offset; detail = "feed entry does not decode" });
           (* continuity is unknowable across damage *)
           expect := None
         | Feed.Entry (Feed.Artifact { lsn; _ }) -> expect := Some (lsn + 1)
         | Feed.Entry (Feed.Record { lsn; _ }) ->
           (match !expect with
            | Some e when lsn <> e ->
              push (Scrub.Gap { expected = e; found = lsn; offset = !start })
            | _ -> ());
           expect := Some (lsn + 1));
        start := finish)
      items;
    List.rev !out
  end

let scrub ?(feeds = []) dir : Scrub.report =
  let base = Scrub.scrub_dir ~feeds dir in
  {
    base with
    Scrub.damage = base.Scrub.damage @ List.concat_map feed_damage feeds;
  }

(* ---- Actions ---- *)

type action =
  | Swept_tmp of string
  | Truncated_wal of { path : string; at : int }
  | Rebuilt_wal of {
      path : string;
      from_feed : string;
      records : int;
      tip_lsn : int;
      verified : bool;
    }
  | Reseeded_feed of { path : string }

let describe_action = function
  | Swept_tmp p -> Printf.sprintf "swept stale temp file %s" p
  | Truncated_wal { path; at } ->
    Printf.sprintf "truncated %s to %d byte(s) (no peer chain to rebuild from)"
      path at
  | Rebuilt_wal { path; from_feed; records; tip_lsn; verified } ->
    Printf.sprintf "rebuilt %s from feed %s: %d record(s) to lsn %d%s" path
      from_feed records tip_lsn
      (if verified then ", fingerprint-verified" else " (no fingerprint to verify)")
  | Reseeded_feed { path } ->
    Printf.sprintf "re-seeded feed %s from the primary" path

type outcome = {
  o_actions : action list;
  o_before : Scrub.report;
  o_after : Scrub.report;
}

(* ---- The WAL rebuild ---- *)

(* The log's own healthy beginning: entries up to the first damaged or
   undecodable frame.  Returns (epoch, records-after-Begin, bytes) or
   None when even BEGIN is unreadable. *)
let valid_prefix (detail : Wal.detail) =
  match detail.Wal.d_entries with
  | { Wal.e_record = Some (Wal.Begin epoch); e_bytes; _ } :: rest ->
    let records = ref [] in
    let bytes = ref e_bytes in
    (try
       List.iter
         (fun (e : Wal.entry) ->
           match e.Wal.e_record with
           | Some r when e.Wal.e_crc_ok ->
             records := r :: !records;
             bytes := e.Wal.e_offset + e.Wal.e_bytes
           | _ -> raise Exit)
         rest
     with Exit -> ());
    Some (epoch, List.rev !records, !bytes)
  | _ -> None

(* The longest continuous chain of records one feed holds for [epoch],
   starting exactly at [from_lsn]: [(records, fp_points)] where
   [fp_points] maps chained LSNs to the fingerprints the shipper
   recorded there. *)
let feed_chain path ~epoch ~from_lsn =
  let items, _ = Feed.read_from path ~offset:0 in
  let by_lsn = Hashtbl.create 64 in
  List.iter
    (fun (item, _) ->
      match item with
      | Feed.Entry (Feed.Record { lsn; epoch = e; fp; record }) when e = epoch ->
        if not (Hashtbl.mem by_lsn lsn) then Hashtbl.add by_lsn lsn (record, fp)
      | _ -> ())
    items;
  let records = ref [] in
  let fps = ref [] in
  let lsn = ref from_lsn in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt by_lsn !lsn with
    | Some (record, fp) ->
      records := record :: !records;
      (match fp with Some f -> fps := (!lsn, f) :: !fps | None -> ());
      incr lsn
    | None -> continue := false
  done;
  (List.rev !records, List.rev !fps)

(* Replay [records] over the directory's checkpoint (or the empty
   state) and check the logical fingerprint the feed recorded at
   [at_lsn].  [base_lsn] is the LSN the replay starts from (the
   checkpoint's). *)
let verify_fp dir ~base_lsn ~records ~at_lsn ~fp =
  match
    let db =
      match Checkpoint.read ~dir with
      | Some snap -> fst (Database.restore_snapshot snap)
      | None -> Database.create ()
    in
    let lsn = ref base_lsn in
    List.iter
      (fun r ->
        if !lsn < at_lsn then begin
          Database.apply_record db r;
          incr lsn
        end)
      records;
    !lsn = at_lsn && Wal.crc32 (Database.fingerprint db) = fp
  with
  | ok -> ok
  | exception _ -> false

let install_wal path ~epoch ~records =
  Io.install path (fun f ->
      List.iter (fun r -> Io.write f (Wal.frame r)) (Wal.Begin epoch :: records))

let repair_wal dir ~feeds ~(before : Scrub.report) : action list =
  let path = wal_file dir in
  let wal_damaged =
    List.exists
      (fun (d : Scrub.damage) ->
        match d.Scrub.d_artifact with Scrub.Wal_file _ -> true | _ -> false)
      before.Scrub.damage
  in
  if not wal_damaged then []
  else begin
    let ckpt_epoch, ckpt_lsn =
      match Checkpoint.read ~dir with
      | Some s -> (s.Checkpoint.epoch, s.Checkpoint.lsn)
      | None -> (0, 0)
      | exception Checkpoint.Corrupt _ -> (0, 0)
    in
    let prefix =
      if Io.exists path then
        match valid_prefix (Wal.scan_detail path) with
        | Some (epoch, records, bytes) when epoch = ckpt_epoch ->
          Some (records, bytes)
        | _ -> None
      else None
    in
    (* the prefix is the log's own contribution; [None] (unreadable
       BEGIN, stale epoch, or a deleted file) means rebuild from the
       checkpoint alone *)
    let prefix_records = match prefix with Some (r, _) -> r | None -> [] in
    let from_lsn = ckpt_lsn + List.length prefix_records + 1 in
    let best =
      List.fold_left
        (fun acc feed ->
          match feed_chain feed ~epoch:ckpt_epoch ~from_lsn with
          | [], _ -> acc
          | chain, fps ->
            (match acc with
             | Some (_, prev, _) when List.length prev >= List.length chain -> acc
             | _ -> Some (feed, chain, fps)))
        None feeds
    in
    match best with
    | Some (feed, chain, fps) ->
      let records = prefix_records @ chain in
      let tip_lsn = ckpt_lsn + List.length records in
      let verified =
        match List.rev fps with
        | (at_lsn, fp) :: _ -> verify_fp dir ~base_lsn:ckpt_lsn ~records ~at_lsn ~fp
        | [] -> false
      in
      if verified || fps = [] then begin
        install_wal path ~epoch:ckpt_epoch ~records;
        [
          Rebuilt_wal
            {
              path;
              from_feed = feed;
              records = List.length records;
              tip_lsn;
              verified;
            };
        ]
      end
      else begin
        (* a fingerprint existed and did NOT match: the chain is not
           the primary's history — fall back to the explicit chop *)
        match prefix with
        | Some (_, bytes) ->
          Wal.truncate path bytes;
          [ Truncated_wal { path; at = bytes } ]
        | None -> []
      end
    | None ->
      (* no feed carries the missing range: keep the valid prefix (or
         install an empty fresh log when even BEGIN was lost) *)
      (match prefix with
       | Some (_, bytes) when Io.exists path && bytes < Io.file_size path ->
         Wal.truncate path bytes;
         [ Truncated_wal { path; at = bytes } ]
       | Some _ -> []
       | None ->
         install_wal path ~epoch:ckpt_epoch ~records:[];
         [ Truncated_wal { path; at = Io.file_size path } ])
  end

(* ---- Feed re-seed ---- *)

let reseed_feeds dir ~feeds ~(before : Scrub.report) : action list =
  let damaged_feeds =
    List.filter
      (fun feed ->
        List.exists
          (fun (d : Scrub.damage) ->
            match d.Scrub.d_artifact with
            | Scrub.Feed_file p -> p = feed
            | _ -> false)
          before.Scrub.damage)
      feeds
  in
  if damaged_feeds = [] then []
  else begin
    (* the primary must be readable (the WAL repair above ran first);
       re-seed = fresh checkpoint + artifact entry, Ship.attach's seed
       path, which truncates the feed *)
    match Database.recover dir with
    | db, _report ->
      Fun.protect
        ~finally:(fun () -> Database.close db)
        (fun () ->
          Database.checkpoint db;
          let sh = Ship.create db in
          Fun.protect
            ~finally:(fun () -> Ship.close sh)
            (fun () ->
              List.filter_map
                (fun feed ->
                  match
                    Ship.attach sh ~name:(Filename.basename feed) ~path:feed
                  with
                  | () -> Some (Reseeded_feed { path = feed })
                  | exception _ -> None)
                damaged_feeds))
    | exception _ -> []
  end

(* ---- The driver ---- *)

let repair ?(feeds = []) dir : outcome =
  let before = scrub ~feeds dir in
  let swept =
    List.filter_map
      (fun (d : Scrub.damage) ->
        match d.Scrub.d_artifact with
        | Scrub.Tmp_file p ->
          Io.remove p;
          Some (Swept_tmp p)
        | _ -> None)
      before.Scrub.damage
  in
  let wal_actions = try repair_wal dir ~feeds ~before with _ -> [] in
  let feed_actions = reseed_feeds dir ~feeds ~before in
  let after = scrub ~feeds dir in
  { o_actions = swept @ wal_actions @ feed_actions; o_before = before; o_after = after }
