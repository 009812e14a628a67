(* The artifact scrubber.  See scrub.mli.

   Everything here is read-only: damage is reported, never touched.
   The distinction between [Crc] (frame checksum mismatch), [Torn]
   (short frame at EOF) and [Undecodable] (checksum fine, payload not)
   matters to repair — a torn WAL tail is normal crash residue the
   recovery path already truncates, while a mid-log CRC mismatch means
   committed records exist beyond the damage and a peer feed may hold
   them. *)

type artifact =
  | Wal_file of string
  | Checkpoint_file of string
  | Feed_file of string
  | Tmp_file of string

type kind =
  | Crc of { offset : int }
  | Torn of { offset : int }
  | Undecodable of { offset : int; detail : string }
  | Missing
  | Structure of string
  | Epoch of { wal : int; checkpoint : int }
  | Gap of { expected : int; found : int; offset : int }
  | Stray_tmp

type damage = { d_artifact : artifact; d_kind : kind }

type report = { scanned : artifact list; damage : damage list }

let clean r = r.damage = []

let path_of_artifact = function
  | Wal_file p | Checkpoint_file p | Feed_file p | Tmp_file p -> p

let describe_artifact = function
  | Wal_file p -> Printf.sprintf "wal %s" p
  | Checkpoint_file p -> Printf.sprintf "checkpoint %s" p
  | Feed_file p -> Printf.sprintf "feed %s" p
  | Tmp_file p -> Printf.sprintf "tmp %s" p

let describe_kind = function
  | Crc { offset } -> Printf.sprintf "CRC mismatch at byte %d" offset
  | Torn { offset } -> Printf.sprintf "torn tail at byte %d" offset
  | Undecodable { offset; detail } ->
    Printf.sprintf "undecodable payload at byte %d: %s" offset detail
  | Missing -> "missing"
  | Structure m -> m
  | Epoch { wal; checkpoint } ->
    Printf.sprintf "log epoch %d is ahead of checkpoint epoch %d" wal checkpoint
  | Gap { expected; found; offset } ->
    Printf.sprintf "LSN gap at byte %d: expected %d, found %d" offset expected
      found
  | Stray_tmp -> "stale temp file from a crashed install"

let describe_damage d =
  Printf.sprintf "%s: %s" (describe_artifact d.d_artifact)
    (describe_kind d.d_kind)

let describe r =
  match r.damage with
  | [] -> Printf.sprintf "clean (%d artifact(s) scanned)" (List.length r.scanned)
  | ds -> String.concat "\n" (List.map describe_damage ds)

let merge a b = { scanned = a.scanned @ b.scanned; damage = a.damage @ b.damage }

(* ---- The WAL ---- *)

let wal_damage ~path ~checkpoint_epoch : damage list =
  let art = Wal_file path in
  if not (Io.exists path) then
    (* a durable directory always carries a log; its absence beside a
       checkpoint means the record suffix since that checkpoint is gone *)
    (match checkpoint_epoch with
     | Some _ -> [ { d_artifact = art; d_kind = Missing } ]
     | None -> [])
  else begin
    let detail = Wal.scan_detail path in
    let out = ref [] in
    let push k = out := { d_artifact = art; d_kind = k } :: !out in
    List.iter
      (fun (e : Wal.entry) ->
        if not e.Wal.e_crc_ok then push (Crc { offset = e.Wal.e_offset })
        else
          match e.Wal.e_record with
          | None ->
            push
              (Undecodable
                 { offset = e.Wal.e_offset; detail = "payload does not decode" })
          | Some _ -> ())
      detail.Wal.d_entries;
    (match detail.Wal.d_torn with
     | Some offset -> push (Torn { offset })
     | None -> ());
    (* structure: the first record must be a readable [Begin], and its
       epoch must not be ahead of the checkpoint's *)
    (match detail.Wal.d_entries with
     | { Wal.e_record = Some (Wal.Begin wal_epoch); _ } :: _ ->
       (match checkpoint_epoch with
        | Some ce when wal_epoch > ce ->
          push (Epoch { wal = wal_epoch; checkpoint = ce })
        | _ -> ())
     | { Wal.e_record = Some _; _ } :: _ ->
       push (Structure "first record is not BEGIN")
     | { Wal.e_record = None; _ } :: _ ->
       (* already reported as Crc/Undecodable above; without a readable
          BEGIN the whole log is unrecoverable, which repair must know *)
       push (Structure "BEGIN record unreadable")
     | [] ->
       if detail.Wal.d_size > 0 then ()
       else push (Structure "empty log (missing BEGIN record)"));
    List.rev !out
  end

(* ---- The checkpoint and feeds (frame level) ---- *)

(* one [Crc] damage per complete frame whose checksum mismatches *)
let crc_damage art frames =
  List.filter_map
    (fun (f : Wal.frame) ->
      if f.Wal.f_crc_ok then None
      else Some { d_artifact = art; d_kind = Crc { offset = f.Wal.f_offset } })
    frames

let checkpoint_damage path : damage list =
  let art = Checkpoint_file path in
  if not (Io.exists path) then []
  else begin
    let data = Io.read_file path in
    let frames, tail = Wal.frames data in
    (* structural validation on top of frame health: damaged view-state
       records are recoverable (the view quarantines), anything else
       [read_bytes] rejects is structural damage *)
    let structure =
      if tail <> None then [ Structure "short file (checkpoints are rename-atomic)" ]
      else
        match Checkpoint.read_bytes ~name:path data with
        | _ -> []
        | exception Checkpoint.Corrupt m -> [ Structure m ]
    in
    crc_damage art frames @ List.map (fun k -> { d_artifact = art; d_kind = k }) structure
  end

let feed_frame_damage path : damage list =
  let art = Feed_file path in
  if not (Io.exists path) then [ { d_artifact = art; d_kind = Missing } ]
  else begin
    let frames, tail = Wal.frames (Io.read_file path) in
    crc_damage art frames
    @ match tail with
      | Some offset -> [ { d_artifact = art; d_kind = Torn { offset } } ]
      | None -> []
  end

(* ---- A whole directory ---- *)

let scrub_dir ?(feeds = []) dir : report =
  if not (Sys.file_exists dir) then { scanned = []; damage = [] }
  else begin
    let ckpt_path = Checkpoint.file ~dir in
    let wal_path = Filename.concat dir "log.wal" in
    let scanned = ref [] in
    let damage = ref [] in
    let scan art ds =
      scanned := art :: !scanned;
      damage := List.rev_append ds !damage
    in
    let checkpoint_epoch = ref None in
    if Io.exists ckpt_path then begin
      scan (Checkpoint_file ckpt_path) (checkpoint_damage ckpt_path);
      (* the epoch, if the header is readable at all (used to judge the
         WAL even when some checkpoint records are damaged) *)
      (match Checkpoint.read ~dir with
       | Some s -> checkpoint_epoch := Some s.Checkpoint.epoch
       | None -> ()
       | exception Checkpoint.Corrupt _ -> ())
    end;
    if Io.exists wal_path || !checkpoint_epoch <> None then
      scan (Wal_file wal_path)
        (wal_damage ~path:wal_path ~checkpoint_epoch:!checkpoint_epoch);
    List.iter (fun p -> scan (Feed_file p) (feed_frame_damage p)) feeds;
    List.iter
      (fun p -> scan (Tmp_file p) [ { d_artifact = Tmp_file p; d_kind = Stray_tmp } ])
      (Io.tmp_files dir);
    { scanned = List.rev !scanned; damage = List.rev !damage }
  end
