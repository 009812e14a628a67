(* The VFS seam under every on-disk artifact (WAL, checkpoints,
   replication feeds).  See io.mli for the contract.

   Two layers of fault simulation compose here:

   - the [io.*] Fault sites fire per policy and surface as a typed
     [Io_error] (kind chosen by [Sim.set_error_kind]), so the chaos
     harnesses and the --inject grammar drive disk faults exactly like
     the engine's logical sites;
   - the [Sim] state models the disk itself: a byte budget whose
     exhaustion produces a torn prefix plus ENOSPC (how a full disk
     actually fails), seeded bit flips (silent media corruption), and
     durable-length tracking so [Sim.crash] loses unsynced bytes.

   Durable-length tracking is always on (a hashtable update per fsync/
   rename/truncate); budget and flips are inert unless set. *)

type error_kind = Enospc | Eio

exception
  Io_error of {
    op : string;
    path : string;
    kind : error_kind;
    detail : string;
  }

let describe_kind = function Enospc -> "ENOSPC" | Eio -> "EIO"

let io_error ~op ~path ~kind fmt =
  Format.kasprintf (fun detail -> raise (Io_error { op; path; kind; detail })) fmt

let kind_of_unix = function Unix.ENOSPC -> Enospc | _ -> Eio

let site_write = Fault.define "io.write"
let site_fsync = Fault.define "io.fsync"
let site_rename = Fault.define "io.rename"
let site_truncate = Fault.define "io.truncate"

(* ---- The simulated disk ---- *)

module Sim = struct
  let budget_ref : int option ref = ref None
  let injected_kind = ref Eio
  let flip_ref : (float * int64 ref) option ref = ref None
  let flip_count = ref 0

  (* path -> last fsynced length.  Entries appear when a path first
     passes through [openf]/[rename]; [crash] truncates back to them. *)
  let durable : (string, int) Hashtbl.t = Hashtbl.create 16

  let set_budget b = budget_ref := b
  let budget () = !budget_ref
  let set_error_kind k = injected_kind := k
  let set_flip ~p ~seed = flip_ref := Some (p, ref (Int64.of_int seed))
  let clear_flip () = flip_ref := None
  let flips () = !flip_count

  (* SplitMix64, same generator as Fault's probability policy: flip
     decisions must replay run-to-run. *)
  let next_int64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let next_float state =
    Int64.to_float (Int64.shift_right_logical (next_int64 state) 11)
    /. 9007199254740992. (* 2^53 *)

  let maybe_flip (s : string) : string =
    match !flip_ref with
    | Some (p, state) when String.length s > 0 && next_float state < p ->
      let r = Int64.to_int (Int64.shift_right_logical (next_int64 state) 2) in
      let bit = r mod (String.length s * 8) in
      let b = Bytes.of_string s in
      Bytes.set b (bit / 8)
        (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
      incr flip_count;
      Bytes.unsafe_to_string b
    | _ -> s

  let note_durable path len = Hashtbl.replace durable path len

  let note_open path len =
    if not (Hashtbl.mem durable path) then Hashtbl.replace durable path len

  let note_truncate path len =
    match Hashtbl.find_opt durable path with
    | Some d when d > len -> Hashtbl.replace durable path len
    | _ -> ()

  let note_rename src dst =
    (match Hashtbl.find_opt durable src with
     | Some d -> Hashtbl.replace durable dst d
     | None ->
       (match (Unix.stat dst).Unix.st_size with
        | n -> Hashtbl.replace durable dst n
        | exception _ -> ()));
    Hashtbl.remove durable src

  let note_remove path = Hashtbl.remove durable path

  let crash () =
    Hashtbl.iter
      (fun path dlen ->
        match (Unix.stat path).Unix.st_size with
        | n when n > dlen ->
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () -> Unix.ftruncate fd dlen)
        | _ -> ()
        | exception Unix.Unix_error _ -> ())
      durable

  let reset () =
    budget_ref := None;
    injected_kind := Eio;
    flip_ref := None;
    flip_count := 0;
    Hashtbl.reset durable
end

(* An armed io site surfaces as the typed error, not a bare
   [Fault.Injected]: callers of the seam handle storage failures in one
   shape whether the disk or the injector produced them. *)
let pass site ~op ~path =
  try Fault.hit site
  with Fault.Injected s ->
    io_error ~op ~path ~kind:!Sim.injected_kind "injected fault at %s" s

(* ---- File handles ---- *)

type file = { path : string; fd : Unix.file_descr }

type mode = Create_trunc | Append | Write

let path_of f = f.path

let openf path ~mode =
  let flags =
    match mode with
    | Create_trunc -> [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
    | Append -> [ Unix.O_WRONLY; Unix.O_APPEND ]
    | Write -> [ Unix.O_WRONLY ]
  in
  match Unix.openfile path flags 0o644 with
  | fd ->
    (match mode with
     | Create_trunc -> Sim.note_open path 0
     | Append | Write -> Sim.note_open path (Unix.fstat fd).Unix.st_size);
    { path; fd }
  | exception Unix.Unix_error (e, _, _) ->
    io_error ~op:"open" ~path ~kind:(kind_of_unix e) "%s" (Unix.error_message e)

let really_write fd (s : string) =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let write f (s : string) =
  pass site_write ~op:"write" ~path:f.path;
  let s = Sim.maybe_flip s in
  let wrap e = io_error ~op:"write" ~path:f.path ~kind:(kind_of_unix e) "%s" (Unix.error_message e) in
  match !Sim.budget_ref with
  | Some b when b < String.length s ->
    (* a full disk lands the affordable prefix, then fails: exactly the
       torn write the framed artifacts must survive *)
    (try really_write f.fd (String.sub s 0 b) with Unix.Unix_error (e, _, _) -> wrap e);
    Sim.budget_ref := Some 0;
    io_error ~op:"write" ~path:f.path ~kind:Enospc
      "disk full: %d of %d byte(s) written" b (String.length s)
  | budget ->
    (match budget with
     | Some b -> Sim.budget_ref := Some (b - String.length s)
     | None -> ());
    (try really_write f.fd s with Unix.Unix_error (e, _, _) -> wrap e)

let pwrite f ~at (s : string) =
  pass site_write ~op:"write" ~path:f.path;
  try
    ignore (Unix.lseek f.fd at Unix.SEEK_SET);
    really_write f.fd s
  with Unix.Unix_error (e, _, _) ->
    io_error ~op:"write" ~path:f.path ~kind:(kind_of_unix e) "%s" (Unix.error_message e)

let size f = (Unix.fstat f.fd).Unix.st_size

let fsync f =
  pass site_fsync ~op:"fsync" ~path:f.path;
  (try Unix.fsync f.fd
   with Unix.Unix_error (e, _, _) ->
     io_error ~op:"fsync" ~path:f.path ~kind:(kind_of_unix e) "%s" (Unix.error_message e));
  Sim.note_durable f.path (size f)

let ftruncate f len =
  pass site_truncate ~op:"truncate" ~path:f.path;
  (try Unix.ftruncate f.fd len
   with Unix.Unix_error (e, _, _) ->
     io_error ~op:"truncate" ~path:f.path ~kind:(kind_of_unix e) "%s" (Unix.error_message e));
  Sim.note_truncate f.path len

let seek f pos =
  try ignore (Unix.lseek f.fd pos Unix.SEEK_SET)
  with Unix.Unix_error (e, _, _) ->
    io_error ~op:"seek" ~path:f.path ~kind:(kind_of_unix e) "%s" (Unix.error_message e)

let close f = try Unix.close f.fd with Unix.Unix_error _ -> ()

(* ---- Path operations ---- *)

let rename src dst =
  pass site_rename ~op:"rename" ~path:dst;
  (try Unix.rename src dst
   with Unix.Unix_error (e, _, _) ->
     io_error ~op:"rename" ~path:dst ~kind:(kind_of_unix e) "%s" (Unix.error_message e));
  Sim.note_rename src dst

let remove path =
  (try Sys.remove path with Sys_error _ -> ());
  Sim.note_remove path

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with _ -> ());
    (try Unix.close fd with _ -> ())
  | exception _ -> ()

let install path fill =
  let tmp = path ^ ".tmp" in
  let f = openf tmp ~mode:Create_trunc in
  (try
     fill f;
     fsync f;
     close f
   with e ->
     close f;
     remove tmp;
     raise e);
  rename tmp path;
  fsync_dir (Filename.dirname path)

let tmp_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter (fun e -> Filename.check_suffix e ".tmp")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
    |> List.filter (fun p -> not (Sys.is_directory p))
  | exception Sys_error _ -> []

let exists = Sys.file_exists

let file_size path =
  match (Unix.stat path).Unix.st_size with n -> n | exception _ -> 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  Printexc.register_printer (function
    | Io_error { op; path; kind; detail } ->
      Some (Printf.sprintf "I/O error (%s): %s %s: %s" (describe_kind kind) op path detail)
    | _ -> None)
