(* Seeded request streams.  The seed reaches only these generators; the
   server sees nothing but the SQL lines they produce.  Every stream is
   a pure function of the seed and of the requests drawn before it, so
   the same seed yields byte-identical protocol lines however fast the
   server answers. *)

module Prng = Rfview_workload.Prng

type request =
  | Lookup of { grp : int; lo : int; hi : int }  (** 20-row range of v_cum *)
  | Window of { grp : int }  (** Table 1 over one partition of seq *)
  | Derive  (** Table 2: y = (4,1) from matseq by MaxOA, union form *)
  | Batch of Data.edit list  (** one group commit *)
  | Exec of Data.edit  (** one auto-committed statement *)

let class_name = function
  | Lookup _ -> "lookup"
  | Window _ -> "window"
  | Derive -> "derive"
  | Batch _ -> "batch"
  | Exec _ -> "exec"

let query_sql = function
  | Lookup { grp; lo; hi } -> Data.lookup_sql ~grp ~lo ~hi
  | Window { grp } -> Data.window_sql grp
  | Derive -> Data.derive_sql
  | Batch _ | Exec _ -> invalid_arg "Gen.query_sql: not a read"

(* The protocol lines of one request. *)
let lines = function
  | (Lookup _ | Window _ | Derive) as r -> [ "query " ^ query_sql r ]
  | Batch edits ->
    Printf.sprintf "batch %d" (List.length edits) :: List.map Data.edit_sql edits
  | Exec e -> [ "exec " ^ Data.edit_sql e ]

let lookup_rows = 20

let lookup prng (data : Data.t) =
  let grp = Prng.int prng Data.groups in
  let r = Prng.int prng (Data.size data grp - lookup_rows + 1) in
  let pos = data.(grp).Data.pos in
  Lookup { grp; lo = pos.(r); hi = pos.(r + lookup_rows - 1) }

(* report-read: 70% lookups, 25% windows, 5% derivations over the
   unchanging table. *)
let report_read ~seed (data : Data.t) =
  let prng = Prng.create ~seed:(seed + 101) in
  fun () ->
    match Prng.int prng 100 with
    | x when x < 70 -> lookup prng data
    | x when x < 95 -> Window { grp = Prng.int prng Data.groups }
    | _ -> Derive

(* ---- writes ---- *)

type kind = K_insert | K_update | K_delete

(* 6 inserts, 8 updates and 6 deletes: table size stays level *)
let kinds_per_block = 20

let block prng =
  let a =
    Array.init kinds_per_block (fun i ->
        if i < 6 then K_insert else if i < 14 then K_update else K_delete)
  in
  Prng.shuffle prng a;
  a

(* Draw one edit in one of [groups] against [data], touching no key in
   [touched], apply it to [data], and mark its key.  Inserts land midway
   between two neighbouring rows, so (grp, pos) stays unique. *)
let draw prng ~groups (data : Data.t) touched kind =
  let group () = groups.(Prng.int prng (Array.length groups)) in
  let rec pick_existing () =
    let grp = group () in
    let i = Prng.int prng (Data.size data grp) in
    let pos = data.(grp).Data.pos.(i) in
    if Hashtbl.mem touched (grp, pos) then pick_existing ()
    else (grp, pos, data.(grp).Data.vals.(i))
  in
  let edit =
    match kind with
    | K_insert ->
      let grp = group () in
      let pos = data.(grp).Data.pos in
      let n = Array.length pos in
      let rec gap i tries =
        if tries = n then invalid_arg "Gen.draw: partition has no free position"
        else if pos.(i + 1) - pos.(i) >= 2 then i
        else gap ((i + 1) mod (n - 1)) (tries + 1)
      in
      let i = gap (Prng.int prng (n - 1)) 0 in
      Data.Insert
        { grp; pos = pos.(i) + ((pos.(i + 1) - pos.(i)) / 2); v = Data.int_value prng }
    | K_update ->
      let grp, pos, old_v = pick_existing () in
      let rec fresh () =
        let v = Data.int_value prng in
        if v = old_v then fresh () else v
      in
      Data.Update { grp; pos; old_v; v = fresh () }
    | K_delete ->
      let grp, pos, old_v = pick_existing () in
      Data.Delete { grp; pos; old_v }
  in
  (match edit with
   | Data.Insert { grp; pos; _ } | Update { grp; pos; _ } | Delete { grp; pos; _ } ->
     Hashtbl.replace touched (grp, pos) ());
  Data.apply data edit;
  edit

let all_groups = Array.init Data.groups Fun.id

(* etl-batch: every request is one 20-statement batch; no key is
   touched twice within a batch.  Loader [loader] of [loaders] owns the
   partitions [g] with [g mod loaders = loader], so concurrent loaders
   never touch the same rows and commit order between them does not
   matter.  [data] advances with the stream. *)
let etl_batch ~seed ~loader ~loaders (data : Data.t) =
  let prng = Prng.create ~seed:(seed + 202 + (1000 * loader)) in
  let groups = Array.of_list (List.filter (fun g -> g mod loaders = loader) (Array.to_list all_groups)) in
  fun () ->
    let touched = Hashtbl.create 32 in
    Batch (Array.to_list (Array.map (draw prng ~groups data touched) (block prng)))

(* trickle-mixed writer: the same 6/8/6 mix, one statement at a time. *)
let trickle_writer ~seed (data : Data.t) =
  let prng = Prng.create ~seed:(seed + 303) in
  let pending = ref [] in
  fun () ->
    if !pending = [] then pending := Array.to_list (block prng);
    match !pending with
    | kind :: rest ->
      pending := rest;
      Exec (draw prng ~groups:all_groups data (Hashtbl.create 1) kind)
    | [] -> assert false

(* trickle-mixed reader: lookup ranges drawn over the initial table, so
   the reader's stream does not depend on how far the writer got. *)
let trickle_reader ~seed (initial : Data.t) =
  let prng = Prng.create ~seed:(seed + 404) in
  fun () -> lookup prng initial
