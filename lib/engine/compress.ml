(* Record-level compression for WAL batches and replication feeds.

   A dependency-free LZSS: the output is a stream of 8-token groups,
   each prefixed by a flag byte (bit i set = token i is a back
   reference).  A literal token is one byte; a reference token is two
   bytes packing a 12-bit distance (1..4096) and a 4-bit length
   (MIN_MATCH..MIN_MATCH+15).  Matching uses a hash of the next three
   bytes into chained candidate positions, bounded so compression stays
   linear on pathological inputs.

   The format is internal — both ends of every stream are this module —
   so there is no header; the expected raw length travels in the
   enclosing record and is verified on decompression. *)

exception Corrupt of string

let window = 4096
let min_match = 3
let max_match = min_match + 15
let hash_bits = 13
let hash_size = 1 lsl hash_bits
let max_chain = 32

let hash3 (s : string) i =
  let a = Char.code s.[i]
  and b = Char.code s.[i + 1]
  and c = Char.code s.[i + 2] in
  ((a lsl 8) lxor (b lsl 4) lxor c) land (hash_size - 1)

(* Hash chains: head.(h) = most recent position with hash h, -1 none;
   prev.(pos mod window) = previous position with the same hash.  One
   pair per domain, emptied at each call: a frame then allocates no
   12k-word tables on the major heap. *)
let chains =
  Domain.DLS.new_key (fun () -> (Array.make hash_size (-1), Array.make window (-1)))

let compress (src : string) : string =
  let n = String.length src in
  let out = Buffer.create (n / 2 + 16) in
  let head, prev = Domain.DLS.get chains in
  Array.fill head 0 hash_size (-1);
  Array.fill prev 0 window (-1);
  let group = Buffer.create 17 in
  let group_len = ref 0 in
  let flag_byte = ref 0 in
  let flush_group () =
    if !group_len > 0 then begin
      Buffer.add_char out (Char.chr !flag_byte);
      Buffer.add_buffer out group;
      Buffer.clear group;
      group_len := 0;
      flag_byte := 0
    end
  in
  let add_token ~is_ref f =
    if is_ref then flag_byte := !flag_byte lor (1 lsl !group_len);
    f group;
    incr group_len;
    if !group_len = 8 then flush_group ()
  in
  let insert pos =
    if pos + min_match <= n then begin
      let h = hash3 src pos in
      prev.(pos land (window - 1)) <- head.(h);
      head.(h) <- pos
    end
  in
  let match_len a b limit =
    (* length of the common prefix of src[a..] and src[b..], capped;
       the caller keeps [b + limit <= n] and [a < b] *)
    let l = ref 0 in
    while !l < limit && String.unsafe_get src (a + !l) = String.unsafe_get src (b + !l) do
      incr l
    done;
    !l
  in
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    let best_len = ref 0 in
    let best_dist = ref 0 in
    if pos + min_match <= n then begin
      let limit = min max_match (n - pos) in
      let cand = ref head.(hash3 src pos) in
      let chain = ref 0 in
      (* A candidate replaces the best only when strictly longer, so
         the walk stops once the best reaches [limit], and a candidate
         whose byte at [!best_len] differs is not measured: the same
         choices, fewer comparisons. *)
      while !cand >= 0 && pos - !cand <= window && !chain < max_chain && !best_len < limit do
        let c = !cand in
        if c < pos && String.unsafe_get src (c + !best_len) = String.unsafe_get src (pos + !best_len)
        then begin
          let l = match_len c pos limit in
          if l > !best_len then begin
            best_len := l;
            best_dist := pos - c
          end
        end;
        cand := prev.(c land (window - 1));
        incr chain
      done
    end;
    if !best_len >= min_match then begin
      let len = !best_len and dist = !best_dist in
      (* 12-bit distance-1, 4-bit length-min_match *)
      let packed = ((dist - 1) lsl 4) lor (len - min_match) in
      add_token ~is_ref:true (fun g ->
          Buffer.add_char g (Char.chr (packed lsr 8));
          Buffer.add_char g (Char.chr (packed land 0xFF)));
      for k = 0 to len - 1 do insert (pos + k) done;
      i := pos + len
    end
    else begin
      add_token ~is_ref:false (fun g -> Buffer.add_char g src.[pos]);
      insert pos;
      i := pos + 1
    end
  done;
  flush_group ();
  Buffer.contents out

let decompress (src : string) ~expected : string =
  let n = String.length src in
  (* a two-byte reference token expands to at most [max_match] bytes:
     a larger [expected] is a hostile length, not one to allocate *)
  if expected < 0 || expected > (n + 1) / 2 * max_match then
    raise (Corrupt (Printf.sprintf "%d bytes cannot expand to %d" n expected));
  let out = Buffer.create expected in
  let i = ref 0 in
  (try
     while !i < n && Buffer.length out < expected do
       let flags = Char.code src.[!i] in
       incr i;
       let t = ref 0 in
       while !t < 8 && !i < n && Buffer.length out < expected do
         if flags land (1 lsl !t) <> 0 then begin
           if !i + 1 >= n then raise (Corrupt "truncated back reference");
           let hi = Char.code src.[!i] and lo = Char.code src.[!i + 1] in
           i := !i + 2;
           let packed = (hi lsl 8) lor lo in
           let dist = (packed lsr 4) + 1 in
           let len = (packed land 0xF) + min_match in
           let start = Buffer.length out - dist in
           if start < 0 then raise (Corrupt "back reference before start");
           (* the reference may overlap the output tail: copy bytewise *)
           for k = 0 to len - 1 do
             Buffer.add_char out (Buffer.nth out (start + k))
           done
         end
         else begin
           Buffer.add_char out src.[!i];
           incr i
         end;
         incr t
       done
     done
   with Invalid_argument _ -> raise (Corrupt "malformed token stream"));
  if Buffer.length out <> expected then
    raise
      (Corrupt
         (Printf.sprintf "decompressed %d bytes, expected %d"
            (Buffer.length out) expected));
  Buffer.contents out

(* ---- Length-prefixed packing for codec payloads ----

   [pack] writes [raw_len ∥ flag ∥ data]: flag 'z' when compression won,
   'r' (raw) otherwise — small or incompressible payloads cost one byte,
   never a blowup.  Lengths are u64 LE like every Wal.Codec integer. *)

let put_int buf (i : int) =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Buffer.add_bytes buf b

let pack buf (s : string) =
  let n = String.length s in
  let z = if n >= 64 then compress s else s in
  if String.length z < n then begin
    put_int buf n;
    Buffer.add_char buf 'z';
    put_int buf (String.length z);
    Buffer.add_string buf z
  end
  else begin
    put_int buf n;
    Buffer.add_char buf 'r';
    put_int buf n;
    Buffer.add_string buf s
  end

(* [unpack] reads what [pack] wrote via caller-supplied primitives, so
   it composes with any reader (Wal.Codec here). *)
let unpack ~get_int ~get_char ~get_bytes =
  let raw_len = get_int () in
  if raw_len < 0 then raise (Corrupt "negative packed length");
  let flag = get_char () in
  let stored = get_int () in
  if stored < 0 then raise (Corrupt "negative stored length");
  let data = get_bytes stored in
  match flag with
  | 'r' ->
    if String.length data <> raw_len then raise (Corrupt "raw length mismatch");
    data
  | 'z' -> decompress data ~expected:raw_len
  | c -> raise (Corrupt (Printf.sprintf "bad pack flag %C" c))

let () =
  Printexc.register_printer (function
    | Corrupt m -> Some (Printf.sprintf "decompression error: %s" m)
    | _ -> None)
