(* JSON strings are written into bytes sized exactly, in one pass
   after a counting pass: a query answer is one string of tens of
   kilobytes, and each grow-and-copy of a buffer that size is another
   major-heap allocation.  The escape table is [Escape]'s, which the
   JSON form of a rendered table shares. *)

module Escape = Rfview_relalg.Escape

let blit_jstr s b at =
  Bytes.set b at '"';
  let at = Escape.blit_escaped s b (at + 1) in
  Bytes.set b at '"';
  at + 1

let json_escape s =
  let b = Bytes.create (Escape.escaped_length s) in
  ignore (Escape.blit_escaped s b 0);
  Bytes.unsafe_to_string b

let jstr s =
  let b = Bytes.create (Escape.escaped_length s + 2) in
  ignore (blit_jstr s b 0);
  Bytes.unsafe_to_string b

let jobj fields =
  (* '{', then per field: the key, ':', the value and ',' (or '}') *)
  let size =
    List.fold_left
      (fun n (k, v) -> n + Escape.escaped_length k + 2 + 1 + String.length v + 1)
      1 fields
  in
  let b = Bytes.create (max size 2) in
  Bytes.set b 0 '{';
  let at =
    List.fold_left
      (fun at (k, v) ->
        let at = if at > 1 then (Bytes.set b at ','; at + 1) else at in
        let at = blit_jstr k b at in
        Bytes.set b at ':';
        Bytes.blit_string v 0 b (at + 1) (String.length v);
        at + 1 + String.length v)
      1 fields
  in
  Bytes.set b at '}';
  Bytes.unsafe_to_string b

let jlist items = "[" ^ String.concat "," items ^ "]"
let jint = string_of_int

let split line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let ok_fields fields = jobj (("ok", "true") :: fields)
let error msg = jobj [ ("ok", "false"); ("error", jstr msg) ]

(* Scan for  "name": <value>  at top level; value ends at the next
   unescaped ',' or '}' (strings keep their quotes stripped). *)
let field json name =
  let needle = "\"" ^ name ^ "\":" in
  let nlen = String.length needle and len = String.length json in
  let rec find i =
    if i + nlen > len then None
    else if String.sub json i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    if start < len && json.[start] = '"' then begin
      (* string value: scan to the closing unescaped quote *)
      let b = Buffer.create 16 in
      let rec scan i =
        if i >= len then None
        else
          match json.[i] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when i + 1 < len ->
            (match json.[i + 1] with
             | 'n' -> Buffer.add_char b '\n'
             | 'r' -> Buffer.add_char b '\r'
             | 't' -> Buffer.add_char b '\t'
             | c -> Buffer.add_char b c);
            scan (i + 2)
          | c ->
            Buffer.add_char b c;
            scan (i + 1)
      in
      scan (start + 1)
    end
    else begin
      let stop = ref start in
      while
        !stop < len && json.[!stop] <> ',' && json.[!stop] <> '}'
        && json.[!stop] <> ']'
      do
        incr stop
      done;
      Some (String.trim (String.sub json start (!stop - start)))
    end
