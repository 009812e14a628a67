(* JSON string escaping: the one escape table of the library.  The
   wire format's strings and the JSON form of a rendered table are both
   escaped here, so a table written into a response line and the same
   table escaped after rendering are the same bytes. *)

(* [extra.[c]]: how many bytes escaping [c] adds -- 0 for a byte written
   as itself, 1 for a two-character escape ("\\", "\"", "\n", "\r",
   "\t"), 5 for another control character, written "\u00XX". *)
let extra =
  String.init 256 (fun i ->
      match Char.chr i with
      | '"' | '\\' | '\n' | '\r' | '\t' -> '\001'
      | _ when i < 0x20 -> '\005'
      | _ -> '\000')

let escaped_length s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    n := !n + Char.code (String.unsafe_get extra (Char.code (String.unsafe_get s i)))
  done;
  !n

(* Write the escape of [c] at [at]; the position after it. *)
let blit_escape c b at =
  Bytes.set b at '\\';
  match c with
  | '"' | '\\' -> Bytes.set b (at + 1) c; at + 2
  | '\n' -> Bytes.set b (at + 1) 'n'; at + 2
  | '\r' -> Bytes.set b (at + 1) 'r'; at + 2
  | '\t' -> Bytes.set b (at + 1) 't'; at + 2
  | c ->
    Bytes.blit_string "u00" 0 b (at + 1) 3;
    Bytes.set b (at + 4) "0123456789abcdef".[Char.code c lsr 4];
    Bytes.set b (at + 5) "0123456789abcdef".[Char.code c land 15];
    at + 6

(* Runs that need no escape are copied with one blit. *)
let blit_escaped s b at =
  let at = ref at and run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if String.unsafe_get extra (Char.code c) <> '\000' then begin
      Bytes.blit_string s !run b !at (i - !run);
      at := blit_escape c b (!at + i - !run);
      run := i + 1
    end
  done;
  Bytes.blit_string s !run b !at (String.length s - !run);
  !at + String.length s - !run
