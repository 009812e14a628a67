(* Decoding the server's response lines.

   Every response is one flat JSON object on one line
   ([{"ok":true,"lsn":12,"rows":20,"data":"+---+..."}]); a query's
   [data] field carries the rendered ASCII table.  The decoder is
   strict: anything it does not recognise is an error, which the
   benchmark counts as a failed request rather than guessing. *)

type t = (string * string) list
(* field name -> value; strings unescaped, other values as written *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let parse line : (t, string) result =
  let len = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < len then line.[!pos] else '\000' in
  let skip_ws () =
    while !pos < len && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then malformed "expected '%c' at byte %d" c !pos;
    incr pos
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      if !pos >= len then malformed "unterminated string";
      let c = line.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= len then malformed "dangling escape";
        let e = line.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | '"' | '\\' | '/' -> Buffer.add_char b e
         | 'u' ->
           if !pos + 4 > len then malformed "short \\u escape";
           (match int_of_string_opt ("0x" ^ String.sub line !pos 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | _ -> malformed "unsupported \\u escape");
           pos := !pos + 4
         | _ -> malformed "bad escape \\%c" e);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  (* numbers, true/false and flat lists are kept as their source text *)
  let bare () =
    skip_ws ();
    let start = !pos in
    if peek () = '[' then begin
      while !pos < len && line.[!pos] <> ']' do
        incr pos
      done;
      if !pos >= len then malformed "unterminated list";
      incr pos
    end
    else
      while
        !pos < len
        && (match line.[!pos] with
            | ',' | '}' | ' ' -> false
            | _ -> true)
      do
        incr pos
      done;
    if !pos = start then malformed "missing value at byte %d" start;
    String.sub line start (!pos - start)
  in
  match
    expect '{';
    skip_ws ();
    let fields =
      if peek () = '}' then []
      else begin
        let rec members acc =
          let k = string_lit () in
          expect ':';
          skip_ws ();
          let v = if peek () = '"' then string_lit () else bare () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            skip_ws ();
            members ((k, v) :: acc)
          | _ -> List.rev ((k, v) :: acc)
        in
        members []
      end
    in
    expect '}';
    skip_ws ();
    if !pos <> len then malformed "trailing bytes at %d" !pos;
    fields
  with
  | fields -> Ok fields
  | exception Malformed m -> Error m

let field (r : t) name = List.assoc_opt name r
let ok r = field r "ok" = Some "true"
let int_field r name = Option.bind (field r name) int_of_string_opt

(* The [Relation.render] table: a rule line, the header row, a rule,
   one line per row, a closing rule.  Returns the header names and each
   row's cells, trimmed. *)
let decode_table text : (string array * string array list, string) result =
  let cells line =
    let parts = String.split_on_char '|' line in
    (* a row line starts and ends with '|', so the first and last parts
       are empty *)
    match parts with
    | "" :: rest ->
      (match List.rev rest with
       | "" :: inner -> Some (Array.of_list (List.rev_map String.trim inner))
       | _ -> None)
    | _ -> None
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let is_rule l = String.length l > 0 && l.[0] = '+' in
  match lines with
  | r1 :: header :: r2 :: rest when is_rule r1 && is_rule r2 ->
    (match cells header, List.rev rest with
     | Some names, last :: body_rev when is_rule last ->
       let ncols = Array.length names in
       let rec rows acc = function
         | [] -> Ok (names, acc)
         | l :: more ->
           (match cells l with
            | Some c when Array.length c = ncols -> rows (c :: acc) more
            | _ -> Error ("bad table row: " ^ l))
       in
       rows [] body_rev
     | _ -> Error "table has no header or closing rule")
  | _ -> Error "not a rendered table"
