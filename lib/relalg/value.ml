(* SQL values with three-valued NULL semantics.

   Dates are stored as days since 1970-01-01 (proleptic Gregorian), which
   keeps ordering, grouping and date-part extraction cheap. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let is_null = function Null -> true | _ -> false

(* [Array.init n f] filled from the immediate [Null], then in index
   order: see [Row.array_init] for the minor collection this avoids. *)
let array_init n f =
  let a = Array.make n Null in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

let dtype_of = function
  | Null -> None
  | Bool _ -> Some Dtype.Bool
  | Int _ -> Some Dtype.Int
  | Float _ -> Some Dtype.Float
  | String _ -> Some Dtype.String
  | Date _ -> Some Dtype.Date

(* ---- Date arithmetic (proleptic Gregorian calendar) ---- *)

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> type_error "invalid month %d" m

(* Days since 1970-01-01 using the civil-from-days algorithm. *)
let date_of_ymd y m d =
  if m < 1 || m > 12 then type_error "invalid month %d" m;
  if d < 1 || d > days_in_month y m then type_error "invalid day %d" d;
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + d - 1 in
  let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy in
  era * 146097 + doe - 719468

(* The civil date of a day number, handed to [k] with the caller's two
   other arguments: [k] a function with no free variables, so a caller
   that writes the date builds neither a tuple nor a closure. *)
let civil days k b at =
  let z = days + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - (365 * yoe + yoe / 4 - yoe / 100) in
  let mp = (5 * doy + 2) / 153 in
  let d = doy - (153 * mp + 2) / 5 + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  k y m d b at

let ymd_of_date days = civil days (fun y m d _ _ -> (y, m, d)) Bytes.empty 0

let date_year days = let y, _, _ = ymd_of_date days in y
let date_month days = let _, m, _ = ymd_of_date days in m
let date_day days = let _, _, d = ymd_of_date days in d

let parse_date s =
  match String.split_on_char '-' s with
  | [ y; m; d ] ->
    (try Some (date_of_ymd (int_of_string y) (int_of_string m) (int_of_string d))
     with _ -> None)
  | _ -> None

(* ---- Rendering ----

   A value's text is measured ([text_length]) and written ([blit_text])
   where it goes.  An Int, and a float that is integral and below 1e15,
   are digits written straight into the bytes: such a float is exactly
   an int, so "%.1f" is its digits and ".0", with the sign of a negative
   zero kept.  A date of the years 0 to 9999 is "%04d-%02d-%02d", ten
   bytes of fixed-width digits, also written in place.  NULL, a boolean
   and a string are text that already exists.  Only the other floats
   ("%.6g") and dates are formatted by Printf ([printed]): a caller that
   needs both the length and the bytes of such a value formats it once,
   with [to_string].  Helpers are top-level functions of their
   arguments, so a cell costs no closure. *)

(* below 1e15, [f] is integral when it survives the round trip through
   an int: two instructions, where [Float.is_integer] is a C call *)
let is_digit_float f = Float.abs f < 1e15 && Float.of_int (Float.to_int f) = f
let is_neg_zero f = f = 0. && Float.sign_bit f

(* the day numbers of 0000-01-01 and 9999-12-31 *)
let first_plain_day = date_of_ymd 0 1 1
let last_plain_day = date_of_ymd 9999 12 31
let is_plain_date d = d >= first_plain_day && d <= last_plain_day

let printed = function
  | Float f -> not (is_digit_float f)
  | Date d -> not (is_plain_date d)
  | Null | Bool _ | Int _ | String _ -> false

(* Ints are counted and written on the negative side, where [min_int]
   has its digits. *)

(* the number of digits of [n <= 0]: [k] once [n > p], [p = -10^k]
   (an int has at most 19) *)
let rec neg_digits k p n = if k = 19 || n > p then k else neg_digits (k + 1) (p * 10) n

(* the same, the first six counts unrolled: a cell's number is short *)
let neg_length n =
  if n > -10 then 1
  else if n > -100 then 2
  else if n > -1000 then 3
  else if n > -10000 then 4
  else if n > -100000 then 5
  else neg_digits 6 (-1000000) n

(* the length of [string_of_int i] *)
let int_length i = if i < 0 then 1 + neg_length i else neg_length (-i)

(* write the digits of [n <= 0] backwards, the last one at [k] *)
let rec blit_neg_digits b n k =
  let q = n / 10 in
  Bytes.set b k (Char.unsafe_chr (48 + (q * 10) - n));
  if q < 0 then blit_neg_digits b q (k - 1)

(* write [string_of_int i] at [at]; the position after it *)
let blit_int i b at =
  let stop = at + int_length i in
  if i < 0 then Bytes.set b at '-';
  blit_neg_digits b (if i < 0 then i else -i) (stop - 1);
  stop

(* write [0 <= n < 10^k] as exactly [k] digits, zero-padded, at [at] *)
let rec blit_fixed n k b at =
  if k > 0 then begin
    Bytes.set b (at + k - 1) (Char.unsafe_chr (48 + (n mod 10)));
    blit_fixed (n / 10) (k - 1) b at
  end

(* write "yyyy-mm-dd" of a year in 0 .. 9999 at [at]; the position
   after it *)
let blit_ymd y m d b at =
  blit_fixed y 4 b at;
  Bytes.set b (at + 4) '-';
  blit_fixed m 2 b (at + 5);
  Bytes.set b (at + 7) '-';
  blit_fixed d 2 b (at + 8);
  at + 10

let blit_date days b at = civil days blit_ymd b at

let date_to_string days =
  if is_plain_date days then begin
    let b = Bytes.create 10 in
    ignore (blit_date days b 0);
    Bytes.unsafe_to_string b
  end
  else
    let y, m, d = ymd_of_date days in
    Printf.sprintf "%04d-%02d-%02d" y m d

(* The text of a value that is not written as digits: an Int never
   reaches here, and a float or a date only when it is [printed]. *)
let plain_text = function
  | Null -> "NULL"
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"
  | Float f -> Printf.sprintf "%.6g" f
  | String s -> s
  | Date d -> date_to_string d
  | Int _ -> assert false

let text_length = function
  | Int i -> int_length i
  | Float f when is_digit_float f -> if is_neg_zero f then 4 else int_length (int_of_float f) + 2
  | Date d when is_plain_date d -> 10
  | v -> String.length (plain_text v)

let blit_text v b at =
  match v with
  | Int i -> blit_int i b at
  | Float f when is_digit_float f ->
    if is_neg_zero f then begin
      Bytes.blit_string "-0.0" 0 b at 4;
      at + 4
    end
    else begin
      let at = blit_int (int_of_float f) b at in
      Bytes.set b at '.';
      Bytes.set b (at + 1) '0';
      at + 2
    end
  | Date d when is_plain_date d -> blit_date d b at
  | v ->
    let s = plain_text v in
    Bytes.blit_string s 0 b at (String.length s);
    at + String.length s

let to_string v =
  match v with
  | Int _ | Float _ | Date _ when not (printed v) ->
    let b = Bytes.create (text_length v) in
    ignore (blit_text v b 0);
    Bytes.unsafe_to_string b
  | v -> plain_text v

(* SQL-literal rendering: strings quoted, dates as DATE '...'. *)
let to_sql = function
  | String s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | Date d -> Printf.sprintf "DATE '%s'" (date_to_string d)
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* ---- Coercion ---- *)

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected numeric value, got %s" (to_string v)

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | v -> type_error "expected integer value, got %s" (to_string v)

(* ---- Comparison ----

   [compare] is a total order used for sorting and grouping: NULL sorts
   first; numerics compare across INT/FLOAT. [sql_compare] implements SQL
   comparison semantics: any comparison with NULL is unknown (None). *)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Date _ -> 3
  | String _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | a, b -> Int.compare (rank a) (rank b)

let sql_compare a b =
  match a, b with
  | Null, _ | _, Null -> None
  | _ -> Some (compare a b)

let equal a b = compare a b = 0

(* Numerics hash as their float image, so INT and FLOAT of equal value
   collide; an integral image in the int range hashes as that int, and
   an INT below 2^53 in magnitude is its own exact image (no boxing). *)
let hash_float f =
  if Float.is_integer f && Float.abs f < 0x1p62 then Hashtbl.hash (int_of_float f)
  else Hashtbl.hash f

let hash = function
  | Null -> 0
  | Bool b -> Hashtbl.hash b
  | Int i when i > -(1 lsl 53) && i < 1 lsl 53 -> Hashtbl.hash i
  | Int i -> hash_float (float_of_int i)
  | Float f -> hash_float f
  | String s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d, 'd')

(* ---- Arithmetic (NULL-propagating) ---- *)

let arith name int_op float_op a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (float_op (to_float a) (to_float b))
  | Date d, Int i when name = "+" -> Date (d + i)
  | Date d, Int i when name = "-" -> Date (d - i)
  | Date x, Date y when name = "-" -> Int (x - y)
  | _ -> type_error "cannot apply %s to %s and %s" name (to_string a) (to_string b)

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

let div a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int _, Int 0 -> type_error "division by zero"
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a /. to_float b)
  | _ -> type_error "cannot divide %s by %s" (to_string a) (to_string b)

(* Floored modulo: the result has the sign of the modulus, so residue
   classes stay consistent on negative (header) positions. *)
let floored_mod x m =
  if m = 0 then type_error "MOD by zero";
  let r = x mod m in
  if (r < 0 && m > 0) || (r > 0 && m < 0) then r + m else r

let modulo a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (floored_mod x y)
  | (Int _ | Float _), (Int _ | Float _) ->
    Float (Float.rem (to_float a) (to_float b))
  | _ -> type_error "cannot apply MOD to %s and %s" (to_string a) (to_string b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> type_error "cannot negate %s" (to_string v)
