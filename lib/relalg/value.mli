(** SQL values with three-valued NULL semantics.

    Dates are stored as days since 1970-01-01 (proleptic Gregorian), so
    ordering, grouping and date-part extraction stay cheap. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int  (** days since 1970-01-01 *)

exception Type_error of string

(** Raise {!Type_error} with a formatted message. *)
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

val is_null : t -> bool

(** [array_init n f] is [Array.init n f], filled from [Null] and then in
    index order, so a long array of fresh values never forces a minor
    collection (see {!Row.array_init}). *)
val array_init : int -> (int -> t) -> t array

(** The type of a non-NULL value; [None] for NULL. *)
val dtype_of : t -> Dtype.t option

(** {1 Date arithmetic (proleptic Gregorian)} *)

val is_leap_year : int -> bool
val days_in_month : int -> int -> int

(** [date_of_ymd y m d] is the day number of the given civil date.
    @raise Type_error on invalid month/day. *)
val date_of_ymd : int -> int -> int -> int

val ymd_of_date : int -> int * int * int
val date_year : int -> int
val date_month : int -> int
val date_day : int -> int

(** Parse an ISO [yyyy-mm-dd] date. *)
val parse_date : string -> int option

val date_to_string : int -> string

(** {1 Rendering}

    A value's text: NULL, TRUE/FALSE, an Int's digits, a float's ["%.1f"]
    when it is integral and below 1e15 (["-0.0"] for a negative zero)
    and its ["%.6g"] otherwise, a string as itself, a date as
    [yyyy-mm-dd]. *)

(** Whether the text of a value is formatted by [Printf]: a float that
    is not integral below 1e15, or a date outside the years 0 to 9999.
    Every other value is measured and written without allocating. *)
val printed : t -> bool

(** The length of the text of a value.  Allocates nothing unless the
    value is {!printed}, which it formats. *)
val text_length : t -> int

(** [blit_text v b at] writes the text of [v] into [b] at [at] and
    returns the position after it, with the same allocation as
    {!text_length}: a caller that needs both for a {!printed} value
    formats it once, with {!to_string}. *)
val blit_text : t -> Bytes.t -> int -> int

val to_string : t -> string

(** SQL-literal rendering: strings quoted and escaped, dates as
    [DATE '...']. *)
val to_sql : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Coercion}

    @raise Type_error on incompatible values. *)

val to_float : t -> float
val to_int : t -> int

(** {1 Comparison}

    {!compare} is the total order used for sorting and grouping: NULL
    sorts first, numerics compare across INT/FLOAT.  {!sql_compare}
    implements SQL comparison: any comparison with NULL is unknown
    ([None]). *)

val compare : t -> t -> int
val sql_compare : t -> t -> int option
val equal : t -> t -> bool

(** Hash consistent with {!equal} (INT and FLOAT of equal value collide). *)
val hash : t -> int

(** {1 Arithmetic (NULL-propagating)}

    INT op INT stays INT; mixed numerics widen to FLOAT; DATE supports
    [+ INT], [- INT] and DATE difference.
    @raise Type_error on incompatible operands. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

(** Floored modulo for integers: the result has the sign of the modulus,
    keeping residue classes consistent on negative (header) positions. *)
val modulo : t -> t -> t

(** [floored_mod x m] on raw integers. @raise Type_error if [m = 0]. *)
val floored_mod : int -> int -> int

val neg : t -> t
