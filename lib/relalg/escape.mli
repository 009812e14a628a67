(** JSON string escaping, shared by the wire format ([Wire]) and the
    JSON form of a rendered table ({!Relation.table}): one escape table.

    A byte is written as itself except ["\""], ["\\"], newline, carriage
    return and tab (two-character escapes) and the other control bytes
    below 0x20 (["\u00XX"], lower-case hex). *)

(** The length of the escape of a string. *)
val escaped_length : string -> int

(** [blit_escaped s b at] writes the escape of [s] into [b] at [at]
    and returns the position after it. *)
val blit_escaped : string -> Bytes.t -> int -> int
