(** Aggregation functions over SQL values.

    Each aggregate exposes an accumulator interface besides one-shot
    folding.  SUM/COUNT/AVG accumulators are {e invertible} ({!remove}
    undoes {!add}) — the property behind the paper's pipelined window
    computation (§2.2); MIN/MAX are not and use other window strategies.

    SQL semantics: NULL inputs are ignored; an aggregate over an empty
    (or all-NULL) input is NULL, except COUNT which is 0. *)

type kind =
  | Sum
  | Count
  | Avg
  | Min
  | Max

val kind_name : kind -> string

(** Case-insensitive. *)
val kind_of_name : string -> kind option

val invertible : kind -> bool

(** The order MIN and MAX pick by: [Value.compare], except that -0.0
    lies below 0.0 and below an Int 0, as in [Float.min]/[Float.max]. *)
val compare_extremum : Value.t -> Value.t -> int

(** A mutable accumulator. *)
type state

val create : kind -> state
val add : state -> Value.t -> unit

(** Undo a prior {!add}.
    @raise Invalid_argument for MIN/MAX. *)
val remove : state -> Value.t -> unit

val result : state -> Value.t

val of_seq : kind -> Value.t Seq.t -> Value.t
val of_list : kind -> Value.t list -> Value.t

(** Result type given the input type: COUNT yields INT, AVG yields
    FLOAT, SUM/MIN/MAX preserve the input type. *)
val result_type : kind -> Dtype.t option -> Dtype.t option
