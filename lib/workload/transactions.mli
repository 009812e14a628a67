(** The credit-card workload of the paper's introduction: a fact table
    [c_transactions] and a dimension table [l_locations] mapping shops to
    cities and regions. *)

module Db := Rfview_engine.Database

type config = {
  seed : int;
  customers : int;
  locations : int;
  days : int;  (** observation window, starting 2002-01-01 *)
  transactions_per_day : int;
}

val default_config : config

(** Create and populate both tables. *)
val load : ?config:config -> Db.t -> unit

(** {!load} against a façade session — tooling on the typed API never
    has to reach the engine handle. *)
val load_session : ?config:config -> Rfview.Session.t -> unit

(** The reporting-function query from the paper's introduction (overall
    and per-month cumulative sums, centered 3-day and prospective 7-day
    moving averages) for one customer. *)
val intro_query : ?custid:int -> unit -> string
