(** Accumulated base-table changes for one batch scope.

    A delta maps each table (case-insensitively) to a consolidated
    multiset of inserted rows, deleted rows and (old, new) update
    pairs.  Consolidation happens as changes arrive: an insert followed
    by a delete of the same row cancels, an update of a row inserted in
    the same batch folds into the insert, and chained updates collapse
    to a single (original, final) pair — so propagation at batch commit
    sees only the net change per base row.

    The structure is persistent: recording a change returns a new value
    and never mutates the old one, which lets the undo log snapshot a
    delta by capturing the pointer.  Recording an empty list returns the
    delta unchanged. *)

open Rfview_relalg

type t

val empty : t
val is_empty : t -> bool

val insert : t -> table:string -> Row.t list -> t
val delete : t -> table:string -> Row.t list -> t

(** [update d ~table pairs] records (old, new) row pairs. *)
val update : t -> table:string -> (Row.t * Row.t) list -> t

(** Tables with at least one recorded change, lowercased, sorted. *)
val tables : t -> string list

(** The net change for one table, in arrival order; [None] when the
    table's changes cancelled out entirely. *)
type table_delta = {
  inserted : Row.t list;
  deleted : Row.t list;
  updated : (Row.t * Row.t) list;
}

val find : t -> string -> table_delta option

(** Total number of net row changes — the width used to decide between
    delta propagation and a full refresh. *)
val weight : table_delta -> int
