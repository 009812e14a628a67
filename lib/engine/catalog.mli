(** The catalog: tables with rows and secondary indexes, plus view
    definitions.  Names are case-insensitive.  Indexes are invalidated by
    DML and rebuilt lazily on first use. *)

open Rfview_relalg
module Ast := Rfview_sql.Ast

exception Catalog_error of string

type index_def = {
  index_name : string;
  column : string;
  kind : Index.kind;
  mutable built : Index.t option;
}

type table = {
  table_name : string;
  schema : Schema.t;
  mutable rows : Relation.t;
      (** stored ({!Relation.store}): chunked and zoned; replaced whole,
          never written in place *)
  mutable indexes : index_def list;
}

type view = {
  view_name : string;
  materialized : bool;
  definition : Ast.query;
  mutable contents : Relation.t option;
      (** [Some] for materialized views; stored ({!Relation.store}) *)
  mutable stale : bool;
      (** quarantined: maintenance faulted, contents lag the base table
          until the next read triggers a full refresh *)
}

type t

val create : unit -> t

(** {1 Tables} *)

val find_table : t -> string -> table option

(** @raise Catalog_error if unknown. *)
val table : t -> string -> table

(** @raise Catalog_error if the name is taken. *)
val create_table : t -> name:string -> schema:Schema.t -> table

val drop_table : t -> name:string -> if_exists:bool -> unit

(** A snapshot of the current contents. *)
val table_relation : table -> Relation.t

(** Replace the rows, stored ({!Relation.store}: existing zones are
    kept), and invalidate all indexes. *)
val set_rows : table -> Relation.t -> unit

val invalidate_indexes : table -> unit

(** {1 Indexes} *)

(** @raise Catalog_error on unknown table/column or duplicate name. *)
val create_index :
  t -> name:string -> table:string -> column:string -> kind:Index.kind -> unit

(** The (lazily built) index on [table].[column], if any. *)
val table_index : t -> table:string -> column:string -> Index.t option

(** {1 Views} *)

val find_view : t -> string -> view option

(** @raise Catalog_error if unknown. *)
val view : t -> string -> view

(** @raise Catalog_error if the name is taken. *)
val create_view : t -> name:string -> materialized:bool -> definition:Ast.query -> view

val drop_view : t -> name:string -> if_exists:bool -> unit
val all_views : t -> view list
val all_tables : t -> table list

(** {1 Undo-log hooks}

    Re-bind or unbind a captured record wholesale; only the statement
    rollback in [Database] may call these. *)

val restore_table : t -> table -> unit
val forget_table : t -> string -> unit
val restore_view : t -> view -> unit
val forget_view : t -> string -> unit
