(** The catalog: tables with rows and secondary indexes, plus view
    definitions and the view-dependency graph over them.  Names are
    case-insensitive.  Indexes are invalidated by DML and rebuilt lazily
    on first use.  A view records what it reads once, at creation; every
    view DDL here rebuilds the graph, so undo, WAL replay and checkpoint
    restore need no step of their own. *)

open Rfview_relalg
module Ast := Rfview_sql.Ast
module Share := Rfview_analysis.Share

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

(** A materialized sequence view's shape and static scan footprint. *)
type scan = {
  sc_seq : Matview.seq_spec;
  sc_spec : Share.scan_spec option;  (** [None]: no sharing certificate *)
}

type view = {
  view_name : string;
  materialized : bool;
  definition : Ast.query;
  reads : string list;  (** the relations the definition names, lowercased *)
  scan : scan option;  (** [Some] for a materialized sequence view *)
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

(** @raise Catalog_error if unknown (unless [if_exists]) or while a
    view reads it (RESTRICT). *)
val drop_table : t -> name:string -> if_exists:bool -> unit

(** A snapshot of the current contents. *)
val table_relation : table -> Relation.t

(** Replace the rows, stored ({!Relation.store}: existing zones are
    kept), and invalidate all indexes. *)
val set_rows : table -> Relation.t -> unit

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

(** @raise Catalog_error if unknown (unless [if_exists]) or while a
    view reads it (RESTRICT). *)
val drop_view : t -> name:string -> if_exists:bool -> unit

(** In name order. *)
val all_views : t -> view list

val all_tables : t -> table list

(** {1 The view-dependency graph} *)

(** The views whose definitions name the relation, in name order. *)
val readers : t -> string -> view list

(** Every materialized view with the tables and materialized views it
    reads (plain views expanded), inputs before readers and in name
    order within a level. *)
val maintenance_order : t -> (view * string list) list

(** The materialized sequence views over [table], grouped by scan key in
    name order.  Each carries the position in its group of the first
    member with a compatible static footprint, [None] without one. *)
val share_groups : t -> table:string -> (view * int option) list list

(** {1 Undo-log hooks}

    Re-bind or unbind a captured record wholesale; only the statement
    rollback in [Database] may call these. *)

val restore_table : t -> table -> unit
val forget_table : t -> string -> unit
val restore_view : t -> view -> unit
val forget_view : t -> string -> unit
