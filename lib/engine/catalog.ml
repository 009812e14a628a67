(* The catalog: tables with their rows and secondary indexes, plus view
   definitions.  Names are case-insensitive.  Indexes are invalidated by
   DML and rebuilt lazily on first use. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast

exception Catalog_error of string

let catalog_error fmt = Format.kasprintf (fun s -> raise (Catalog_error s)) fmt

let key s = String.lowercase_ascii s

type index_def = {
  index_name : string;
  column : string;
  kind : Index.kind;
  mutable built : Index.t option;
}

type table = {
  table_name : string;
  schema : Schema.t;
  mutable rows : Relation.t; (* stored: chunked and zoned *)
  mutable indexes : index_def list;
}

type view = {
  view_name : string;
  materialized : bool;
  definition : Ast.query;
  mutable contents : Relation.t option; (* Some for materialized views *)
  (* quarantined: maintenance faulted, contents lag the base table until
     the next read triggers a full refresh *)
  mutable stale : bool;
}

type t = {
  tables : (string, table) Hashtbl.t;
  views : (string, view) Hashtbl.t;
}

let create () = { tables = Hashtbl.create 16; views = Hashtbl.create 16 }

(* ---- Tables ---- *)

let find_table t name = Hashtbl.find_opt t.tables (key name)

let table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> catalog_error "unknown table %s" name

let create_table t ~name ~schema =
  if Hashtbl.mem t.tables (key name) || Hashtbl.mem t.views (key name) then
    catalog_error "relation %s already exists" name;
  let tbl = { table_name = name; schema; rows = Relation.empty schema; indexes = [] } in
  Hashtbl.replace t.tables (key name) tbl;
  tbl

let drop_table t ~name ~if_exists =
  if Hashtbl.mem t.tables (key name) then Hashtbl.remove t.tables (key name)
  else if not if_exists then catalog_error "unknown table %s" name

let table_relation (tbl : table) : Relation.t = tbl.rows

let invalidate_indexes (tbl : table) =
  List.iter (fun idx -> idx.built <- None) tbl.indexes

let set_rows (tbl : table) rows =
  tbl.rows <- Relation.store rows;
  invalidate_indexes tbl

(* ---- Indexes ---- *)

let create_index t ~name ~table:tname ~column ~kind =
  let tbl = table t tname in
  (match Schema.find_opt tbl.schema column with
   | Some _ -> ()
   | None -> catalog_error "table %s has no column %s" tname column);
  if List.exists (fun i -> key i.index_name = key name) tbl.indexes then
    catalog_error "index %s already exists" name;
  tbl.indexes <- { index_name = name; column; kind; built = None } :: tbl.indexes

let table_index t ~table:tname ~column : Index.t option =
  match find_table t tname with
  | None -> None
  | Some tbl ->
    List.find_map
      (fun idx ->
        if key idx.column = key column then begin
          match idx.built with
          | Some built -> Some built
          | None ->
            let key_col =
              match Schema.find_opt tbl.schema idx.column with
              | Some i -> i
              | None -> catalog_error "index column %s disappeared" idx.column
            in
            let built = Index.build idx.kind tbl.rows ~key_col in
            idx.built <- Some built;
            Some built
        end
        else None)
      tbl.indexes

(* ---- Views ---- *)

let find_view t name = Hashtbl.find_opt t.views (key name)

let view t name =
  match find_view t name with
  | Some v -> v
  | None -> catalog_error "unknown view %s" name

let create_view t ~name ~materialized ~definition =
  if Hashtbl.mem t.tables (key name) || Hashtbl.mem t.views (key name) then
    catalog_error "relation %s already exists" name;
  let v = { view_name = name; materialized; definition; contents = None; stale = false } in
  Hashtbl.replace t.views (key name) v;
  v

let drop_view t ~name ~if_exists =
  if Hashtbl.mem t.views (key name) then Hashtbl.remove t.views (key name)
  else if not if_exists then catalog_error "unknown view %s" name

let all_views t = Hashtbl.fold (fun _ v acc -> v :: acc) t.views []
let all_tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

(* ---- Undo-log hooks ----

   Re-bind or unbind a captured table/view record wholesale; only the
   statement rollback in [Database] may call these. *)

let restore_table t (tbl : table) = Hashtbl.replace t.tables (key tbl.table_name) tbl
let forget_table t name = Hashtbl.remove t.tables (key name)
let restore_view t (v : view) = Hashtbl.replace t.views (key v.view_name) v
let forget_view t name = Hashtbl.remove t.views (key name)
