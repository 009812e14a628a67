(* The catalog: tables with their rows and secondary indexes, plus view
   definitions and the view-dependency graph over them.  Names are
   case-insensitive.  Indexes are invalidated by DML and rebuilt lazily
   on first use; the graph is rebuilt by every view DDL. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Share = Rfview_analysis.Share

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

type scan = {
  sc_seq : Matview.seq_spec;
  sc_spec : Share.scan_spec option;
}

type view = {
  view_name : string;
  materialized : bool;
  definition : Ast.query;
  reads : string list; (* the relations the definition names, lowercased *)
  scan : scan option; (* Some for a materialized sequence view *)
  mutable contents : Relation.t option; (* Some for materialized views *)
  (* quarantined: maintenance faulted, contents lag the base table until
     the next read triggers a full refresh *)
  mutable stale : bool;
}

(* [views_in_order], [order] and [groups] are what the view definitions
   say about each other, rebuilt by every view DDL ([rebuild]). *)
type t = {
  tables : (string, table) Hashtbl.t;
  views : (string, view) Hashtbl.t;
  mutable views_in_order : view list;
  mutable order : (view * string list) list;
  mutable groups : (string * (view * int option) list) list; (* by table *)
}

let create () =
  {
    tables = Hashtbl.create 16;
    views = Hashtbl.create 16;
    views_in_order = [];
    order = [];
    groups = [];
  }

(* ---- The view-dependency graph ---- *)

let rec names_of_query (q : Ast.query) = names_of_body q.Ast.body

and names_of_body = function
  | Ast.Select s -> List.concat_map names_of_ref s.Ast.from
  | Ast.Union { left; right; _ } -> names_of_body left @ names_of_body right

and names_of_ref = function
  | Ast.Table { name; _ } -> [ key name ]
  | Ast.Subquery { query; _ } -> names_of_query query
  | Ast.Join { left; right; _ } -> names_of_ref left @ names_of_ref right

let rebuild t =
  let views =
    List.sort
      (fun a b -> compare (key a.view_name) (key b.view_name))
      (Hashtbl.fold (fun _ v acc -> v :: acc) t.views [])
  in
  (* a plain view stands for what its definition reads ([seen] stops a
     cycle a damaged checkpoint could hold) *)
  let rec resolve seen name =
    match Hashtbl.find_opt t.views name with
    | Some v when (not v.materialized) && not (List.mem name seen) ->
      List.concat_map (resolve (name :: seen)) v.reads
    | _ -> [ name ]
  in
  let inputs v =
    List.sort_uniq compare (List.concat_map (resolve [ key v.view_name ]) v.reads)
  in
  (* peel level by level: the views none of whose inputs is still
     pending, in name order (a cycle a damaged checkpoint could hold
     ends the peel) *)
  let rec peel pending =
    let pending_view i = List.exists (fun (u, _) -> key u.view_name = i) pending in
    match List.partition (fun (_, ins) -> not (List.exists pending_view ins)) pending with
    | [], rest -> rest
    | ready, rest -> ready @ peel rest
  in
  (* share candidates by table and scan key: the partition and order
     columns, which resolve to the same indices exactly when their names
     agree (case-insensitively).  A member's certificate class is the
     first member whose footprint is compatible with its own
     (compatibility is an equivalence). *)
  let candidates =
    List.filter_map
      (fun v ->
        Option.map
          (fun { sc_seq = s; _ } ->
            let cols = (List.map key s.Matview.partition, key s.Matview.order_col) in
            ((key s.Matview.source, cols), v))
          v.scan)
      views
  in
  let spec v = Option.bind v.scan (fun sc -> sc.sc_spec) in
  let compatible v u =
    match spec u, spec v with Some a, Some b -> Share.compatible a b | _ -> false
  in
  let certify vs = List.map (fun v -> (v, List.find_index (compatible v) vs)) vs in
  let members k =
    List.filter_map (fun (k', v) -> if k' = k then Some v else None) candidates
  in
  t.views_in_order <- views;
  t.order <-
    peel
      (List.filter_map (fun v -> if v.materialized then Some (v, inputs v) else None) views);
  t.groups <-
    List.map
      (fun ((table, _) as k) -> (table, certify (members k)))
      (List.sort_uniq compare (List.map fst candidates))

let readers t name = List.filter (fun v -> List.mem (key name) v.reads) t.views_in_order
let maintenance_order t = t.order
let share_groups t ~table =
  List.filter_map (fun (t', g) -> if t' = key table then Some g else None) t.groups

(* DROP is RESTRICT: nothing goes while a view reads it. *)
let drop t relations what ~name ~if_exists =
  if Hashtbl.mem relations (key name) then begin
    match readers t name with
    | [] -> Hashtbl.remove relations (key name)
    | rs ->
      catalog_error "cannot drop %s %s: read by %s" what name
        (String.concat ", " (List.map (fun v -> v.view_name) rs))
  end
  else if not if_exists then catalog_error "unknown %s %s" what name

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

let drop_table t = drop t t.tables "table"

let table_relation (tbl : table) : Relation.t = tbl.rows

let set_rows (tbl : table) rows =
  tbl.rows <- Relation.store rows;
  List.iter (fun idx -> idx.built <- None) tbl.indexes

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
  let v =
    {
      view_name = name;
      materialized;
      definition;
      reads = List.sort_uniq compare (names_of_query definition);
      scan =
        (if not materialized then None
         else
           Option.map
             (fun sc_seq -> { sc_seq; sc_spec = Share.scan_spec ~view:name definition })
             (Matview.recognize definition));
      contents = None;
      stale = false;
    }
  in
  Hashtbl.replace t.views (key name) v;
  rebuild t;
  v

let drop_view t ~name ~if_exists =
  drop t t.views "view" ~name ~if_exists;
  rebuild t

let all_views t = t.views_in_order
let all_tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

(* ---- Undo-log hooks ----

   Re-bind or unbind a captured table/view record wholesale; only the
   statement rollback in [Database] may call these. *)

let restore_table t (tbl : table) = Hashtbl.replace t.tables (key tbl.table_name) tbl
let forget_table t name = Hashtbl.remove t.tables (key name)
let restore_view t (v : view) =
  Hashtbl.replace t.views (key v.view_name) v;
  rebuild t

let forget_view t name =
  Hashtbl.remove t.views (key name);
  rebuild t
