(* The derivability advisor (paper §3-§6): answer an incoming reporting
   function query from a materialized sequence view instead of
   recomputing it from the base table.

   Matching requires the query and the view to agree on the base table,
   the value column, the ordering column and (modulo partitioning
   reduction) the partitioning columns; the frames must be derivable
   per the decision matrix in {!Rfview_core.Derive}.  AVG and COUNT
   queries are answered from SUM views (the paper's "COUNT is trivial and
   AVG may be directly derived from SUM and COUNT"). *)

open Rfview_relalg
module Ast = Rfview_sql.Ast
module Core = Rfview_core
module Cert = Rfview_analysis.Cert

type proposal = {
  view_name : string;
  strategy : Core.Derive.strategy;
  partition_reduced : bool;
  (* the paper's relational operator pattern that a plain-relational
     engine would run for this derivation, if one applies *)
  relational_sql : string option;
  (* the statically-discharged proof obligations of the strategy: the
     advisor never proposes a derivation without a valid certificate *)
  certificate : Cert.t;
}

let describe p =
  Printf.sprintf "derive from %s via %s%s (certified: %d obligations)" p.view_name
    (Core.Derive.strategy_name p.strategy)
    (if p.partition_reduced then " after partitioning reduction" else "")
    (List.length p.certificate.Cert.obligations)

(* Aggregates answerable from a view with the given core aggregate. *)
let agg_compatible ~(view : Aggregate.kind) ~(query : Aggregate.kind) =
  match view, query with
  | (Aggregate.Sum | Aggregate.Count | Aggregate.Avg), (Aggregate.Sum | Aggregate.Count | Aggregate.Avg)
    -> true (* all carried by the underlying SUM sequence *)
  | Aggregate.Min, Aggregate.Min | Aggregate.Max, Aggregate.Max -> true
  | _ -> false

let relational_sql_for ~view_name ~(view_frame : Core.Frame.t)
    ~(query_frame : Core.Frame.t) (strategy : Core.Derive.strategy) : string option =
  match strategy, view_frame, query_frame with
  | Core.Derive.Min_overlap, Core.Frame.Sliding { l = lx; h = hx }, Core.Frame.Sliding { l = ly; h = hy }
    when not (lx = ly && hx = hy) ->
    Some (Core.Sqlgen.minoa ~table:view_name ~lx ~hx ~ly ~hy `Disjunctive)
  | Core.Derive.Max_overlap, Core.Frame.Sliding { l = lx; h }, Core.Frame.Sliding { l = ly; h = hy }
    when hy = h && ly > lx && ly - lx <= lx + h ->
    Some (Core.Sqlgen.maxoa ~table:view_name ~lx ~h ~ly `Disjunctive)
  | _ -> None

(* ---- Matching ---- *)

let ieq a b = String.lowercase_ascii a = String.lowercase_ascii b
let same_cols a b = List.length a = List.length b && List.for_all2 ieq a b

type match_kind =
  | Exact_partition
  | Reduce_partition (* query has no PARTITION BY, view is partitioned *)

let match_view (qspec : Matview.seq_spec) (vspec : Matview.seq_spec) :
    match_kind option =
  if
    ieq qspec.Matview.source vspec.Matview.source
    && ieq qspec.Matview.order_col vspec.Matview.order_col
    && ieq qspec.Matview.value_col vspec.Matview.value_col
    && agg_compatible ~view:vspec.Matview.agg ~query:qspec.Matview.agg
  then
    if same_cols qspec.Matview.partition vspec.Matview.partition then
      Some Exact_partition
    else if qspec.Matview.partition = [] && vspec.Matview.partition <> [] then
      Some Reduce_partition
    else None
  else None

(* Partitioning reduction is only sound when concatenating the view's
   partitions in key order yields the query's global ordering, i.e. the
   order-column ranges of consecutive partitions do not interleave. *)
let concat_order_sound (state : Matview.state) =
  let rec go = function
    | a :: (b :: _ as rest) ->
      let la = a.Matview.base_rows in
      let lb = b.Matview.base_rows in
      (Array.length la = 0 || Array.length lb = 0
      || Value.compare
           (Row.get la.(Array.length la - 1) state.Matview.ocol)
           (Row.get lb.(0) state.Matview.ocol)
         <= 0)
      && go rest
    | _ -> true
  in
  go state.Matview.parts

(* ---- Proposal search ---- *)

let core_frame_of spec = spec.Matview.frame
let core_agg_of spec = Matview.core_agg spec.Matview.agg

let proposals (db : Database.t) (q : Ast.query) : (proposal * Matview.state * Matview.seq_spec) list =
  match Matview.recognize q with
  | None -> []
  | Some qspec ->
    Catalog.all_views (Database.catalog db)
    |> List.filter_map (fun (v : Catalog.view) ->
           if not v.Catalog.materialized then None
           else
             match Database.view_state db v.Catalog.view_name with
             | None -> None
             | Some state ->
               let vspec = state.Matview.spec in
               (match match_view qspec vspec with
                | None -> None
                | Some kind ->
                  let strategies =
                    Core.Derive.applicable_strategies
                      ~view_frame:(core_frame_of vspec)
                      ~view_agg:(core_agg_of vspec)
                      ~query_frame:(core_frame_of qspec)
                  in
                  (* certify each applicable strategy against the actual
                     materialized data (completeness facts included) and
                     keep the first that is proven derivable *)
                  let fact =
                    match state.Matview.parts with
                    | part :: _ ->
                      Some
                        (Rfview_analysis.Domain.Seqfact.of_seq part.Matview.seq)
                    | [] -> None
                  in
                  let certified =
                    List.filter_map
                      (fun s ->
                        let c =
                          Cert.certify ?fact ~view_frame:(core_frame_of vspec)
                            ~view_agg:(core_agg_of vspec)
                            ~query_frame:(core_frame_of qspec) s
                        in
                        if Cert.valid c then Some (s, c) else None)
                      strategies
                  in
                  (match certified with
                   | [] -> None
                   | (strategy, certificate) :: _ ->
                     let partition_reduced = kind = Reduce_partition in
                     if partition_reduced && not (concat_order_sound state) then None
                     else
                       Some
                         ( {
                             view_name = v.Catalog.view_name;
                             strategy;
                             partition_reduced;
                             relational_sql =
                               relational_sql_for ~view_name:v.Catalog.view_name
                                 ~view_frame:(core_frame_of vspec)
                                 ~query_frame:(core_frame_of qspec) strategy;
                             certificate;
                           },
                           state,
                           qspec ))))

(* Certificate candidates for every matching materialized view —
   including the rejected ones, which [proposals] filters out.  This is
   what [rfview analyze] prints: the full picture of why each candidate
   strategy is admitted or refused. *)
let certificates (db : Database.t) (q : Ast.query) : (string * Cert.t list) list =
  match Matview.recognize q with
  | None -> []
  | Some qspec ->
    Catalog.all_views (Database.catalog db)
    |> List.filter_map (fun (v : Catalog.view) ->
           if not v.Catalog.materialized then None
           else
             match Database.view_state db v.Catalog.view_name with
             | None -> None
             | Some state ->
               let vspec = state.Matview.spec in
               (match match_view qspec vspec with
                | None -> None
                | Some _ ->
                  let fact =
                    match state.Matview.parts with
                    | part :: _ ->
                      Some
                        (Rfview_analysis.Domain.Seqfact.of_seq part.Matview.seq)
                    | [] -> None
                  in
                  Some
                    ( v.Catalog.view_name,
                      Cert.candidates ?fact ~view_frame:(core_frame_of vspec)
                        ~view_agg:(core_agg_of vspec)
                        ~query_frame:(core_frame_of qspec) () )))

(* ---- Answering ---- *)

let window_value_for (qspec : Matview.seq_spec) (seq : Core.Seqdata.t) ~n ~k : Value.t =
  let float_value v = if Float.is_nan v then Value.Null else Value.Float v in
  match qspec.Matview.agg with
  | Aggregate.Sum | Aggregate.Min | Aggregate.Max -> float_value (Core.Seqdata.get seq k)
  | Aggregate.Count -> Value.Int (Core.Agg.count_at qspec.Matview.frame ~n ~k)
  | Aggregate.Avg ->
    let c = Core.Agg.count_at qspec.Matview.frame ~n ~k in
    if c = 0 then Value.Null else Value.Float (Core.Seqdata.get seq k /. float_of_int c)

(* Render the query result from derived per-partition sequences, laid out
   by the query's select items. *)
let render_answer (state : Matview.state) (qspec : Matview.seq_spec)
    (derived : (Matview.partition_state * Core.Seqdata.t) list) : Relation.t =
  let base_schema = state.Matview.base_schema in
  let item_cols =
    List.map
      (fun (src, _) -> Option.map (Schema.find base_schema) src)
      qspec.Matview.items
  in
  let schema =
    Schema.make
      (List.map
         (fun ((src, out_name), col) ->
           match col with
           | Some i -> Schema.column out_name (Schema.col base_schema i).Schema.ty
           | None ->
             let ty =
               match qspec.Matview.agg with
               | Aggregate.Count -> Dtype.Int
               | _ -> Dtype.Float
             in
           ignore src;
           Schema.column out_name ty)
         (List.combine qspec.Matview.items item_cols))
  in
  let rows = ref [] in
  List.iter
    (fun ((p : Matview.partition_state), seq) ->
      let n = Array.length p.Matview.base_rows in
      Array.iteri
        (fun i row ->
          let k = i + 1 in
          let values =
            List.map
              (fun col ->
                match col with
                | Some c -> Row.get row c
                | None -> window_value_for qspec seq ~n ~k)
              item_cols
          in
          rows := Array.of_list values :: !rows)
        p.Matview.base_rows)
    derived;
  Relation.of_array schema (Array.of_list (List.rev !rows))

(* Derive the query answer from the chosen view at the core level. *)
let answer_with (state : Matview.state) (qspec : Matview.seq_spec) (p : proposal) :
    Relation.t =
  let qframe = qspec.Matview.frame in
  if not p.partition_reduced then begin
    let derived =
      List.map
        (fun (part : Matview.partition_state) ->
          (part, Core.Derive.run p.strategy part.Matview.seq qframe))
        state.Matview.parts
    in
    render_answer state qspec derived
  end
  else begin
    (* merge the view partitions (partitioning reduction, §6.2), then
       derive the frame on the merged sequence *)
    let space = Core.Position.create [ 1 ] in
    ignore space;
    let reporting =
      {
        Core.Reporting.agg = Core.Seqdata.agg (List.hd state.Matview.parts).Matview.seq;
        frame = Core.Seqdata.frame (List.hd state.Matview.parts).Matview.seq;
        space = Core.Position.create [ 1 ];
        partitions =
          List.map
            (fun (part : Matview.partition_state) ->
              ( List.map Value.to_string part.Matview.pkey,
                part.Matview.seq ))
            state.Matview.parts;
      }
    in
    let merged = Core.Reporting.partitioning_reduction reporting ~group:(fun _ -> []) in
    let merged_seq =
      match Core.Reporting.partitions merged with
      | [ (_, s) ] -> s
      | _ -> assert false
    in
    let derived_seq = Core.Derive.derive merged_seq qframe in
    (* merged base rows in concatenation order *)
    let all_rows =
      Array.concat (List.map (fun p -> p.Matview.base_rows) state.Matview.parts)
    in
    let merged_part =
      {
        Matview.pkey = [];
        base_rows = all_rows;
        raw =
          Core.Seqdata.raw_of_array
            (Array.map (fun row -> Value.to_float (Row.get row state.Matview.vcol)) all_rows);
        seq = derived_seq;
        rendered = None;
      }
    in
    render_answer state qspec [ (merged_part, derived_seq) ]
  end

(* Try to answer the query from a materialized view; [None] when no view
   applies. *)
let answer (db : Database.t) (q : Ast.query) : (Relation.t * proposal) option =
  match proposals db q with
  | [] -> None
  | (p, state, qspec) :: _ -> Some (answer_with state qspec p, p)
