(* Tests of the relational substrate: values, expressions, indexes, joins,
   grouping and the basic operators. *)

open Rfview_relalg

let value_testable =
  Alcotest.testable Value.pp Value.equal

let check_value = Alcotest.check value_testable

(* ---- Values ---- *)

let test_value_compare () =
  Alcotest.(check int) "int" (-1) (Value.compare (Value.Int 1) (Value.Int 2));
  Alcotest.(check int) "cross numeric" 0 (Value.compare (Value.Int 2) (Value.Float 2.));
  Alcotest.(check int) "null first" (-1) (Value.compare Value.Null (Value.Int 0));
  Alcotest.(check bool) "sql null compare" true
    (Value.sql_compare Value.Null (Value.Int 1) = None)

let test_value_arith () =
  check_value "add ints" (Value.Int 7) (Value.add (Value.Int 3) (Value.Int 4));
  check_value "add mixed" (Value.Float 7.5) (Value.add (Value.Int 3) (Value.Float 4.5));
  check_value "null propagates" Value.Null (Value.add Value.Null (Value.Int 1));
  check_value "neg" (Value.Int (-3)) (Value.neg (Value.Int 3));
  check_value "div ints" (Value.Int 2) (Value.div (Value.Int 7) (Value.Int 3))

let test_floored_mod () =
  (* floored MOD keeps residue classes stable at negative positions *)
  check_value "positive" (Value.Int 2) (Value.modulo (Value.Int 7) (Value.Int 5));
  check_value "negative" (Value.Int 3) (Value.modulo (Value.Int (-7)) (Value.Int 5));
  Alcotest.(check bool) "class agreement" true
    (Value.modulo (Value.Int (-3)) (Value.Int 5) = Value.modulo (Value.Int 2) (Value.Int 5))

let test_dates () =
  let d = Value.date_of_ymd 2002 2 26 in
  Alcotest.(check (triple int int int)) "roundtrip" (2002, 2, 26) (Value.ymd_of_date d);
  Alcotest.(check int) "month" 2 (Value.date_month d);
  Alcotest.(check string) "render" "2002-02-26" (Value.date_to_string d);
  Alcotest.(check (option int)) "parse" (Some d) (Value.parse_date "2002-02-26");
  (* leap years *)
  Alcotest.(check bool) "2000 leap" true (Value.is_leap_year 2000);
  Alcotest.(check bool) "1900 not leap" false (Value.is_leap_year 1900);
  let a = Value.date_of_ymd 2001 12 31 and b = Value.date_of_ymd 2002 1 1 in
  Alcotest.(check int) "consecutive" 1 (b - a)

let prop_date_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"date roundtrip"
    QCheck.(make Gen.(int_range (-200000) 200000))
    (fun days ->
      let y, m, d = Value.ymd_of_date days in
      Value.date_of_ymd y m d = days)

(* ---- Expressions ---- *)

let schema2 =
  Schema.make [ Schema.column "a" Dtype.Int; Schema.column "b" Dtype.Float ]

let row2 a b : Row.t = [| Value.Int a; Value.Float b |]

let test_expr_eval () =
  let e = Expr.Binop (Expr.Add, Expr.Col 0, Expr.Const (Value.Int 10)) in
  check_value "col + const" (Value.Int 13) (Expr.eval (row2 3 0.) e);
  let c =
    Expr.Case
      ( [ (Expr.Binop (Expr.Gt, Expr.Col 0, Expr.Const (Value.Int 0)), Expr.Const (Value.String "pos")) ],
        Some (Expr.Const (Value.String "nonpos")) )
  in
  check_value "case then" (Value.String "pos") (Expr.eval (row2 1 0.) c);
  check_value "case else" (Value.String "nonpos") (Expr.eval (row2 (-1) 0.) c)

let test_expr_three_valued () =
  let null = Expr.Const Value.Null in
  let tru = Expr.Const (Value.Bool true) and fls = Expr.Const (Value.Bool false) in
  check_value "null and false" (Value.Bool false)
    (Expr.eval [||] (Expr.Binop (Expr.And, null, fls)));
  check_value "null and true" Value.Null
    (Expr.eval [||] (Expr.Binop (Expr.And, null, tru)));
  check_value "null or true" (Value.Bool true)
    (Expr.eval [||] (Expr.Binop (Expr.Or, null, tru)));
  check_value "not null" Value.Null (Expr.eval [||] (Expr.Unop (Expr.Not, null)));
  Alcotest.(check bool) "filter drops unknown" false (Expr.holds [||] null)

let test_expr_in_between () =
  let e = Expr.In_list (Expr.Col 0, [ Expr.Const (Value.Int 1); Expr.Const (Value.Int 3) ]) in
  check_value "in hit" (Value.Bool true) (Expr.eval (row2 3 0.) e);
  check_value "in miss" (Value.Bool false) (Expr.eval (row2 2 0.) e);
  let b = Expr.Between (Expr.Col 0, Expr.Const (Value.Int 2), Expr.Const (Value.Int 4)) in
  check_value "between" (Value.Bool true) (Expr.eval (row2 3 0.) b);
  check_value "between lo edge" (Value.Bool true) (Expr.eval (row2 2 0.) b);
  check_value "between miss" (Value.Bool false) (Expr.eval (row2 5 0.) b)

let test_expr_functions () =
  let coalesce =
    Expr.Call (Expr.Coalesce, [ Expr.Const Value.Null; Expr.Const (Value.Int 5) ])
  in
  check_value "coalesce" (Value.Int 5) (Expr.eval [||] coalesce);
  let m =
    Expr.Call (Expr.Month, [ Expr.Const (Value.Date (Value.date_of_ymd 2002 3 1)) ])
  in
  check_value "month" (Value.Int 3) (Expr.eval [||] m);
  check_value "abs" (Value.Int 4)
    (Expr.eval [||] (Expr.Call (Expr.Abs, [ Expr.Const (Value.Int (-4)) ])));
  check_value "nullif equal" Value.Null
    (Expr.eval [||] (Expr.Call (Expr.Nullif, [ Expr.Const (Value.Int 1); Expr.Const (Value.Int 1) ])))

(* ---- Compiled expressions agree with the interpreter ----

   Random expressions over every constructor, run on random rows with
   NULLs, mixed INT/FLOAT, dates, strings and booleans, so ill-typed
   operands and division/MOD by zero come up often.  The compiled
   closures must return the same value (floats compared bit for bit) or
   raise the same exception (constructor and message). *)

let arity = 4

let gen_value =
  let open QCheck.Gen in
  frequency
    [
      (3, return Value.Null);
      (2, map (fun b -> Value.Bool b) bool);
      (4, map (fun i -> Value.Int i) (int_range (-3) 3));
      ( 2,
        map (fun f -> Value.Float f)
          (oneofl [ 0.; -0.; 1.5; -2.; 3.; Float.nan; Float.infinity ]) );
      (1, map (fun s -> Value.String s) (oneofl [ ""; "a"; "b" ]));
      (1, map (fun d -> Value.Date d) (oneofl [ 0; 59; 11_000 ]));
    ]

let gen_row = QCheck.Gen.(map Array.of_list (list_repeat arity gen_value))

let gen_expr =
  let open QCheck.Gen in
  let binops = Expr.[ Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or ] in
  let funcs = Expr.[ Coalesce; Abs; Least; Greatest; Year; Month; Day; Nullif; Sign ] in
  let leaf =
    frequency
      [ (1, map (fun v -> Expr.Const v) gen_value);
        (2, map (fun i -> Expr.Col i) (int_bound (arity - 1))) ]
  in
  sized_size (int_bound 5)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [
               (1, leaf);
               (6, map3 (fun op a b -> Expr.Binop (op, a, b)) (oneofl binops) sub sub);
               (1, map2 (fun op a -> Expr.Unop (op, a)) (oneofl Expr.[ Neg; Not ]) sub);
               ( 1,
                 map2
                   (fun whens else_ -> Expr.Case (whens, else_))
                   (list_size (int_bound 2) (pair sub sub))
                   (opt sub) );
               (1, map2 (fun f args -> Expr.Call (f, args)) (oneofl funcs)
                     (list_size (int_bound 3) sub));
               (1, map2 (fun e items -> Expr.In_list (e, items)) sub
                     (list_size (int_bound 3) sub));
               (2, map3 (fun e lo hi -> Expr.Between (e, lo, hi)) sub sub sub);
               (1, map (fun e -> Expr.Is_null e) sub);
               (1, map (fun e -> Expr.Is_not_null e) sub);
             ]))

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_value a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | a, b -> a = b

let agree eq a b =
  match a, b with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let prop_compile_agrees =
  let print (e, rows, split) =
    Printf.sprintf "%s on [%s], split %d" (Expr.to_string e)
      (String.concat "; " (List.map Row.to_string rows))
      split
  in
  QCheck.Test.make ~count:10_000 ~name:"compiled expressions agree with eval"
    (QCheck.make ~print
       QCheck.Gen.(triple gen_expr (list_size (int_range 1 4) gen_row) (int_bound arity)))
    (fun (e, rows, split) ->
      (* compiled once, applied to every row *)
      let f = Expr.compile e and p = Expr.compile_pred e in
      let pp = Expr.compile_pred_pair ~left_arity:split e in
      let pp_one = Expr.compile_pred_pair ~left_arity:max_int e in
      List.for_all
        (fun row ->
          let l = Array.sub row 0 split and r = Array.sub row split (arity - split) in
          agree same_value (outcome (fun () -> Expr.eval row e)) (outcome (fun () -> f row))
          && agree Bool.equal (outcome (fun () -> Expr.holds row e)) (outcome (fun () -> p row))
          && agree Bool.equal
               (outcome (fun () -> Expr.holds (Row.append l r) e))
               (outcome (fun () -> pp l r))
          && agree Bool.equal (outcome (fun () -> Expr.holds row e))
               (outcome (fun () -> pp_one row row)))
        rows)

let dtype_testable = Alcotest.testable Dtype.pp Dtype.equal

let test_expr_typing () =
  Alcotest.(check (option dtype_testable))
    "int + float" (Some Dtype.Float)
    (Expr.infer_type schema2 (Expr.Binop (Expr.Add, Expr.Col 0, Expr.Col 1)));
  Alcotest.(check bool) "conjuncts split" true
    (List.length
       (Expr.conjuncts
          (Expr.Binop
             ( Expr.And,
               Expr.Binop (Expr.And, Expr.Const (Value.Bool true), Expr.Const (Value.Bool true)),
               Expr.Const (Value.Bool true) )))
    = 3)

(* ---- Schema ---- *)

let test_schema_lookup () =
  let s =
    Schema.make
      [ Schema.column ~rel:"s1" "pos" Dtype.Int;
        Schema.column ~rel:"s1" "val" Dtype.Float;
        Schema.column ~rel:"s2" "pos" Dtype.Int ]
  in
  Alcotest.(check int) "qualified" 2 (Schema.find s ~rel:"s2" "pos");
  Alcotest.(check int) "unqualified unique" 1 (Schema.find s "val");
  Alcotest.(check bool) "ambiguous" true
    (match Schema.find s "pos" with
     | exception Schema.Ambiguous_column _ -> true
     | _ -> false);
  Alcotest.(check bool) "unknown" true
    (match Schema.find s "nope" with
     | exception Schema.Unknown_column _ -> true
     | _ -> false);
  Alcotest.(check int) "case insensitive" 1 (Schema.find s "VAL")

(* ---- Index ---- *)

let rows_of_ints ints =
  Relation.of_array
    (Schema.make [ Schema.column "p" Dtype.Int; Schema.column "v" Dtype.Float ])
    (Array.of_list (List.map (fun (p, v) -> [| Value.Int p; Value.Float v |]) ints))

let test_index_eq () =
  let rows = rows_of_ints [ (1, 10.); (2, 20.); (2, 21.); (5, 50.) ] in
  List.iter
    (fun kind ->
      let idx = Index.build kind rows ~key_col:0 in
      Alcotest.(check (list int)) "eq 2" [ 1; 2 ]
        (List.sort compare (Index.lookup_eq idx (Value.Int 2)));
      Alcotest.(check (list int)) "eq missing" [] (Index.lookup_eq idx (Value.Int 3));
      Alcotest.(check (list int)) "null key" [] (Index.lookup_eq idx Value.Null))
    [ Index.Hash; Index.Ordered ]

let test_index_range () =
  let rows = rows_of_ints [ (1, 10.); (2, 20.); (3, 30.); (5, 50.); (8, 80.) ] in
  let idx = Index.build Index.Ordered rows ~key_col:0 in
  let range ?lo ?hi () =
    let ids = ref [] in
    Index.iter_range idx ?lo ?hi (fun id -> ids := id :: !ids);
    List.rev !ids
  in
  Alcotest.(check (list int)) "closed range" [ 1; 2; 3 ]
    (range ~lo:(Value.Int 2) ~hi:(Value.Int 5) ());
  Alcotest.(check (list int)) "open low" [ 0; 1 ] (range ~hi:(Value.Int 2) ());
  Alcotest.(check (list int)) "open high" [ 3; 4 ] (range ~lo:(Value.Int 4) ());
  Alcotest.(check (list int)) "empty" [] (range ~lo:(Value.Int 6) ~hi:(Value.Int 7) ())

(* ---- Joins ---- *)

let rel schema rows = Relation.of_array schema (Array.of_list rows)

let seq_schema name =
  Schema.make
    [ Schema.column ~rel:name "pos" Dtype.Int; Schema.column ~rel:name "val" Dtype.Float ]

let seq_rel name data =
  rel (seq_schema name) (List.mapi (fun i v -> [| Value.Int (i + 1); Value.Float v |]) data)

let test_joins_agree () =
  (* the three algorithms must produce the same bag on an equi-join *)
  let l = seq_rel "s1" [ 10.; 20.; 30.; 40. ] in
  let r = seq_rel "s2" [ 1.; 2.; 3.; 4. ] in
  let cond = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 2) in
  let nl = Joinop.nested_loop Joinop.Inner l r cond in
  let hash =
    Joinop.hash_join Joinop.Inner ~left:l ~right:r ~left_keys:[ Expr.Col 0 ]
      ~right_keys:[ Expr.Col 0 ] ()
  in
  let idx = Index.build Index.Ordered r ~key_col:0 in
  let ij =
    Joinop.index_join Joinop.Inner ~left:l ~right:r ~index:idx
      ~probe:(Joinop.Probe_eq (Expr.Col 0)) ()
  in
  Alcotest.(check bool) "hash = nl" true (Relation.equal_bag nl hash);
  Alcotest.(check bool) "index = nl" true (Relation.equal_bag nl ij);
  Alcotest.(check int) "cardinality" 4 (Relation.cardinality nl)

let test_left_outer () =
  let l = seq_rel "s1" [ 10.; 20.; 30. ] in
  let r =
    rel (seq_schema "s2") [ [| Value.Int 2; Value.Float 200. |] ]
  in
  let cond = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 2) in
  let nl = Joinop.nested_loop Joinop.Left_outer l r cond in
  Alcotest.(check int) "all left rows kept" 3 (Relation.cardinality nl);
  let nulls =
    Array.to_list (Relation.rows nl)
    |> List.filter (fun row -> Value.is_null (Row.get row 2))
  in
  Alcotest.(check int) "two unmatched" 2 (List.length nulls);
  (* agreement with hash and index variants *)
  let hash =
    Joinop.hash_join Joinop.Left_outer ~left:l ~right:r ~left_keys:[ Expr.Col 0 ]
      ~right_keys:[ Expr.Col 0 ] ()
  in
  Alcotest.(check bool) "hash left outer" true (Relation.equal_bag nl hash);
  let idx = Index.build Index.Hash r ~key_col:0 in
  let ij =
    Joinop.index_join Joinop.Left_outer ~left:l ~right:r ~index:idx
      ~probe:(Joinop.Probe_eq (Expr.Col 0)) ()
  in
  Alcotest.(check bool) "index left outer" true (Relation.equal_bag nl ij)

let test_range_join () =
  (* the Fig. 2 self-join shape: s2.pos BETWEEN s1.pos-1 AND s1.pos+1 *)
  let s = seq_rel "s1" [ 1.; 2.; 3.; 4.; 5. ] in
  let cond =
    Expr.Between
      ( Expr.Col 2,
        Expr.Binop (Expr.Sub, Expr.Col 0, Expr.Const (Value.Int 1)),
        Expr.Binop (Expr.Add, Expr.Col 0, Expr.Const (Value.Int 1)) )
  in
  let nl = Joinop.nested_loop Joinop.Inner s s cond in
  let idx = Index.build Index.Ordered s ~key_col:0 in
  let ij =
    Joinop.index_join Joinop.Inner ~left:s ~right:s ~index:idx
      ~probe:
        (Joinop.Probe_range
           ( Some (Expr.Binop (Expr.Sub, Expr.Col 0, Expr.Const (Value.Int 1))),
             Some (Expr.Binop (Expr.Add, Expr.Col 0, Expr.Const (Value.Int 1))) ))
      ()
  in
  Alcotest.(check bool) "range join = nested loop" true (Relation.equal_bag nl ij);
  Alcotest.(check int) "cardinality 3n-2" 13 (Relation.cardinality nl)

let test_probe_in_dedup () =
  let s = seq_rel "s" [ 1.; 2. ] in
  let idx = Index.build Index.Hash s ~key_col:0 in
  (* both IN items evaluate to the same key: must not double-count *)
  let ij =
    Joinop.index_join Joinop.Inner ~left:s ~right:s ~index:idx
      ~probe:(Joinop.Probe_in [ Expr.Col 0; Expr.Col 0 ])
      ()
  in
  Alcotest.(check int) "no duplicates" 2 (Relation.cardinality ij)

(* ---- Grouping ---- *)

let test_group_by () =
  let schema =
    Schema.make [ Schema.column "g" Dtype.String; Schema.column "v" Dtype.Int ]
  in
  let r =
    rel schema
      [
        [| Value.String "a"; Value.Int 1 |];
        [| Value.String "b"; Value.Int 10 |];
        [| Value.String "a"; Value.Int 2 |];
        [| Value.String "b"; Value.Null |];
      ]
  in
  let out =
    Groupop.group_by ~group:[ Expr.Col 0 ]
      ~aggs:
        [
          { Groupop.kind = Aggregate.Sum; arg = Expr.Col 1; name = "s" };
          { Groupop.kind = Aggregate.Count; arg = Expr.Col 1; name = "c" };
          Groupop.star_count "n";
        ]
      r
  in
  let sorted = Relation.sorted_by_all out in
  let rows = Relation.to_list sorted in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  (match rows with
   | [ ra; rb ] ->
     check_value "sum a" (Value.Int 3) (Row.get ra 1);
     check_value "count a" (Value.Int 2) (Row.get ra 2);
     check_value "star a" (Value.Int 2) (Row.get ra 3);
     check_value "sum b (null skipped)" (Value.Int 10) (Row.get rb 1);
     check_value "count b" (Value.Int 1) (Row.get rb 2);
     check_value "star b" (Value.Int 2) (Row.get rb 3)
   | _ -> Alcotest.fail "expected two rows")

(* MIN/MAX over a tie of signed zeros: -0.0 orders below 0.0, as in
   [Float.min]/[Float.max], so the result's bits do not depend on the
   input order. *)
let test_group_signed_zeros () =
  let schema =
    Schema.make [ Schema.column "g" Dtype.Int; Schema.column "v" Dtype.Float ]
  in
  let bits = function
    | Value.Float f -> Int64.bits_of_float f
    | v -> Alcotest.failf "expected a float, got %s" (Value.to_string v)
  in
  let extremes values =
    let r = rel schema (List.map (fun v -> [| Value.Int 1; Value.Float v |]) values) in
    let out =
      Groupop.group_by ~group:[ Expr.Col 0 ]
        ~aggs:
          [
            { Groupop.kind = Aggregate.Min; arg = Expr.Col 1; name = "lo" };
            { Groupop.kind = Aggregate.Max; arg = Expr.Col 1; name = "hi" };
          ]
        r
    in
    let row = List.hd (Relation.to_list out) in
    (bits (Row.get row 1), bits (Row.get row 2))
  in
  List.iter
    (fun values ->
      let lo, hi = extremes values in
      Alcotest.(check int64) "MIN is -0.0" (Int64.bits_of_float (-0.)) lo;
      Alcotest.(check int64) "MAX is 0.0" (Int64.bits_of_float 0.) hi)
    [ [ 0.; -0. ]; [ -0.; 0. ]; [ 0.; -0.; 0. ]; [ -0.; 0.; -0. ] ]

let test_global_aggregate_empty () =
  let schema = Schema.make [ Schema.column "v" Dtype.Int ] in
  let out =
    Groupop.group_by
      ~aggs:[ { Groupop.kind = Aggregate.Sum; arg = Expr.Col 0; name = "s" };
              Groupop.star_count "n" ]
      (rel schema [])
  in
  Alcotest.(check int) "one row" 1 (Relation.cardinality out);
  let row = (Relation.rows out).(0) in
  check_value "sum null" Value.Null (Row.get row 0);
  check_value "count 0" (Value.Int 0) (Row.get row 1)

(* ---- Basic ops ---- *)

let test_ops () =
  let s = seq_rel "s" [ 5.; 1.; 3.; 1. ] in
  let filtered =
    Ops.filter (Expr.Binop (Expr.Gt, Expr.Col 1, Expr.Const (Value.Float 1.))) s
  in
  Alcotest.(check int) "filter" 2 (Relation.cardinality filtered);
  let proj = Ops.project [ (Expr.Col 1, "v") ] s in
  Alcotest.(check int) "project arity" 1 (Schema.arity (Relation.schema proj));
  let sorted = Sortop.sort [ Sortop.key (Expr.Col 1) ] s in
  check_value "sorted first" (Value.Float 1.) (Row.get (Relation.rows sorted).(0) 1);
  let desc = Sortop.sort [ Sortop.key ~asc:false (Expr.Col 1) ] s in
  check_value "sorted desc first" (Value.Float 5.) (Row.get (Relation.rows desc).(0) 1);
  let dis = Ops.distinct (Ops.project [ (Expr.Col 1, "v") ] s) in
  Alcotest.(check int) "distinct" 3 (Relation.cardinality dis);
  Alcotest.(check int) "limit" 2 (Relation.cardinality (Ops.limit 2 s));
  Alcotest.(check int) "union all" 8 (Relation.cardinality (Ops.union_all s s));
  Alcotest.(check int) "union" 4 (Relation.cardinality (Ops.union s s))

(* Sort keys are evaluated on demand, at most once per row: exactly the
   keys the comparisons reach, as when the comparator evaluated them. *)
let test_sort_keys_on_demand () =
  let s = seq_rel "s" [ 5.; 1.; 3. ] in
  let boom = Expr.Binop (Expr.Div, Expr.Col 0, Expr.Const (Value.Int 0)) in
  let sorted = Sortop.sort [ Sortop.key (Expr.Col 1); Sortop.key boom ] s in
  check_value "distinct first keys never reach the second" (Value.Float 1.)
    (Row.get (Relation.rows sorted).(0) 1);
  Alcotest.(check int) "a single row is never compared" 1
    (Relation.cardinality (Sortop.sort [ Sortop.key boom ] (seq_rel "s" [ 1. ])));
  Alcotest.(check bool) "a compared raising key still raises" true
    (match Sortop.sort [ Sortop.key boom ] s with
     | exception Value.Type_error _ -> true
     | _ -> false)

(* ---- The read path never forces a minor collection ----

   [caml_make_vect] runs a minor collection before it builds an array of
   more than 256 words whose fill value is a young block, and on OCaml 5
   every minor collection stops all domains.  Each operator below runs
   over 1,000 rows and allocates a small fraction of the minor heap, so
   from an empty minor heap any minor collection it starts is a forced
   one.  [Gc.full_major] empties the minor heap and also finishes the
   major cycle, whose end would empty the minor heap again mid-run. *)

let big_n = 1_000

let big_rel name =
  rel (seq_schema name)
    (List.init big_n (fun i ->
         [| Value.Int (i + 1); Value.Float (float_of_int ((i * 7919) mod 101 - 50)) |]))

let no_forced_minor (name, f) =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  f ();
  let words = Gc.minor_words () -. w0 in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  if words > float_of_int (Gc.get ()).Gc.minor_heap_size /. 2. then
    Alcotest.failf "%s allocated %.0f words: too close to a full minor heap" name words;
  Alcotest.(check int) (name ^ ": minor collections") before after

(* an operator run whose result is kept alive until it returns *)
let op name f = (name, fun () -> ignore (Sys.opaque_identity (f ())))

let test_no_forced_minor () =
  let l = big_rel "s1" and r = big_rel "s2" in
  let int k = Expr.Const (Value.Int k) in
  let eq = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 2) in
  let ordered = Index.build Index.Ordered r ~key_col:0 in
  let hashed = Index.build Index.Hash r ~key_col:0 in
  let range =
    Joinop.Probe_range
      ( Some (Expr.Binop (Expr.Sub, Expr.Col 0, int 1)),
        Some (Expr.Binop (Expr.Add, Expr.Col 0, int 1)) )
  in
  let window ?strategy func frame =
    let spec =
      { Window.partition = [ Expr.Binop (Expr.Mod, Expr.Col 0, int 2) ];
        order = [ Sortop.key (Expr.Col 0) ]; frame }
    in
    op (Printf.sprintf "window %s" (Window.func_name func)) (fun () ->
        (* a computed argument, so MIN/MAX/LAG results are fresh values *)
        let arg = Expr.Binop (Expr.Add, Expr.Col 1, int 0) in
        Window.extend ?strategy l [ { Window.func; arg; spec; name = "w" } ])
  in
  let rows_frame = Window.sliding_frame ~l:2 ~h:1 and range_frame = Window.range_frame ~l:4 ~h:2 in
  let joins kind kname =
    [
      op ("nested loop " ^ kname) (fun () -> Joinop.nested_loop kind l r eq);
      op ("hash join " ^ kname) (fun () ->
          Joinop.hash_join kind ~left:l ~right:r ~left_keys:[ Expr.Col 0 ]
            ~right_keys:[ Expr.Col 0 ] ());
      op ("index join eq " ^ kname) (fun () ->
          Joinop.index_join kind ~left:l ~right:r ~index:hashed
            ~probe:(Joinop.Probe_eq (Expr.Col 0)) ());
      op ("index join range " ^ kname) (fun () ->
          Joinop.index_join kind ~left:l ~right:r ~index:ordered ~probe:range ());
    ]
  in
  List.iter no_forced_minor
    ([
       op "filter" (fun () -> Ops.filter (Expr.Binop (Expr.Gt, Expr.Col 0, int 10)) l);
       op "project" (fun () ->
           Ops.project [ (Expr.Col 1, "v"); (Expr.Binop (Expr.Add, Expr.Col 0, int 1), "p") ] l);
       window (Window.Agg Aggregate.Sum) rows_frame;
       window (Window.Agg Aggregate.Avg) range_frame;
       window ~strategy:Window.Naive (Window.Agg Aggregate.Sum) rows_frame;
       window (Window.Agg Aggregate.Min) rows_frame;
       window (Window.Agg Aggregate.Max) Window.cumulative_frame;
       window (Window.Agg Aggregate.Min) range_frame;
       window (Window.Agg Aggregate.Max) Window.whole_partition_frame;
       window Window.Row_number rows_frame;
       window (Window.Lag 1) rows_frame;
       window Window.First_value range_frame;
     ]
    @ joins Joinop.Inner "inner"
    @ joins Joinop.Left_outer "left outer"
    @ [
        op "group by 1,000 groups" (fun () ->
            Groupop.group_by ~group:[ Expr.Col 0 ]
              ~aggs:[ { Groupop.kind = Aggregate.Sum; arg = Expr.Col 1; name = "s" } ]
              l);
        (* sorting fresh rows: a gather of old rows could never force *)
        op "sort" (fun () ->
            Sortop.sort [ Sortop.key ~asc:false (Expr.Col 0) ]
              (Ops.project [ (Expr.Col 1, "v"); (Expr.Col 0, "p") ] l));
        op "render" (fun () -> Relation.render ~max_rows:max_int l);
      ])

(* ---- Rendering is byte-identical to the Printf forms ---- *)

(* [Value.to_string] of a float as it was: the oracle. *)
let printf_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let prop_float_to_string =
  let gen =
    let open QCheck.Gen in
    frequency
      [
        (3, map (fun k -> 1e15 -. float_of_int k) (int_range (-3) 1_000));
        (3, map (fun k -> -1e15 +. float_of_int k) (int_range (-3) 1_000));
        (2, oneofl [ 0.; -0.; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
                     999_999_999_999_999.; -999_999_999_999_999.; 1e15; -1e15 ]);
        (3, map float_of_int (int_range (-1_000_000) 1_000_000));
        (3, float);
        (2, map (fun (a, b) -> float_of_int a +. (float_of_int b /. 7.))
              (pair (int_range (-100) 100) (int_range 1 6)));
      ]
  in
  QCheck.Test.make ~count:5_000 ~name:"float rendering equals the Printf form"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f -> String.equal (Value.to_string (Value.Float f)) (printf_float f))

(* Dates: the text written in place equals Printf's "%04d-%02d-%02d",
   over day numbers from years before 0 to years past 9999 (where the
   text is Printf's own), with [text_length] and the end [blit_text]
   returns agreeing. *)
let prop_date_text =
  let gen =
    let open QCheck.Gen in
    let edge y m d = Value.date_of_ymd y m d in
    frequency
      [ (4, int_range (-5_000_000) 5_000_000);
        (2, int_range (-800_000) 3_000_000);
        ( 1,
          map2 ( + ) (int_range (-2) 2)
            (oneofl [ edge 0 1 1; edge 9999 12 31; edge (-1) 12 31; edge 10000 1 1; edge 1970 1 1;
                      edge 2000 2 29; edge (-400) 3 1 ]) ) ]
  in
  QCheck.Test.make ~count:5_000 ~name:"date text equals the Printf form"
    (QCheck.make ~print:string_of_int gen)
    (fun days ->
      let y, m, d = Value.ymd_of_date days in
      let expected = Printf.sprintf "%04d-%02d-%02d" y m d in
      let v = Value.Date days in
      let b = Bytes.make (String.length expected + 2) '#' in
      let stop = Value.blit_text v b 1 in
      String.equal (Value.to_string v) expected
      && String.equal (Value.date_to_string days) expected
      && Value.text_length v = String.length expected
      && stop = 1 + String.length expected
      && String.equal (Bytes.sub_string b 1 (String.length expected)) expected
      && Bytes.get b 0 = '#'
      && Bytes.get b (stop) = '#')

(* A cell's text, built here and not by the code under test: ints by
   [string_of_int], floats by [printf_float], dates by [Printf]. *)
let cell_oracle = function
  | Value.Null -> "NULL"
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Int i -> string_of_int i
  | Value.Float f -> printf_float f
  | Value.String s -> s
  | Value.Date d ->
    let y, m, d = Value.ymd_of_date d in
    Printf.sprintf "%04d-%02d-%02d" y m d

(* [Relation.render] as it was, kept as the oracle. *)
let render_oracle ?(max_rows = 40) r =
  let headers = Array.map (fun c -> Schema.qualified_name c) (Relation.schema r) in
  let rows = Relation.rows r in
  let shown = min max_rows (Array.length rows) in
  let cells = Array.init shown (fun i -> Array.map cell_oracle rows.(i)) in
  let ncols = Array.length headers in
  let width j =
    Array.fold_left
      (fun acc row -> max acc (String.length row.(j)))
      (String.length headers.(j))
      cells
  in
  let widths = Array.init ncols width in
  let buf = Buffer.create 256 in
  let line () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row_of cells =
    Buffer.add_char buf '|';
    Array.iteri
      (fun j c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make (widths.(j) - String.length c + 1) ' ');
        Buffer.add_char buf '|')
      cells;
    Buffer.add_char buf '\n'
  in
  line ();
  row_of headers;
  line ();
  Array.iter row_of cells;
  line ();
  if shown < Array.length rows then
    Buffer.add_string buf
      (Printf.sprintf "... (%d of %d rows shown)\n" shown (Array.length rows));
  Buffer.contents buf

let prop_render_oracle =
  let gen =
    let open QCheck.Gen in
    int_range 0 4 >>= fun ncols ->
    let value =
      frequency
        [ (6, gen_value);
          (1, map (fun s -> Value.String s) (string_size ~gen:printable (int_range 0 12)));
          (1, map (fun f -> Value.Float f) float);
          (* Int extremes and multi-digit negatives *)
          ( 2,
            map (fun i -> Value.Int i)
              (oneof
                 [ oneofl [ min_int; max_int; min_int + 1; max_int - 1; -10; -99; -100 ];
                   int_range (-1_000_000_000) (-10); int ]) );
          (* integral floats at the edge of the digit path, -0.0,
             non-integral floats, nan and the infinities *)
          ( 2,
            map (fun f -> Value.Float f)
              (oneof
                 [ map (fun k -> 1e15 -. float_of_int k) (int_range 0 3);
                   map (fun k -> -1e15 +. float_of_int k) (int_range 0 3);
                   oneofl [ -0.; 0.; 1e15; -1e15; Float.nan; Float.infinity;
                            Float.neg_infinity; 0.1; -2.5; 1e-7; 123456.789 ] ]) );
          (1, map (fun d -> Value.Date d) (int_range (-1_000) 40_000));
          (* strings a JSON encoder has to escape *)
          ( 1,
            map (fun s -> Value.String s)
              (string_size ~gen:(oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; 'a'; ' ' ])
                 (int_range 0 8)) );
        ]
    in
    triple
      (list_repeat ncols
         (pair (opt (oneofl [ "t"; "seq" ])) (string_size ~gen:(char_range 'a' 'z') (int_range 1 9))))
      (pair (list_size (int_range 0 30) (map Array.of_list (list_repeat ncols value)))
         (int_range 1 40))
      (opt (int_range 0 35))
  in
  QCheck.Test.make ~count:2_000 ~name:"render equals the old render"
    (QCheck.make gen)
    (fun (cols, (rows, chunk), max_rows) ->
      let schema =
        Schema.make (List.map (fun (rel, name) -> Schema.column ?rel name Dtype.String) cols)
      in
      (* rows cut into chunks of [chunk] rows, so [max_rows] can fall
         inside any chunk *)
      let rows = Array.of_list rows in
      let r =
        Relation.of_chunks schema
          (Array.init
             ((Array.length rows + chunk - 1) / chunk)
             (fun c ->
               Relation.chunk schema
                 (Array.sub rows (c * chunk) (min chunk (Array.length rows - (c * chunk))))))
      in
      String.equal (Relation.render ?max_rows r) (render_oracle ?max_rows r)
      && Array.for_all
           (Array.for_all (fun v -> String.equal (Value.to_string v) (cell_oracle v)))
           rows)

(* ---- Sorting against a stable list sort ----

   Rows carry their input position in column 2, so the oracle is
   [List.stable_sort] (ties keep input order: the index tie-break).
   Inputs are random, already ordered, reverse ordered or all equal,
   with NULL keys and descending keys. *)

let gen_sort_case =
  let open QCheck.Gen in
  let key_value = frequency [ (1, return Value.Null); (5, map (fun i -> Value.Int i) (int_range 0 3)) ] in
  let key = pair (int_bound 1) bool in
  quad
    (list_size (int_range 0 40) (pair key_value key_value))
    (list_size (int_range 1 3) key)
    (list_size (int_range 0 2) (int_bound 1))
    (oneofl [ `Random; `Ordered; `Reversed; `Equal ])

let sort_oracle keys rows =
  let cmp a b =
    List.fold_left
      (fun c (k : Sortop.key) ->
        if c <> 0 then c
        else
          let c = Value.compare (Expr.eval a k.expr) (Expr.eval b k.expr) in
          if k.asc then c else -c)
      0 keys
  in
  List.stable_sort cmp rows

let sort_input (pairs, keys, parts, shape) =
  let keys = List.map (fun (c, asc) -> Sortop.key ~asc (Expr.Col c)) keys in
  let parts = List.map (fun c -> Expr.Col c) parts in
  let rows = List.map (fun (a, b) -> [| a; b; Value.Null |]) pairs in
  let rows =
    match shape with
    | `Random -> rows
    | `Ordered -> sort_oracle (List.map Sortop.key parts @ keys) rows
    | `Reversed -> List.rev (sort_oracle (List.map Sortop.key parts @ keys) rows)
    | `Equal -> List.map (fun _ -> [| Value.Int 1; Value.Int 1; Value.Null |]) rows
  in
  let rows = List.mapi (fun i row -> [| row.(0); row.(1); Value.Int i |]) rows in
  (keys, parts, rows)

let positions rows = List.map (fun row -> row.(2)) rows

let prop_sort_oracle =
  QCheck.Test.make ~count:2_000 ~name:"sort equals a stable list sort"
    (QCheck.make gen_sort_case)
    (fun case ->
      let keys, _, rows = sort_input case in
      let schema =
        Schema.make (List.map (fun n -> Schema.column n Dtype.Int) [ "a"; "b"; "i" ])
      in
      let sorted = Sortop.sort keys (Relation.of_array schema (Array.of_list rows)) in
      positions (Relation.to_list sorted) = positions (sort_oracle keys rows))

let prop_partition_sort_oracle =
  QCheck.Test.make ~count:2_000 ~name:"partition_sort equals a stable list sort"
    (QCheck.make gen_sort_case)
    (fun case ->
      let keys, parts, rows = sort_input case in
      let arr = Array.of_list rows in
      let { Sortop.idx; segments; _ } = Sortop.partition_sort parts keys arr in
      let expected = sort_oracle (List.map Sortop.key parts @ keys) rows in
      let part_of row = List.map (Expr.eval row) parts in
      let boundaries =
        List.filteri
          (fun k row -> k = 0 || part_of row <> part_of (List.nth expected (k - 1)))
          expected
        |> List.length
      in
      positions (Array.to_list (Array.map (fun i -> arr.(i)) idx)) = positions expected
      && List.length segments = boundaries
      && List.for_all
           (fun (start, stop) ->
             start < stop
             && List.for_all
                  (fun k -> part_of arr.(idx.(k)) = part_of arr.(idx.(start)))
                  (List.init (stop - start) (fun k -> start + k)))
           segments
      && List.fold_left (fun at (start, stop) -> if at = start then stop else -1) 0 segments
         = Array.length arr)

(* ---- Index joins with range probes against the nested loop ---- *)

let prop_index_range_join =
  let gen =
    let open QCheck.Gen in
    let pos = frequency [ (1, return Value.Null); (6, map (fun i -> Value.Int i) (int_range 0 12)) ] in
    let side = list_size (int_range 0 25) (map (fun p -> [| p; Value.Float 1. |]) pos) in
    quad side side
      (pair (opt (int_range 0 3)) (opt (int_range 0 3)))
      (pair bool (opt (int_range 1 3)))
  in
  QCheck.Test.make ~count:1_000 ~name:"index range join equals nested loop"
    (QCheck.make gen)
    (fun (lrows, rrows, (lo, hi), (outer, residual)) ->
      let l = rel (seq_schema "s1") lrows and r = rel (seq_schema "s2") rrows in
      let kind = if outer then Joinop.Left_outer else Joinop.Inner in
      let int k = Expr.Const (Value.Int k) in
      let lo = Option.map (fun d -> Expr.Binop (Expr.Sub, Expr.Col 0, int d)) lo in
      let hi = Option.map (fun d -> Expr.Binop (Expr.Add, Expr.Col 0, int d)) hi in
      (* MOD(s1.pos - 1, m) = MOD(s2.pos, m): the derive residual's shape *)
      let residual =
        Option.map
          (fun m ->
            Expr.Binop
              ( Expr.Eq,
                Expr.Binop (Expr.Mod, Expr.Binop (Expr.Sub, Expr.Col 0, int 1), int m),
                Expr.Binop (Expr.Mod, Expr.Col 2, int m) ))
          residual
      in
      let cond =
        Expr.conjoin
          (List.filter_map Fun.id
             [
               Option.map (fun e -> Expr.Binop (Expr.Ge, Expr.Col 2, e)) lo;
               Option.map (fun e -> Expr.Binop (Expr.Le, Expr.Col 2, e)) hi;
               residual;
             ])
      in
      (* NULL keys are not indexed, so even an unbounded probe skips them *)
      let cond = Expr.Binop (Expr.And, Expr.Is_not_null (Expr.Col 2), cond) in
      let index = Index.build Index.Ordered r ~key_col:0 in
      let ij =
        Joinop.index_join kind ~left:l ~right:r ~index ~probe:(Joinop.Probe_range (lo, hi))
          ?residual ()
      in
      Relation.equal_bag ij (Joinop.nested_loop kind l r cond))

(* ---- Chunked, zone-mapped storage (qcheck) ----

   A filter over a stored relation skips the chunks whose zones rule out
   a top-level Int conjunct.  Against the unpruned oracle — [Expr.holds]
   on every row of the flat array — it must keep the same rows (the same
   physical rows, so the same bits), in the same order, and raise where
   the oracle raises.  The relations are cut into chunks at random,
   their Int columns hold NULLs and, in column c, Floats too; the
   predicates mix Int, Float and NULL constants under AND, OR and NOT,
   plus a conjunct that raises on every row with a non-NULL a. *)

let zone_schema =
  Schema.make
    [ Schema.column "a" Dtype.Int; Schema.column "b" Dtype.Float; Schema.column "c" Dtype.Int ]

let gen_zone_row =
  let open QCheck.Gen in
  let or_null g = frequency [ (1, return Value.Null); (9, g) ] in
  let a = or_null (map (fun i -> Value.Int i) (int_range (-20) 20)) in
  let b =
    or_null (map (fun f -> Value.Float f) (oneofl [ -2.5; -1.; -0.; 0.; 0.5; 3.; 7.25 ]))
  in
  let c =
    or_null
      (frequency
         [
           (6, map (fun i -> Value.Int i) (int_range (-5) 5));
           (3, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-5) 5));
           (1, map (fun i -> Value.Float (float_of_int i)) (int_range (-5) 5));
         ])
  in
  map3 (fun a b c -> [| a; b; c |]) a b c

let gen_zone_pred =
  let open QCheck.Gen in
  let const =
    frequency
      [
        (6, map (fun i -> Value.Int i) (int_range (-6) 6));
        (2, map (fun i -> Value.Int i) (int_range (-22) 22));
        (2, map (fun i -> Value.Float (float_of_int i /. 2.)) (int_range (-12) 12));
        (1, return Value.Null);
        (1, oneofl [ Value.Int min_int; Value.Int max_int ]);
      ]
  in
  let op = oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let col = map (fun i -> Expr.Col i) (int_range 0 2) in
  let atom =
    frequency
      [
        (5, map3 (fun op c k -> Expr.Binop (op, c, Expr.Const k)) op col const);
        (2, map3 (fun op k c -> Expr.Binop (op, Expr.Const k, c)) op const col);
        (2, map3 (fun c lo hi -> Expr.Between (c, Expr.Const lo, Expr.Const hi)) col const const);
        (1, map (fun c -> Expr.Is_null c) col);
        ( 1,
          return
            Expr.(
              Binop (Eq, Binop (Div, Col 0, Const (Value.Int 0)), Const (Value.Int 1))) );
      ]
  in
  sized_size (int_range 0 3)
    (fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [
               (2, atom);
               (4, map2 (fun a b -> Expr.Binop (Expr.And, a, b)) (self (n - 1)) (self (n - 1)));
               (2, map2 (fun a b -> Expr.Binop (Expr.Or, a, b)) (self (n - 1)) (self (n - 1)));
               (2, map (fun a -> Expr.Unop (Expr.Not, a)) (self (n - 1)));
             ]))

(* rows, the sizes to cut them into, and a predicate *)
let arb_zone_scan =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (rows, cuts, pred) ->
      Printf.sprintf "%d rows, cuts [%s], %s" (List.length rows)
        (String.concat "; " (List.map string_of_int cuts))
        (Expr.to_string pred))
    (triple
       (list_size (int_range 0 700) gen_zone_row)
       (list_size (int_range 1 8) (frequency [ (3, int_range 1 16); (2, int_range 1 256) ]))
       gen_zone_pred)

(* [rows] stored in chunks of the sizes in [cuts], cycled *)
let chunked rows cuts =
  let rows = Array.of_list rows in
  let cuts = Array.of_list cuts in
  let rec go at k acc =
    if at >= Array.length rows then List.rev acc
    else
      let n = min cuts.(k mod Array.length cuts) (Array.length rows - at) in
      go (at + n) (k + 1) (Relation.chunk zone_schema (Array.sub rows at n) :: acc)
  in
  Relation.of_chunks zone_schema (Array.of_list (go 0 0 []))

let prop_zone_pruned_scan (rows, cuts, pred) =
  let outcome f = match f () with rows -> Ok rows | exception Value.Type_error m -> Error m in
  let expected = outcome (fun () -> List.filter (fun row -> Expr.holds row pred) rows) in
  let stored = chunked rows cuts in
  let scan = Rfview_planner.Physical.Scan { table = "t"; schema = zone_schema } in
  let cat =
    {
      Rfview_planner.Physical.table_contents = (fun _ -> stored);
      table_index = (fun ~table:_ ~column:_ -> None);
    }
  in
  let same = function
    | Ok a, Ok b -> List.length a = List.length b && List.for_all2 ( == ) a b
    | Error _, Error _ -> true
    | _ -> false
  in
  same (expected, outcome (fun () -> Relation.to_list (Ops.filter pred stored)))
  && same
       ( expected,
         outcome (fun () ->
             Relation.to_list
               (Rfview_planner.Physical.execute cat
                  (Rfview_planner.Physical.Filter { input = scan; pred }))) )

(* The zones prune at all: a point lookup over 2,000 rows in key order
   reads one chunk, and NULL, Float and mixed-type conjuncts read all. *)
let test_zone_pruning_reads () =
  let rows = List.init 2000 (fun i -> [| Value.Int i; Value.Float 1.; Value.Int (i mod 7) |]) in
  let stored = Relation.store (Relation.of_rev_list zone_schema (List.rev rows)) in
  let admitted pred =
    Array.fold_left
      (fun n c ->
        if Relation.admits_chunk (Expr.int_ranges pred) c then n + Relation.chunk_length c else n)
      0 (Relation.chunks stored)
  in
  let cmp op c k = Expr.Binop (op, Expr.Col c, Expr.Const k) in
  Alcotest.(check int) "a = 700" Relation.chunk_size (admitted (cmp Expr.Eq 0 (Value.Int 700)));
  Alcotest.(check int) "a < 0" 0 (admitted (cmp Expr.Lt 0 (Value.Int 0)));
  Alcotest.(check int) "a = 700 OR a = 5" 2000
    (admitted (Expr.Binop (Expr.Or, cmp Expr.Eq 0 (Value.Int 700), cmp Expr.Eq 0 (Value.Int 5))));
  Alcotest.(check int) "NOT a <> 700" 2000
    (admitted (Expr.Unop (Expr.Not, cmp Expr.Neq 0 (Value.Int 700))));
  Alcotest.(check int) "a = 700.0" 2000 (admitted (cmp Expr.Eq 0 (Value.Float 700.)));
  Alcotest.(check int) "b = 1" 2000 (admitted (cmp Expr.Eq 1 (Value.Int 1)));
  Alcotest.(check int) "a = NULL" 2000 (admitted (cmp Expr.Eq 0 Value.Null))

(* ---- Keyed edits: key summaries ----

   [Relation.edit] visits a chunk only when its zone admits one of the
   range lists and, for a point inside a wide zone, its sorted key
   summary holds a value in every range.  The reference below is the
   zone-only rule written out with the public API: the same visits,
   merges and sharing, without summaries.  Rows come in random key
   order through [append_rows], as INSERTs leave a table: small keys
   with duplicates, wide and negative ones, [min_int] and [max_int],
   NULLs, and a Float now and then in the Int column c. *)

let reference_edit r ~admit f =
  let schema = Relation.schema r in
  let out = ref [] and changed = ref false in
  Array.iter
    (fun c ->
      let visit = List.exists (fun ranges -> Relation.admits_chunk ranges c) admit in
      match if visit then f (Relation.chunk_rows c) else None with
      | None -> out := c :: !out
      | Some rows -> (
        changed := true;
        if Array.length rows > 0 then
          match !out with
          | prev :: rest when Relation.chunk_length prev + Array.length rows <= Relation.chunk_size
            ->
            out := Relation.chunk schema (Array.append (Relation.chunk_rows prev) rows) :: rest
          | _ -> out := Relation.chunk schema rows :: !out))
    (Relation.chunks r);
  if not !changed then r else Relation.of_rev_chunks schema !out

(* [odd] cases add [min_int], [max_int] and, in column c, Floats: rare
   enough that some chunks stay summarizable *)
let gen_edit_key ~odd =
  QCheck.Gen.(
    frequency
      ([
         (30, map (fun i -> Value.Int i) (int_range (-20) 20));
         (60, map (fun i -> Value.Int i) (int_range (-1_000_000) 1_000_000));
         (5, return Value.Null);
       ]
      @
      if odd then [ (1, oneofl [ Value.Int min_int; Value.Int max_int; Value.Int (min_int + 1) ]) ]
      else []))

let gen_edit_row ~odd =
  QCheck.Gen.(
    map3
      (fun a b c -> [| a; Value.Float (float_of_int b); c |])
      (gen_edit_key ~odd) (int_range 0 3)
      (frequency
         ((100, gen_edit_key ~odd)
         ::
         (if odd then [ (1, map (fun i -> Value.Float (float_of_int i)) (int_range (-3) 3)) ]
          else []))))

(* the keys of [rows], and the extremes, as range bounds *)
let gen_bound rows =
  let keys =
    List.concat_map
      (fun (row : Row.t) ->
        List.filter_map
          (function Value.Int k -> Some k | Value.Float f -> Some (int_of_float f) | _ -> None)
          [ row.(0); row.(2) ])
      rows
  in
  QCheck.Gen.(
    frequency
      ((if keys = [] then [] else [ (6, oneofl keys) ])
      @ [
          (3, int_range (-1_000_000) 1_000_000);
          (1, oneofl [ min_int; max_int; 0 ]);
        ]))

let gen_ranges rows =
  QCheck.Gen.(
    list_size (frequency [ (1, return 0); (8, return 1); (3, return 2) ])
      (map3
         (fun c lo width -> (c, lo, if width < 0 then lo - 1 else lo + width))
         (oneofl [ 0; 2 ])
         (gen_bound rows)
         (frequency [ (6, return 0); (2, int_range 0 50); (1, return (-1)) ])))

type edit_kind = Drop | Rewrite | Replay

(* rows in append batches, then three edits: kind, admit lists, and
   pre-images for the replay shape *)
let arb_keyed_edit =
  let open QCheck.Gen in
  let gen =
    bool >>= fun odd ->
    list_size (int_range 0 1_200) (gen_edit_row ~odd) >>= fun rows ->
    list_size (int_range 1 6) (frequency [ (3, int_range 1 8); (2, int_range 1 400) ])
    >>= fun batches ->
    list_repeat 3
      (triple
         (oneofl [ Drop; Rewrite; Replay ])
         (list_size (int_range 1 3) (gen_ranges rows))
         (list_size (int_range 0 4)
            (if rows = [] then gen_edit_row ~odd
             else
               (* a stored FLOAT 2.0 is the pre-image INT 2 *)
               map
                 (fun (row : Row.t) ->
                   match row.(2) with
                   | Value.Float f -> [| row.(0); row.(1); Value.Int (int_of_float f) |]
                   | _ -> row)
                 (oneofl rows))))
    >>= fun edits -> return (rows, batches, edits)
  in
  QCheck.make
    ~print:(fun (rows, batches, _) ->
      Printf.sprintf "%d rows in batches [%s]" (List.length rows)
        (String.concat "; " (List.map string_of_int batches)))
    gen

let appended schema rows batches =
  let rows = Array.of_list rows and batches = Array.of_list batches in
  let rec go r at k =
    if at >= Array.length rows then r
    else
      let n = min batches.(k mod Array.length batches) (Array.length rows - at) in
      go (Relation.append_rows r (Array.sub rows at n)) (at + n) (k + 1)
  in
  go (Relation.store (Relation.empty schema)) 0 0

(* whether [row]'s column [c] lies in [[lo, hi]] for every range, by
   SQL comparison, under which a Float in an Int column can match too *)
let in_ranges (row : Row.t) ranges =
  List.for_all
    (fun (c, lo, hi) ->
      match row.(c) with
      | Value.Int v -> lo <= v && v <= hi
      | Value.Float f -> lo <= hi && float_of_int lo <= f && f <= float_of_int hi
      | _ -> false)
    ranges

(* A fresh chunk rewrite of the kind, and a probe of its state after the
   edit: the replay shape consumes pre-images in table order. *)
let edit_fn kind admit pre_images =
  let hit row = List.exists (in_ranges row) admit in
  match kind with
  | Drop ->
    ( (fun rows ->
        if Array.exists hit rows then
          Some (Array.of_list (List.filter (fun row -> not (hit row)) (Array.to_list rows)))
        else None),
      fun () -> 0 )
  | Rewrite ->
    ( (fun rows ->
        if Array.exists hit rows then
          Some
            (Array.map
               (fun (row : Row.t) -> if hit row then [| row.(0); Value.Float 9.; row.(2) |] else row)
               rows)
        else None),
      fun () -> 0 )
  | Replay ->
    let pending = ref pre_images in
    let take row =
      let rec go acc = function
        | [] -> false
        | x :: rest when Row.equal x row ->
          pending := List.rev_append acc rest;
          true
        | x :: rest -> go (x :: acc) rest
      in
      go [] !pending
    in
    ( (fun rows ->
        if !pending = [] then None
        else
          let kept = List.filter (fun row -> not (take row)) (Array.to_list rows) in
          if List.length kept = Array.length rows then None else Some (Array.of_list kept)),
      fun () -> List.length !pending )

(* the replay shape's admit lists: each pre-image's Int columns *)
let pre_image_ranges (row : Row.t) =
  List.filter_map Fun.id
    (List.mapi
       (fun j v -> match v with Value.Int k -> Some (j, k, k) | _ -> None)
       (Array.to_list row))

let prop_keyed_edit (rows, batches, edits) =
  let r0 = appended zone_schema rows batches in
  (* kept rows are the same blocks; rewritten ones are fresh *)
  let same_rows a b =
    List.length a = List.length b && List.for_all2 (fun (x : Row.t) y -> x == y || x = y) a b
  in
  let step r (kind, admit, pre_images) =
    let admit = if kind = Replay then List.map pre_image_ranges pre_images else admit in
    let run edit =
      let f, left = edit_fn kind admit pre_images in
      let calls = ref [] in
      let out =
        edit r ~admit (fun rows ->
            let res = f rows in
            calls := (rows, res) :: !calls;
            res)
      in
      (out, List.rev !calls, left ())
    in
    let got, got_calls, got_left = run (fun r ~admit f -> Relation.edit r ~admit f) in
    let want, want_calls, want_left = run reference_edit in
    let results calls = List.filter_map (fun (_, res) -> res) calls in
    (* every chunk [edit] skipped was one [f] left unchanged *)
    let rec subsequence a b =
      match a, b with
      | [], _ -> true
      | _, [] -> false
      | (x, _) :: a', (y, _) :: b' -> if x == y then subsequence a' b' else subsequence a b'
    in
    let got_chunks = Relation.chunks got and want_chunks = Relation.chunks want in
    let ok =
      (got == r) = (want == r)
      && same_rows (Relation.to_list got) (Relation.to_list want)
      && Array.length got_chunks = Array.length want_chunks
      && Array.for_all2
           (fun g w ->
             (* a chunk the reference kept is kept, not copied *)
             Relation.chunk_length g = Relation.chunk_length w
             && ((not (Array.exists (( == ) w) (Relation.chunks r))) || g == w))
           got_chunks want_chunks
      && List.length (results got_calls) = List.length (results want_calls)
      && List.for_all2
           (fun a b -> same_rows (Array.to_list a) (Array.to_list b))
           (results got_calls) (results want_calls)
      && subsequence got_calls want_calls
      && got_left = want_left
    in
    if not ok then QCheck.Test.fail_reportf "edit differs from the zone-only reference";
    got
  in
  ignore (List.fold_left step r0 edits);
  true

(* After 10,000 rows appended one at a time in random key order, every
   zone spans most keys, yet a point edit hands [f] only the chunk that
   holds the key, and a key between two stored ones reaches no chunk. *)
let test_keyed_edit_prunes () =
  let n = 10_000 in
  let keys = Array.init n (fun i -> 2 * i) in
  Rfview_workload.Prng.shuffle (Rfview_workload.Prng.create ~seed:29) keys;
  let r =
    Array.fold_left
      (fun r k ->
        Relation.append_rows r [| [| Value.Int k; Value.Float 0.; Value.Int (k mod 7) |] |])
      (Relation.store (Relation.empty zone_schema))
      keys
  in
  let seen k =
    let chunks = ref 0 in
    let holds rows = Array.exists (fun (row : Row.t) -> row.(0) = Value.Int k) rows in
    ignore
      (Relation.edit r ~admit:[ [ (0, k, k) ] ] (fun rows ->
           incr chunks;
           if not (holds rows) then Alcotest.failf "key %d: a chunk without it" k;
           None));
    !chunks
  in
  List.iter
    (fun k -> Alcotest.(check int) (Printf.sprintf "key %d" k) 1 (seen k))
    [ 0; 2; 9_998; 19_998; keys.(0); keys.(n - 1) ];
  List.iter
    (fun k -> Alcotest.(check int) (Printf.sprintf "key %d" k) 0 (seen k))
    [ 1; 777; 19_997 ]

(* ---- The executor: every join algorithm, one answer ----

   Random small tables l and r of (k FLOAT, v INT), stored in chunks
   of random sizes, with keys that SQL equality folds together: INT and
   FLOAT of one value, 0.0 and -0.0, and NULL.  Each join algorithm runs
   the shape UNION ALL of (join -> Project) for an inner and a LEFT
   OUTER join, then GROUP BY and DISTINCT over it, and DISTINCT over a
   join without a projection.  Every algorithm gives the same rows in
   the same order.  GROUP BY and
   DISTINCT match a nested-loop oracle over SQL key equality. *)

module Ph = Rfview_planner.Physical

let exec_schema name =
  Schema.make [ Schema.column ~rel:name "k" Dtype.Float; Schema.column ~rel:name "v" Dtype.Int ]

(* [rows] stored in chunks of [cut] rows *)
let stored_in schema rows cut =
  let rows = Array.of_list rows in
  let n = Array.length rows in
  Relation.of_chunks schema
    (Array.init ((n + cut - 1) / cut) (fun c ->
         Relation.chunk schema (Array.sub rows (c * cut) (min cut (n - (c * cut))))))

let gen_exec_key =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Value.Int k) (int_range (-2) 2));
        (3, map (fun k -> Value.Float (float_of_int k)) (int_range (-2) 2));
        (2, oneofl [ Value.Float 0.; Value.Float (-0.); Value.Float 0.5 ]);
        (1, return Value.Null);
      ])

let gen_exec_table =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 40)
         (map2
            (fun k v -> [| k; v |])
            gen_exec_key
            (frequency [ (5, map (fun v -> Value.Int v) (int_range (-9) 9)); (1, return Value.Null) ])))
      (int_range 1 7))

(* SQL key equality, written out: NULL groups with NULL, numbers by
   their value (so 0.0 meets -0.0 and INT 1 meets FLOAT 1.0). *)
let sql_key_eq a b =
  match a, b with
  | Value.Null, Value.Null -> true
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.to_float a = Value.to_float b
  | _ -> false

let sql_row_eq a b = Array.length a = Array.length b && Array.for_all2 sql_key_eq a b

(* rows as exact text: INT 1 is not FLOAT 1.0, nor 0.0 -0.0 *)
let row_texts rows =
  List.map (fun row -> String.concat "|" (Array.to_list (Array.map Value.to_string row))) rows

let texts r = row_texts (Relation.to_list r)

(* GROUP BY column 0 with COUNT star and SUM of column 1, in order of
   first appearance, each group keyed by its first key *)
let group_oracle rows =
  let groups = ref [] in
  List.iter
    (fun row ->
      match List.find_opt (fun (k, _) -> sql_key_eq k row.(0)) !groups with
      | Some (_, members) -> members := row :: !members
      | None -> groups := (row.(0), ref [ row ]) :: !groups)
    rows;
  List.rev_map
    (fun (k, members) ->
      let vs = List.filter_map (fun row -> match row.(1) with Value.Int v -> Some v | _ -> None) !members in
      [| k; Value.Int (List.length !members);
         (if vs = [] then Value.Null else Value.Int (List.fold_left ( + ) 0 vs)) |])
    !groups

let distinct_oracle rows =
  List.rev
    (List.fold_left
       (fun seen row -> if List.exists (sql_row_eq row) seen then seen else row :: seen)
       [] rows)

let prop_executor_agrees ((lrows, lcut), (rrows, rcut), with_residual) =
  let l = stored_in (exec_schema "l") lrows lcut and r = stored_in (exec_schema "r") rrows rcut in
  let cat =
    {
      Ph.table_contents = (function "l" -> l | _ -> r);
      table_index =
        (fun ~table ~column ->
          if table = "r" && column = "k" then Some (Index.build Index.Hash r ~key_col:0) else None);
    }
  in
  let side t = Ph.Alias { input = Ph.Scan { table = t; schema = exec_schema t }; rel = t } in
  let eq = Expr.Binop (Expr.Eq, Expr.Col 0, Expr.Col 2) in
  (* l.v <= r.v *)
  let residual = if with_residual then Some (Expr.Binop (Expr.Le, Expr.Col 1, Expr.Col 3)) else None in
  let cond = match residual with Some res -> Expr.conjoin [ eq; res ] | None -> eq in
  let algos =
    [
      Ph.Nested_loop;
      Ph.Hash { left_keys = [ Expr.Col 0 ]; right_keys = [ Expr.Col 0 ]; residual };
      Ph.Index_nl { table = "r"; column = "k"; probe = Ph.P_eq (Expr.Col 0); residual };
    ]
  in
  let join kind algo = Ph.Join { kind; algo; left = side "l"; right = side "r"; cond } in
  let exprs = [ (Expr.Col 0, "k"); (Expr.Binop (Expr.Add, Expr.Col 1, Expr.Col 3), "v") ] in
  let shape algo =
    Ph.Union_all
      {
        left = Ph.Project { input = join Joinop.Inner algo; exprs };
        right = Ph.Project { input = join Joinop.Left_outer algo; exprs };
      }
  in
  let aggs =
    [ Groupop.star_count "n"; { Groupop.kind = Aggregate.Sum; arg = Expr.Col 1; name = "s" } ]
  in
  let run algo =
    let u = Ph.execute cat (shape algo) in
    let grouped = Ph.execute cat (Ph.Aggregate { input = shape algo; group = [ Expr.Col 0 ]; aggs }) in
    let distinct = Ph.execute cat (Ph.Distinct (shape algo)) in
    let j = Ph.execute cat (join Joinop.Left_outer algo) in
    let joined = Ph.execute cat (Ph.Distinct (join Joinop.Left_outer algo)) in
    let against what got expected =
      if texts got <> row_texts expected then
        QCheck.Test.fail_reportf "%s differs from the oracle:@.%s@.oracle:@.%s" what
          (String.concat "\n" (texts got))
          (String.concat "\n" (row_texts expected))
    in
    against "GROUP BY" grouped (group_oracle (Relation.to_list u));
    against "DISTINCT" distinct (distinct_oracle (Relation.to_list u));
    against "DISTINCT over a join" joined (distinct_oracle (Relation.to_list j));
    (texts u, texts grouped, joined)
  in
  match List.map run algos with
  | [ nl; hash; (iu, _, ij) ] ->
    let (nu, ng, nj) = nl and (hu, hg, hj) = hash in
    let same what a b =
      if a <> b then
        QCheck.Test.fail_reportf "%s:@.%s@.against:@.%s" what (String.concat "\n" a)
          (String.concat "\n" b)
    in
    same "hash and nested loop: UNION ALL" hu nu;
    same "hash and nested loop: GROUP BY" hg ng;
    same "hash and nested loop: DISTINCT over a join" (texts hj) (texts nj);
    same "index and nested loop: UNION ALL" iu nu;
    same "index and nested loop: DISTINCT over a join" (texts ij) (texts nj);
    true
  | _ -> false

let arb_executor =
  QCheck.make
    ~print:(fun ((l, lc), (r, rc), res) ->
      let show rows = String.concat " " (List.map Row.to_string rows) in
      Printf.sprintf "l (chunks of %d): %s\nr (chunks of %d): %s\nresidual: %b" lc (show l) rc
        (show r) res)
    QCheck.Gen.(triple gen_exec_table gen_exec_table bool)

let () =
  Alcotest.run "relalg"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "arith" `Quick test_value_arith;
          Alcotest.test_case "floored mod" `Quick test_floored_mod;
          Alcotest.test_case "dates" `Quick test_dates;
          QCheck_alcotest.to_alcotest prop_date_roundtrip;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "three-valued" `Quick test_expr_three_valued;
          Alcotest.test_case "in/between" `Quick test_expr_in_between;
          Alcotest.test_case "functions" `Quick test_expr_functions;
          Alcotest.test_case "typing" `Quick test_expr_typing;
          QCheck_alcotest.to_alcotest prop_compile_agrees;
        ] );
      ("schema", [ Alcotest.test_case "lookup" `Quick test_schema_lookup ]);
      ( "index",
        [
          Alcotest.test_case "equality" `Quick test_index_eq;
          Alcotest.test_case "range" `Quick test_index_range;
        ] );
      ( "join",
        [
          Alcotest.test_case "algorithms agree" `Quick test_joins_agree;
          Alcotest.test_case "left outer" `Quick test_left_outer;
          Alcotest.test_case "range join" `Quick test_range_join;
          Alcotest.test_case "IN-probe dedup" `Quick test_probe_in_dedup;
        ] );
      ( "group",
        [
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "global empty" `Quick test_global_aggregate_empty;
          Alcotest.test_case "MIN/MAX over signed zeros" `Quick test_group_signed_zeros;
        ] );
      ( "ops",
        [
          Alcotest.test_case "basics" `Quick test_ops;
          Alcotest.test_case "sort keys on demand" `Quick test_sort_keys_on_demand;
          QCheck_alcotest.to_alcotest prop_sort_oracle;
          QCheck_alcotest.to_alcotest prop_partition_sort_oracle;
        ] );
      ( "read path",
        [
          Alcotest.test_case "no forced minor collection" `Quick test_no_forced_minor;
          QCheck_alcotest.to_alcotest prop_float_to_string;
          QCheck_alcotest.to_alcotest prop_date_text;
          QCheck_alcotest.to_alcotest prop_render_oracle;
          QCheck_alcotest.to_alcotest prop_index_range_join;
        ] );
      ( "executor",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:300
               ~name:"join algorithms, GROUP BY and DISTINCT agree with SQL-equality oracles"
               arb_executor prop_executor_agrees);
        ] );
      ( "zones",
        [
          Alcotest.test_case "what prunes" `Quick test_zone_pruning_reads;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:2000 ~name:"zone-pruned scan equals the unpruned filter"
               arb_zone_scan prop_zone_pruned_scan);
          Alcotest.test_case "a point edit visits only the chunks that hold the key" `Quick
            test_keyed_edit_prunes;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:1000 ~name:"keyed edits equal the zone-only reference"
               arb_keyed_edit prop_keyed_edit);
        ] );
    ]
