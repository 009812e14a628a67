(* Tests of the native window (reporting-function) operator: frames,
   partitioning, ordering, NULL handling, and equivalence of the naive and
   incremental execution strategies. *)

open Rfview_relalg

let value_testable = Alcotest.testable Value.pp Value.equal
let check_value = Alcotest.check value_testable

let schema =
  Schema.make
    [
      Schema.column "grp" Dtype.String;
      Schema.column "pos" Dtype.Int;
      Schema.column "val" Dtype.Float;
    ]

let mk rows =
  Relation.of_array schema
    (Array.of_list
       (List.map
          (fun (g, p, v) ->
            [| Value.String g; Value.Int p;
               (match v with None -> Value.Null | Some f -> Value.Float f) |])
          rows))

let simple_rows = List.init 6 (fun i -> ("a", i + 1, Some (float_of_int (i + 1))))

let window_fn ?(partition = []) ?(order = [ Sortop.key (Expr.Col 1) ]) agg frame name =
  {
    Window.func = Window.Agg agg;
    arg = Expr.Col 2;
    spec = { Window.partition; order; frame };
    name;
  }

let column r i = Array.to_list (Relation.column_values r i)

let vi i = Value.Int i
let vf f = Value.Float f

(* ---- Frames ---- *)

let test_cumulative () =
  let out =
    Window.extend (mk simple_rows)
      [ window_fn Aggregate.Sum Window.cumulative_frame "c" ]
  in
  Alcotest.(check (list value_testable)) "running sum"
    [ vf 1.; vf 3.; vf 6.; vf 10.; vf 15.; vf 21. ]
    (column out 3)

let test_sliding () =
  let out =
    Window.extend (mk simple_rows)
      [ window_fn Aggregate.Sum (Window.sliding_frame ~l:1 ~h:1) "c" ]
  in
  Alcotest.(check (list value_testable)) "centered window"
    [ vf 3.; vf 6.; vf 9.; vf 12.; vf 15.; vf 11. ]
    (column out 3)

let test_prospective () =
  (* the paper's 7-day prospective average, scaled down: CURRENT..2 FOLLOWING *)
  let out =
    Window.extend (mk simple_rows)
      [
        window_fn Aggregate.Avg
          { Window.lo = Window.Current_row; hi = Window.Following 2; mode = Window.Rows }
          "c";
      ]
  in
  Alcotest.(check (list value_testable)) "prospective average"
    [ vf 2.; vf 3.; vf 4.; vf 5.; vf 5.5; vf 6. ]
    (column out 3)

let test_whole_partition () =
  let out =
    Window.extend (mk simple_rows)
      [ window_fn Aggregate.Sum Window.whole_partition_frame "c" ]
  in
  Alcotest.(check (list value_testable)) "whole partition"
    (List.init 6 (fun _ -> vf 21.))
    (column out 3)

let test_strictly_preceding_frame () =
  (* ROWS BETWEEN 2 PRECEDING AND 1 PRECEDING: empty frame on the first row *)
  let out =
    Window.extend (mk simple_rows)
      [
        window_fn Aggregate.Sum
          { Window.lo = Window.Preceding 2; hi = Window.Preceding 1; mode = Window.Rows }
          "c";
      ]
  in
  Alcotest.(check (list value_testable)) "trailing-only window"
    [ Value.Null; vf 1.; vf 3.; vf 5.; vf 7.; vf 9. ]
    (column out 3)

let test_count_empty_frame () =
  let out =
    Window.extend (mk simple_rows)
      [
        {
          Window.func = Window.Agg Aggregate.Count;
          arg = Expr.Col 2;
          spec =
            {
              Window.partition = [];
              order = [ Sortop.key (Expr.Col 1) ];
              frame = { Window.lo = Window.Preceding 2; hi = Window.Preceding 1; mode = Window.Rows };
            };
          name = "c";
        };
      ]
  in
  Alcotest.(check (list value_testable)) "count over empty frame is 0"
    [ vi 0; vi 1; vi 2; vi 2; vi 2; vi 2 ]
    (column out 3)

(* ---- Partitioning ---- *)

let test_partitioned () =
  let rows =
    [ ("a", 1, Some 1.); ("b", 1, Some 10.); ("a", 2, Some 2.); ("b", 2, Some 20.) ]
  in
  let out =
    Window.extend (mk rows)
      [
        window_fn ~partition:[ Expr.Col 0 ] Aggregate.Sum Window.cumulative_frame "c";
      ]
  in
  (* original row order is preserved *)
  Alcotest.(check (list value_testable)) "per-partition running sums"
    [ vf 1.; vf 10.; vf 3.; vf 30. ]
    (column out 3)

let test_order_desc () =
  let out =
    Window.extend (mk simple_rows)
      [
        window_fn
          ~order:[ Sortop.key ~asc:false (Expr.Col 1) ]
          Aggregate.Sum Window.cumulative_frame "c";
      ]
  in
  Alcotest.(check (list value_testable)) "descending cumulative"
    [ vf 21.; vf 20.; vf 18.; vf 15.; vf 11.; vf 6. ]
    (column out 3)

let test_nulls_skipped () =
  let rows = [ ("a", 1, Some 1.); ("a", 2, None); ("a", 3, Some 3.) ] in
  let out =
    Window.extend (mk rows) [ window_fn Aggregate.Sum Window.cumulative_frame "c" ]
  in
  Alcotest.(check (list value_testable)) "null skipped"
    [ vf 1.; vf 1.; vf 4. ]
    (column out 3);
  let out =
    Window.extend (mk [ ("a", 1, None) ])
      [ window_fn Aggregate.Sum Window.cumulative_frame "c" ]
  in
  check_value "all-null window is NULL" Value.Null (Row.get (Relation.rows out).(0) 3)

let test_minmax_frames () =
  let rows =
    [ ("a", 1, Some 5.); ("a", 2, Some 1.); ("a", 3, Some 4.); ("a", 4, Some 2.) ]
  in
  let out =
    Window.extend (mk rows)
      [
        window_fn Aggregate.Min (Window.sliding_frame ~l:1 ~h:1) "mn";
        window_fn Aggregate.Max Window.cumulative_frame "mx";
      ]
  in
  Alcotest.(check (list value_testable)) "sliding min"
    [ vf 1.; vf 1.; vf 1.; vf 2. ]
    (column out 3);
  Alcotest.(check (list value_testable)) "cumulative max"
    [ vf 5.; vf 5.; vf 5.; vf 5. ]
    (column out 4)

let test_multiple_fns_one_pass () =
  (* the intro query shape: several reporting functions side by side *)
  let out =
    Window.extend (mk simple_rows)
      [
        window_fn Aggregate.Sum Window.cumulative_frame "cum";
        window_fn Aggregate.Avg (Window.sliding_frame ~l:1 ~h:1) "mvg";
        window_fn Aggregate.Count Window.whole_partition_frame "n";
      ]
  in
  Alcotest.(check int) "three new columns" 6 (Schema.arity (Relation.schema out));
  check_value "cum last" (vf 21.) (Row.get (Relation.rows out).(5) 3);
  check_value "count" (vi 6) (Row.get (Relation.rows out).(5) 5)

(* ---- RANGE frames ---- *)

let test_range_frame () =
  (* gaps in the key: value-distance windows differ from row windows *)
  let rows =
    [ ("a", 1, Some 10.); ("a", 2, Some 20.); ("a", 5, Some 50.); ("a", 6, Some 60.);
      ("a", 6, Some 61.); ("a", 10, Some 100.) ]
  in
  let fn frame = window_fn Aggregate.Sum frame "c" in
  let get frame = column (Window.extend (mk rows) [ fn frame ]) 3 in
  Alcotest.(check (list value_testable)) "range 1 preceding .. current (peers included)"
    [ vf 10.; vf 30.; vf 50.; vf 171.; vf 171.; vf 100. ]
    (get { Window.lo = Window.Preceding 1; hi = Window.Current_row; mode = Window.Range });
  Alcotest.(check (list value_testable)) "range centered"
    [ vf 30.; vf 30.; vf 171.; vf 171.; vf 171.; vf 100. ]
    (get (Window.range_frame ~l:1 ~h:1));
  Alcotest.(check (list value_testable)) "range cumulative includes peers"
    [ vf 10.; vf 30.; vf 80.; vf 201.; vf 201.; vf 301. ]
    (get { Window.lo = Window.Unbounded_preceding; hi = Window.Current_row; mode = Window.Range })

let test_range_descending_and_minmax () =
  let rows = [ ("a", 1, Some 10.); ("a", 3, Some 5.); ("a", 4, Some 20.) ] in
  (* descending key: 1 PRECEDING means one unit towards larger keys *)
  let fn =
    {
      Window.func = Window.Agg Aggregate.Min;
      arg = Expr.Col 2;
      spec =
        {
          Window.partition = [];
          order = [ Sortop.key ~asc:false (Expr.Col 1) ];
          frame = { Window.lo = Window.Preceding 1; hi = Window.Current_row; mode = Window.Range };
        };
      name = "c";
    }
  in
  (* order desc: keys 4,3,1; windows: {4}->20, {4,3}->5, {1}->10 *)
  Alcotest.(check (list value_testable)) "descending range min"
    [ vf 10.; vf 5.; vf 20. ]
    (column (Window.extend (mk rows) [ fn ]) 3)

let test_range_requires_single_key () =
  let r = mk [ ("a", 1, Some 1.) ] in
  let fn =
    {
      Window.func = Window.Agg Aggregate.Sum;
      arg = Expr.Col 2;
      spec =
        { Window.partition = []; order = []; frame = Window.range_frame ~l:1 ~h:1 };
      name = "c";
    }
  in
  Alcotest.(check bool) "no order key rejected" true
    (match Window.extend r [ fn ] with
     | exception Window.Invalid_frame _ -> true
     | _ -> false)

let prop_range_eq_naive =
  (* RANGE windows under both strategies agree *)
  QCheck.Test.make ~count:300 ~name:"range: naive = incremental"
    QCheck.(
      make
        Gen.(
          let* n = int_range 0 30 in
          let* rows =
            list_size (return n)
              (let* p = int_range 0 15 in
               let* v = map float_of_int (int_range (-20) 20) in
               return ("a", p, Some v))
          in
          let* l = int_range 0 5 in
          let* h = int_range 0 5 in
          let* agg = oneofl [ Aggregate.Sum; Aggregate.Min; Aggregate.Max; Aggregate.Avg ] in
          return (rows, l, h, agg)))
    (fun (rows, l, h, agg) ->
      let fn = window_fn agg (Window.range_frame ~l ~h) "c" in
      let r = mk rows in
      Relation.equal_ordered
        (Window.extend ~strategy:Window.Naive r [ fn ])
        (Window.extend ~strategy:Window.Incremental r [ fn ]))

(* RANGE must agree with a direct per-row filter over key distance. *)
let prop_range_matches_filter =
  QCheck.Test.make ~count:300 ~name:"range = key-distance filter"
    QCheck.(
      make
        Gen.(
          let* n = int_range 0 25 in
          let* keys = list_size (return n) (int_range 0 12) in
          let* l = int_range 0 4 in
          let* h = int_range 0 4 in
          return (keys, l, h)))
    (fun (keys, l, h) ->
      let rows = List.map (fun k -> ("a", k, Some (float_of_int k))) keys in
      let fn = window_fn Aggregate.Sum (Window.range_frame ~l ~h) "c" in
      let out = Window.extend (mk rows) [ fn ] in
      Array.for_all
        (fun row ->
          let k = Value.to_int (Row.get row 1) in
          let expected =
            List.fold_left
              (fun acc kp ->
                if kp >= k - l && kp <= k + h then acc +. float_of_int kp else acc)
              0. keys
          in
          match Row.get row 3 with
          | Value.Float f -> Float.abs (f -. expected) < 1e-9
          | Value.Int i -> float_of_int i = expected
          | _ -> false)
        (Relation.rows out))

(* ---- Ranking functions ---- *)

let rank_fn func =
  {
    Window.func;
    arg = Expr.Const (Value.Int 1);
    spec =
      {
        Window.partition = [ Expr.Col 0 ];
        order = [ Sortop.key (Expr.Col 2) ];
        frame = Window.cumulative_frame;
      };
    name = "r";
  }

let test_ranking () =
  let rows =
    [ ("a", 1, Some 10.); ("a", 2, Some 30.); ("a", 3, Some 30.); ("a", 4, Some 50.);
      ("b", 1, Some 5.); ("b", 2, Some 5.) ]
  in
  let r = mk rows in
  let get func =
    column (Window.extend r [ rank_fn func ]) 3
  in
  Alcotest.(check (list value_testable)) "row_number"
    [ vi 1; vi 2; vi 3; vi 4; vi 1; vi 2 ]
    (get Window.Row_number);
  Alcotest.(check (list value_testable)) "rank"
    [ vi 1; vi 2; vi 2; vi 4; vi 1; vi 1 ]
    (get Window.Rank);
  Alcotest.(check (list value_testable)) "dense_rank"
    [ vi 1; vi 2; vi 2; vi 3; vi 1; vi 1 ]
    (get Window.Dense_rank)

let test_rank_descending () =
  let rows = [ ("a", 1, Some 10.); ("a", 2, Some 30.); ("a", 3, Some 20.) ] in
  let fn =
    { (rank_fn Window.Rank) with
      Window.spec =
        { Window.partition = []; order = [ Sortop.key ~asc:false (Expr.Col 2) ];
          frame = Window.cumulative_frame } }
  in
  Alcotest.(check (list value_testable)) "rank desc"
    [ vi 3; vi 1; vi 2 ]
    (column (Window.extend (mk rows) [ fn ]) 3)

(* ---- Naive = incremental (property) ---- *)

let gen_case =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* rows =
      list_size (return n)
        (let* g = oneofl [ "a"; "b"; "c" ] in
         let* p = int_range 0 12 in
         let* v = frequency [ (9, map (fun i -> Some (float_of_int i)) (int_range (-30) 30)); (1, return None) ] in
         return (g, p, v))
    in
    let* agg = oneofl [ Aggregate.Sum; Aggregate.Count; Aggregate.Avg; Aggregate.Min; Aggregate.Max ] in
    let* frame =
      oneof
        [
          return Window.cumulative_frame;
          return Window.whole_partition_frame;
          (let* l = int_range 0 5 in
           let* h = int_range 0 5 in
           return (Window.sliding_frame ~l ~h));
          (let* a = int_range 0 4 in
           let* b = int_range 0 4 in
           return { Window.lo = Window.Preceding (a + b); hi = Window.Preceding b; mode = Window.Rows });
          (let* a = int_range 0 4 in
           let* b = int_range 0 4 in
           return { Window.lo = Window.Following a; hi = Window.Following (a + b); mode = Window.Rows });
          (let* h = int_range 0 4 in
           return { Window.lo = Window.Preceding h; hi = Window.Unbounded_following; mode = Window.Rows });
        ]
    in
    let* partitioned = bool in
    return (rows, agg, frame, partitioned))

let arb_case =
  QCheck.make gen_case ~print:(fun (rows, agg, frame, partitioned) ->
      Printf.sprintf "%d rows, %s, lo/hi=%s, partitioned=%b" (List.length rows)
        (Aggregate.kind_name agg)
        (match frame with
         | { Window.lo = Window.Preceding l; hi = Window.Following h; _ } ->
           Printf.sprintf "(%d,%d)" l h
         | _ -> "other")
        partitioned)

let prop_naive_eq_incremental (rows, agg, frame, partitioned) =
  let r = mk rows in
  let fn =
    window_fn
      ~partition:(if partitioned then [ Expr.Col 0 ] else [])
      agg frame "c"
  in
  let a = Window.extend ~strategy:Window.Naive r [ fn ] in
  let b = Window.extend ~strategy:Window.Incremental r [ fn ] in
  Relation.equal_ordered a b

(* ---- One tie rule: the first-best row of the frame ---- *)

(* Rows a, 1.., with the given argument values. *)
let mk_values vals =
  Relation.of_array schema
    (Array.of_list (List.mapi (fun i v -> [| Value.String "a"; Value.Int (i + 1); v |]) vals))

(* MIN and MAX over [Int 1; Float 1.0; Int 1]: on a tie between an Int
   and an equal Float every frame keeps its first row's constructor,
   under both strategies. *)
let test_int_float_ties () =
  let exactly = Alcotest.testable Value.pp ( = ) in
  let r = mk_values [ vi 1; vf 1.; vi 1 ] in
  List.iter
    (fun (frame, what, expected) ->
      List.iter
        (fun (strategy, sname) ->
          List.iter
            (fun agg ->
              Alcotest.(check (list exactly))
                (Printf.sprintf "%s %s, %s" (Aggregate.kind_name agg) what sname)
                expected
                (column (Window.extend ~strategy r [ window_fn agg frame "c" ]) 3))
            [ Aggregate.Min; Aggregate.Max ])
        [ (Window.Naive, "naive"); (Window.Incremental, "incremental") ])
    [
      (Window.sliding_frame ~l:1 ~h:0, "sliding", [ vi 1; vi 1; vf 1. ]);
      (Window.cumulative_frame, "cumulative", [ vi 1; vi 1; vi 1 ]);
      ( { Window.lo = Window.Current_row; hi = Window.Unbounded_following; mode = Window.Rows },
        "current .. unbounded following",
        [ vi 1; vf 1.; vi 1 ] );
    ]

(* ---- Strategy equivalence (property) ----

   Random partitions, orders and frames — every pair of ROWS bounds,
   RANGE, empty frames and whole partitions — over NULLs, signed zeros,
   and Int and Float arguments.  Values are integer-valued in [-50, 50],
   so every answer is exact and the strategies must agree bit for bit,
   constructors included. *)

let bits = function
  | Value.Float f -> Printf.sprintf "F%Lx" (Int64.bits_of_float f)
  | v -> Value.to_string v

let gen_bound =
  QCheck.Gen.(
    let* n = int_range 0 4 in
    oneofl
      [ Window.Unbounded_preceding; Window.Preceding n; Window.Current_row;
        Window.Following n; Window.Unbounded_following ])

let gen_arg =
  QCheck.Gen.(
    let* i = int_range (-50) 50 in
    frequency
      [ (1, return Value.Null); (1, return (vf (-0.))); (1, return (vf 0.));
        (3, return (vi i)); (3, return (vf (float_of_int i))) ])

let arb_strategy_case =
  let gen =
    QCheck.Gen.(
      let* rows =
        list_size (int_range 0 30) (triple (oneofl [ "a"; "b" ]) (int_range 0 10) gen_arg)
      in
      let* agg =
        oneofl [ Aggregate.Sum; Aggregate.Count; Aggregate.Avg; Aggregate.Min; Aggregate.Max ]
      in
      let* lo = gen_bound in
      let* hi = gen_bound in
      let* mode = oneofl [ Window.Rows; Window.Range ] in
      let* asc = bool in
      let* partitioned = bool in
      return (rows, agg, { Window.lo; hi; mode }, asc, partitioned))
  in
  let bound = function
    | Window.Unbounded_preceding -> "UNBOUNDED PRECEDING"
    | Window.Preceding n -> Printf.sprintf "%d PRECEDING" n
    | Window.Current_row -> "CURRENT ROW"
    | Window.Following n -> Printf.sprintf "%d FOLLOWING" n
    | Window.Unbounded_following -> "UNBOUNDED FOLLOWING"
  in
  QCheck.make gen ~print:(fun (rows, agg, frame, asc, partitioned) ->
      Printf.sprintf "%s %s BETWEEN %s AND %s, asc=%b, partitioned=%b, rows=[%s]"
        (Aggregate.kind_name agg)
        (match frame.Window.mode with Window.Rows -> "ROWS" | Window.Range -> "RANGE")
        (bound frame.Window.lo) (bound frame.Window.hi) asc partitioned
        (String.concat "; "
           (List.map (fun (g, p, v) -> Printf.sprintf "%s,%d,%s" g p (bits v)) rows)))

let prop_strategies_agree (rows, agg, frame, asc, partitioned) =
  let r =
    Relation.of_array schema
      (Array.of_list (List.map (fun (g, p, v) -> [| Value.String g; Value.Int p; v |]) rows))
  in
  let fn =
    window_fn
      ~partition:(if partitioned then [ Expr.Col 0 ] else [])
      ~order:[ Sortop.key ~asc (Expr.Col 1) ]
      agg frame "c"
  in
  let answer strategy = List.map bits (column (Window.extend ~strategy r [ fn ]) 3) in
  answer Window.Naive = answer Window.Incremental

(* ---- Typed argument columns ----

   A SUM, COUNT or AVG over a plain column of only Ints, or only
   Floats, besides NULLs runs on an unboxed copy of the column; the same
   function over [COALESCE(col)], which is the column's value but not a
   plain column, takes the [Value.t] path.  Both must agree bit for bit,
   constructors included: over Int, Float (fractional, so the order of
   the float additions shows), mixed and NULL-bearing columns, with and
   without PARTITION BY, under every pair of ROWS bounds. *)

let arb_typed_case =
  let gen =
    QCheck.Gen.(
      let* kind = oneofl [ `Int; `Float; `Mixed ] in
      let* nulls = frequency [ (2, return 0); (1, int_range 1 4); (1, return 10) ] in
      let arg =
        let* i = int_range (-50) 50 in
        let* k = int_range 1 7 in
        let* null = int_range 0 9 in
        let f = float_of_int i /. float_of_int k in
        let v =
          match kind with
          | `Int -> vi i
          | `Float -> vf f
          | `Mixed -> if k mod 2 = 0 then vi i else vf f
        in
        return (if null < nulls then Value.Null else v)
      in
      let* rows =
        list_size (int_range 0 40) (triple (oneofl [ "a"; "b"; "c" ]) (int_range 0 15) arg)
      in
      let* agg = oneofl [ Aggregate.Sum; Aggregate.Count; Aggregate.Avg ] in
      let* lo = gen_bound in
      let* hi = gen_bound in
      let* asc = bool in
      let* partitioned = bool in
      return (rows, agg, { Window.lo; hi; mode = Window.Rows }, asc, partitioned))
  in
  QCheck.make gen ~print:(fun (rows, agg, frame, asc, partitioned) ->
      let bound = function
        | Window.Unbounded_preceding -> "UNBOUNDED PRECEDING"
        | Window.Preceding n -> Printf.sprintf "%d PRECEDING" n
        | Window.Current_row -> "CURRENT ROW"
        | Window.Following n -> Printf.sprintf "%d FOLLOWING" n
        | Window.Unbounded_following -> "UNBOUNDED FOLLOWING"
      in
      Printf.sprintf "%s ROWS BETWEEN %s AND %s, asc=%b, partitioned=%b, rows=[%s]"
        (Aggregate.kind_name agg) (bound frame.Window.lo) (bound frame.Window.hi) asc partitioned
        (String.concat "; "
           (List.map (fun (g, p, v) -> Printf.sprintf "%s,%d,%s" g p (bits v)) rows)))

let prop_typed_equals_values (rows, agg, frame, asc, partitioned) =
  let r =
    Relation.of_array schema
      (Array.of_list (List.map (fun (g, p, v) -> [| Value.String g; Value.Int p; v |]) rows))
  in
  let answer arg =
    let fn =
      { (window_fn
           ~partition:(if partitioned then [ Expr.Col 0 ] else [])
           ~order:[ Sortop.key ~asc (Expr.Col 1) ]
           agg frame "c")
        with Window.arg }
    in
    List.map bits (column (Window.extend r [ fn ]) 3)
  in
  answer (Expr.Col 2) = answer (Expr.Call (Expr.Coalesce, [ Expr.Col 2 ]))

(* For non-NULL floats the core's sequences and the relalg window run
   the same kernel: core naive, core pipelined and both relalg
   strategies agree bit for bit on every body position. *)
let arb_core_case =
  QCheck.make
    QCheck.Gen.(
      let* values =
        list_size (int_range 0 30)
          (frequency
             [ (1, return (-0.)); (1, return 0.); (4, map float_of_int (int_range (-50) 50)) ])
      in
      let* agg = oneofl [ Rfview_core.Agg.Sum; Rfview_core.Agg.Min; Rfview_core.Agg.Max ] in
      let* frame =
        frequency
          [ (1, return Rfview_core.Frame.Cumulative);
            (3,
             let* l = int_range 0 4 in
             let* h = int_range 0 4 in
             return (Rfview_core.Frame.sliding ~l ~h)) ]
      in
      return (values, agg, frame))
    ~print:(fun (values, agg, frame) ->
      Printf.sprintf "%s %s [%s]" (Rfview_core.Agg.name agg)
        (Rfview_core.Frame.to_string frame)
        (String.concat "; " (List.map (fun v -> bits (vf v)) values)))

let prop_core_equals_relalg (values, agg, frame) =
  let module Core = Rfview_core in
  let raw = Core.Seqdata.raw_of_list values in
  let core seq = List.init (List.length values) (fun k -> bits (vf (Core.Seqdata.get seq (k + 1)))) in
  let fn =
    window_fn
      (match agg with
       | Core.Agg.Sum -> Aggregate.Sum
       | Core.Agg.Min -> Aggregate.Min
       | Core.Agg.Max -> Aggregate.Max)
      (match frame with
       | Core.Frame.Cumulative -> Window.cumulative_frame
       | Core.Frame.Sliding { l; h } -> Window.sliding_frame ~l ~h)
      "c"
  in
  let relalg strategy =
    List.map bits (column (Window.extend ~strategy (mk_values (List.map vf values)) [ fn ]) 3)
  in
  let expected = core (Core.Compute.naive ~agg frame raw) in
  expected = core (Core.Compute.pipelined ~agg frame raw)
  && expected = relalg Window.Naive
  && expected = relalg Window.Incremental

let () =
  Alcotest.run "window"
    [
      ( "frames",
        [
          Alcotest.test_case "cumulative" `Quick test_cumulative;
          Alcotest.test_case "sliding" `Quick test_sliding;
          Alcotest.test_case "prospective avg" `Quick test_prospective;
          Alcotest.test_case "whole partition" `Quick test_whole_partition;
          Alcotest.test_case "strictly preceding" `Quick test_strictly_preceding_frame;
          Alcotest.test_case "count empty frame" `Quick test_count_empty_frame;
        ] );
      ( "partitioning",
        [
          Alcotest.test_case "partitioned" `Quick test_partitioned;
          Alcotest.test_case "descending order" `Quick test_order_desc;
          Alcotest.test_case "null handling" `Quick test_nulls_skipped;
          Alcotest.test_case "min/max frames" `Quick test_minmax_frames;
          Alcotest.test_case "multiple functions" `Quick test_multiple_fns_one_pass;
        ] );
      ( "range",
        [
          Alcotest.test_case "value-distance windows" `Quick test_range_frame;
          Alcotest.test_case "descending + min" `Quick test_range_descending_and_minmax;
          Alcotest.test_case "requires one key" `Quick test_range_requires_single_key;
          QCheck_alcotest.to_alcotest prop_range_eq_naive;
          QCheck_alcotest.to_alcotest prop_range_matches_filter;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "row_number/rank/dense_rank" `Quick test_ranking;
          Alcotest.test_case "descending order" `Quick test_rank_descending;
        ] );
      ( "strategies",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:500 ~name:"naive = incremental" arb_case
               prop_naive_eq_incremental);
          Alcotest.test_case "Int/Float ties keep the first row" `Quick test_int_float_ties;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:1000 ~name:"strategies agree bit for bit"
               arb_strategy_case prop_strategies_agree);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:500 ~name:"core sequences equal the relalg window"
               arb_core_case prop_core_equals_relalg);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:1000 ~name:"typed columns equal the Value.t path bit for bit"
               arb_typed_case prop_typed_equals_values);
        ] );
    ]
