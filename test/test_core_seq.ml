(* Tests of the sequence core: frames, computation strategies, incremental
   maintenance and raw-value reconstruction (paper §2-§3). *)

open Rfview_core

let approx ?(eps = 1e-6) a b =
  (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= eps

let check_seq_equal what expected actual =
  if not (Seqdata.equal ~eps:1e-6 expected actual) then
    Alcotest.failf "%s:@.expected %s@.actual   %s" what
      (Format.asprintf "%a" Seqdata.pp expected)
      (Format.asprintf "%a" Seqdata.pp actual)

let raw_of_ints ints = Seqdata.raw_of_array (Array.of_list (List.map float_of_int ints))

(* ---- Generators ---- *)

let gen_raw =
  QCheck.Gen.(
    let* n = int_range 0 50 in
    let* data = array_size (return n) (map float_of_int (int_range (-40) 40)) in
    return (Seqdata.raw_of_array data))

let arb_raw =
  QCheck.make gen_raw
    ~print:(fun r ->
      Format.asprintf "[%a]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           (fun ppf v -> Format.fprintf ppf "%g" v))
        (Array.to_list (Seqdata.raw_to_array r)))

let gen_frame =
  QCheck.Gen.(
    frequency
      [
        (1, return Frame.Cumulative);
        (4,
         let* l = int_range 0 6 in
         let* h = int_range 0 6 in
         return (Frame.sliding ~l ~h));
      ])

let arb_frame = QCheck.make gen_frame ~print:Frame.to_string

let arb_raw_frame = QCheck.pair arb_raw arb_frame

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---- Frame tests ---- *)

let test_frame_bounds () =
  Alcotest.(check (pair int int)) "sliding bounds" (3, 9)
    (Frame.bounds (Frame.sliding ~l:2 ~h:4) ~k:5);
  Alcotest.(check (pair int int)) "cumulative bounds" (1, 7)
    (Frame.bounds Frame.Cumulative ~k:7);
  Alcotest.(check (option (pair int int))) "params" (Some (2, 4))
    (Frame.params (Frame.sliding ~l:2 ~h:4))

let test_frame_invalid () =
  Alcotest.check_raises "negative l" (Frame.Invalid "sliding window (-1,2): l and h must be >= 0")
    (fun () -> ignore (Frame.sliding ~l:(-1) ~h:2))

let test_frame_sql () =
  Alcotest.(check string) "cumulative" "ROWS UNBOUNDED PRECEDING"
    (Frame.to_sql Frame.Cumulative);
  Alcotest.(check string) "sliding" "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"
    (Frame.to_sql (Frame.sliding ~l:1 ~h:1));
  Alcotest.(check string) "trailing" "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW"
    (Frame.to_sql (Frame.sliding ~l:3 ~h:0))

(* ---- Computation tests ---- *)

let test_compute_example () =
  (* Worked example: raw 1..6, centered window of size 3. *)
  let raw = raw_of_ints [ 1; 2; 3; 4; 5; 6 ] in
  let seq = Compute.naive (Frame.sliding ~l:1 ~h:1) raw in
  Alcotest.(check (list (pair int int)))
    "body values"
    [ (1, 3); (2, 6); (3, 9); (4, 12); (5, 15); (6, 11) ]
    (List.init 6 (fun i -> (i + 1, int_of_float (Seqdata.get seq (i + 1)))));
  (* header position 0 covers x_1; trailer position 7 covers x_6 *)
  Alcotest.(check int) "header" 1 (int_of_float (Seqdata.get seq 0));
  Alcotest.(check int) "trailer" 6 (int_of_float (Seqdata.get seq 7));
  Alcotest.(check int) "outside" 0 (int_of_float (Seqdata.get seq 9))

let test_compute_cumulative () =
  let raw = raw_of_ints [ 5; -2; 7; 0; 1 ] in
  let seq = Compute.pipelined Frame.Cumulative raw in
  Alcotest.(check (list int)) "running sums" [ 5; 3; 10; 10; 11 ]
    (List.init 5 (fun i -> int_of_float (Seqdata.get seq (i + 1))));
  (* cumulative sequences saturate above n and vanish below 1 *)
  Alcotest.(check int) "saturation" 11 (int_of_float (Seqdata.get seq 99));
  Alcotest.(check int) "below" 0 (int_of_float (Seqdata.get seq 0))

let prop_pipelined_eq_naive (raw, frame) =
  let a = Compute.naive frame raw and b = Compute.pipelined frame raw in
  Seqdata.equal ~eps:1e-6 a b

let prop_minmax_pipelined_eq_naive (raw, frame) =
  List.for_all
    (fun agg ->
      Seqdata.equal ~eps:1e-6 (Compute.naive ~agg frame raw)
        (Compute.pipelined ~agg frame raw))
    [ Agg.Min; Agg.Max ]

let prop_count_closed_form (raw, frame) =
  let n = Seqdata.raw_length raw in
  let lo, hi = Seqdata.complete_range frame ~n in
  List.for_all
    (fun k ->
      let wlo, whi = Frame.bounds frame ~k in
      let expected = max 0 (min n whi - max 1 wlo + 1) in
      Agg.count_at frame ~n ~k = expected)
    (List.init (hi - lo + 1) (fun i -> lo + i))

(* Every fold starts from the empty window's value, so the explicit form
   and the pipelined scan give the same bits on signed zeros: -0. values
   sum to 0. under both. *)
let test_signed_zeros_bit_identical () =
  let bits seq = List.map Int64.bits_of_float (Array.to_list (Seqdata.to_array seq)) in
  List.iter
    (fun data ->
      let raw = Seqdata.raw_of_list data in
      List.iter
        (fun frame ->
          List.iter
            (fun agg ->
              if bits (Compute.naive ~agg frame raw) <> bits (Compute.pipelined ~agg frame raw)
              then
                Alcotest.failf "%s %s over [%s]: naive and pipelined differ" (Agg.name agg)
                  (Frame.to_string frame)
                  (String.concat "; " (List.map string_of_float data)))
            [ Agg.Sum; Agg.Min; Agg.Max ])
        [ Frame.Cumulative; Frame.sliding ~l:0 ~h:0; Frame.sliding ~l:1 ~h:0;
          Frame.sliding ~l:1 ~h:1; Frame.sliding ~l:2 ~h:1 ])
    [ [ -0.; -0.; -0. ]; [ 0.; -0.; -0.; 0.; -0. ]; [ -0.; 1.; -1.; -0. ] ];
  Alcotest.(check bool) "SUM of -0. values is 0." false
    (Float.sign_bit
       (Seqdata.get (Compute.naive Frame.Cumulative (Seqdata.raw_of_list [ -0.; -0.; -0. ])) 3))

let test_prefix_sums () =
  let raw = raw_of_ints [ 1; 2; 3 ] in
  let c = Compute.prefix_sums raw in
  Alcotest.(check (list int)) "prefix" [ 0; 1; 3; 6 ]
    (List.map int_of_float (Array.to_list c))

(* ---- Maintenance tests (paper §2.3) ---- *)

let gen_edit n =
  QCheck.Gen.(
    let* v = map float_of_int (int_range (-30) 30) in
    if n = 0 then return (Maintain.Insert { k = 1; value = v })
    else
      let* k = int_range 1 n in
      oneof
        [
          return (Maintain.Update { k; value = v });
          (let* k = int_range 1 (n + 1) in
           return (Maintain.Insert { k; value = v }));
          return (Maintain.Delete { k });
        ])

let gen_maintain_case =
  QCheck.Gen.(
    let* raw = gen_raw in
    let* frame = gen_frame in
    let* agg = oneofl [ Agg.Sum; Agg.Min; Agg.Max ] in
    let* edit = gen_edit (Seqdata.raw_length raw) in
    return (raw, frame, agg, edit))

let arb_maintain_case =
  QCheck.make gen_maintain_case ~print:(fun (raw, frame, agg, edit) ->
      Format.asprintf "n=%d %s %s %s" (Seqdata.raw_length raw) (Frame.to_string frame)
        (Agg.name agg)
        (match edit with
         | Maintain.Update { k; value } -> Printf.sprintf "update %d <- %g" k value
         | Maintain.Insert { k; value } -> Printf.sprintf "insert %d <- %g" k value
         | Maintain.Delete { k } -> Printf.sprintf "delete %d" k))

let prop_maintain_eq_recompute (raw, frame, agg, edit) =
  let seq = Compute.sequence ~agg frame raw in
  let incr, raw_incr = Maintain.apply seq raw edit in
  let full, raw_full = Maintain.recompute seq raw edit in
  Seqdata.equal ~eps:1e-6 incr full
  && Array.for_all2 approx (Seqdata.raw_to_array raw_incr) (Seqdata.raw_to_array raw_full)

let test_maintain_update_example () =
  (* §2.3 update rule: only positions [k-h, k+l] change. *)
  let raw = raw_of_ints [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let frame = Frame.sliding ~l:2 ~h:1 in
  let seq = Compute.sequence frame raw in
  let seq', _ = Maintain.apply seq raw (Maintain.Update { k = 5; value = 15. }) in
  let reference = Compute.sequence frame (Seqdata.raw_update raw ~k:5 ~value:15.) in
  check_seq_equal "update" reference seq';
  (* untouched positions really are untouched *)
  Alcotest.(check bool) "locality below" true
    (approx (Seqdata.get seq 3) (Seqdata.get seq' 3));
  Alcotest.(check bool) "locality above" true
    (approx (Seqdata.get seq 8) (Seqdata.get seq' 8))

let prop_update_in_place (raw, frame) =
  let n = Seqdata.raw_length raw in
  n = 0
  ||
  let seq = Compute.sequence frame raw in
  let scratch =
    Seqdata.make frame Agg.Sum ~n ~lo:(Seqdata.stored_lo seq) (Seqdata.to_array seq)
  in
  let k = 1 + (n / 2) in
  let raw' = Maintain.update_in_place scratch raw ~k ~value:99. in
  let reference = Compute.sequence frame raw' in
  Seqdata.equal ~eps:1e-6 reference scratch

let test_maintain_raises () =
  let raw = raw_of_ints [ 1; 2 ] in
  Alcotest.check_raises "update out of range"
    (Invalid_argument "Seqdata.raw_update: position out of range") (fun () ->
      ignore (Seqdata.raw_update raw ~k:3 ~value:0.))

(* ---- Reconstruction tests (paper §3.1/§3.2) ---- *)

let prop_reconstruct_raw (raw, frame) =
  let seq = Compute.sequence frame raw in
  let back = Reconstruct.raw_all seq in
  Array.for_all2 approx (Seqdata.raw_to_array raw) (Seqdata.raw_to_array back)

let prop_reconstruct_pointwise (raw, frame) =
  let seq = Compute.sequence frame raw in
  let n = Seqdata.raw_length raw in
  List.for_all
    (fun k -> approx (Seqdata.raw_get raw k) (Reconstruct.raw_value seq ~k))
    (List.init n (fun i -> i + 1))

let test_reconstruct_example () =
  (* §3.1: x_k = x̃_k - x̃_{k-1} on a cumulative view. *)
  let raw = raw_of_ints [ 4; 7; 1 ] in
  let view = Compute.sequence Frame.Cumulative raw in
  Alcotest.(check bool) "x_2" true (approx 7. (Reconstruct.raw_from_cumulative view ~k:2))

let test_reconstruct_minmax_rejected () =
  let raw = raw_of_ints [ 1; 2; 3 ] in
  let view = Compute.sequence ~agg:Agg.Min (Frame.sliding ~l:1 ~h:1) raw in
  Alcotest.check_raises "min view"
    (Invalid_argument "Reconstruct: MIN/MAX sequences do not determine raw values")
    (fun () -> ignore (Reconstruct.raw_all view))

let test_prefix_matches_raw_prefix () =
  let raw = raw_of_ints [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let view = Compute.sequence (Frame.sliding ~l:2 ~h:1) raw in
  let c = Reconstruct.prefix view in
  let cref = Compute.prefix_sums raw in
  for j = 0 to 8 do
    if not (approx (c j) cref.(j)) then
      Alcotest.failf "C(%d): %g <> %g" j (c j) cref.(j)
  done;
  (* clamping beyond the data *)
  Alcotest.(check bool) "above" true (approx (c 100) cref.(8));
  Alcotest.(check bool) "below" true (approx (c (-3)) 0.)

(* ---- Agg helpers and sequence accessors ---- *)

let test_agg_helpers () =
  Alcotest.(check int) "count interior" 3
    (Agg.count_at (Frame.sliding ~l:1 ~h:1) ~n:10 ~k:5);
  Alcotest.(check int) "count clamped low" 2
    (Agg.count_at (Frame.sliding ~l:1 ~h:1) ~n:10 ~k:1);
  Alcotest.(check int) "count outside" 0
    (Agg.count_at (Frame.sliding ~l:1 ~h:1) ~n:10 ~k:20);
  Alcotest.(check int) "cumulative count" 4 (Agg.count_at Frame.Cumulative ~n:10 ~k:4);
  Alcotest.(check bool) "avg of sum" true
    (Agg.avg_of_sum (Frame.sliding ~l:1 ~h:1) ~n:10 ~k:5 9. = 3.);
  Alcotest.(check bool) "avg empty is absent" true
    (Agg.is_absent (Agg.avg_of_sum (Frame.sliding ~l:1 ~h:1) ~n:10 ~k:20 0.));
  Alcotest.(check bool) "combine absent" true
    (Agg.combine Agg.Min Agg.absent 5. = 5.);
  Alcotest.(check bool) "min combine" true (Agg.combine Agg.Min 3. 5. = 3.);
  Alcotest.(check bool) "max combine" true (Agg.combine Agg.Max 3. 5. = 5.)

let test_seqdata_accessors () =
  let raw = raw_of_ints [ 1; 2; 3; 4 ] in
  let seq = Compute.sequence (Frame.sliding ~l:2 ~h:1) raw in
  Alcotest.(check int) "header size h-? positions below 1" 1
    (Array.length (Seqdata.header seq));
  Alcotest.(check int) "trailer size" 2 (Array.length (Seqdata.trailer seq));
  Alcotest.(check int) "body size" 4 (Array.length (Seqdata.body seq));
  Alcotest.(check bool) "mirror round trip" true
    (Seqdata.equal seq (Seqdata.mirror (Seqdata.mirror seq)));
  (* mirrored raw reverses *)
  let m = Seqdata.mirror_raw raw in
  Alcotest.(check bool) "mirror raw" true
    (Seqdata.raw_to_array m = [| 4.; 3.; 2.; 1. |])

(* ---- Suite ---- *)

let () =
  Alcotest.run "core-seq"
    [
      ( "frame",
        [
          Alcotest.test_case "bounds" `Quick test_frame_bounds;
          Alcotest.test_case "invalid" `Quick test_frame_invalid;
          Alcotest.test_case "to_sql" `Quick test_frame_sql;
        ] );
      ( "compute",
        [
          Alcotest.test_case "worked example" `Quick test_compute_example;
          Alcotest.test_case "cumulative" `Quick test_compute_cumulative;
          Alcotest.test_case "prefix sums" `Quick test_prefix_sums;
          Alcotest.test_case "signed zeros bit-identical" `Quick
            test_signed_zeros_bit_identical;
          qtest "pipelined = naive (SUM)" arb_raw_frame prop_pipelined_eq_naive;
          qtest "pipelined = naive (MIN/MAX)" arb_raw_frame prop_minmax_pipelined_eq_naive;
          qtest "COUNT closed form" arb_raw_frame prop_count_closed_form;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "agg helpers" `Quick test_agg_helpers;
          Alcotest.test_case "seqdata accessors" `Quick test_seqdata_accessors;
        ] );
      ( "maintain",
        [
          Alcotest.test_case "update example" `Quick test_maintain_update_example;
          Alcotest.test_case "out of range" `Quick test_maintain_raises;
          qtest ~count:500 "incremental = recompute" arb_maintain_case
            prop_maintain_eq_recompute;
          qtest "in-place update = recompute" arb_raw_frame prop_update_in_place;
        ] );
      ( "reconstruct",
        [
          Alcotest.test_case "cumulative example" `Quick test_reconstruct_example;
          Alcotest.test_case "min/max rejected" `Quick test_reconstruct_minmax_rejected;
          Alcotest.test_case "prefix closure" `Quick test_prefix_matches_raw_prefix;
          qtest "raw_all inverts compute" arb_raw_frame prop_reconstruct_raw;
          qtest "pointwise explicit form" arb_raw_frame prop_reconstruct_pointwise;
        ] );
    ]
