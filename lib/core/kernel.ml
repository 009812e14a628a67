(* The window kernel (paper §2.2): the explicit form, the pipelined
   two-pointer recursion with its cache of the frame, and the monotonic
   deque for MIN/MAX.  Every window evaluation in the library runs one
   of these three loops; the callers own the values (see kernel.mli). *)

type bound =
  | Fixed of int
  | Offset of int
  | Fn of (int -> int)

let[@inline] at b i = match b with Fixed p -> p | Offset d -> i + d | Fn f -> f i

let explicit ~m ~first ~last ~lo ~hi ~reset ~add ~emit =
  for i = first to last do
    reset ();
    for j = Int.max 0 (at lo i) to Int.min (m - 1) (at hi i) do
      add j
    done;
    emit i
  done

let two_pointer ~m ~first ~last ~lo ~hi ~add ~retire ~emit =
  (* the state holds the positions [!a, !b) *)
  let a = ref 0 and b = ref 0 in
  for i = first to last do
    let lo = Int.max 0 (at lo i) and hi = Int.min m (at hi i + 1) in
    if lo >= !b then begin
      (* nothing in the state stays: empty it and start at [lo] *)
      while !a < !b do
        retire !a;
        incr a
      done;
      a := lo;
      b := lo
    end;
    while !b < hi do
      add !b;
      incr b
    done;
    while !a < lo do
      retire !a;
      incr a
    done;
    emit i
  done

let deque ~m ~first ~last ~lo ~hi ~beats ~emit =
  if first <= last then begin
    (* every position pushed lies in the first row's lo .. the last
       row's hi, and is pushed once *)
    let cap = Int.min (m - 1) (at hi last) - Int.max 0 (at lo first) + 1 in
    let dq = Array.make (Int.max 0 cap) 0 in
    (* candidates in dq.(!front .. !back-1): ascending positions, none
       beaten by a later one *)
    let front = ref 0 and back = ref 0 and next = ref 0 in
    for i = first to last do
      let lo = Int.max 0 (at lo i) and hi = Int.min (m - 1) (at hi i) in
      (* a position below [lo] would leave at once *)
      if !next < lo then next := lo;
      while !next <= hi do
        while !back > !front && beats !next dq.(!back - 1) do
          decr back
        done;
        dq.(!back) <- !next;
        incr back;
        incr next
      done;
      while !front < !back && dq.(!front) < lo do
        incr front
      done;
      emit i (if !front < !back then dq.(!front) else -1)
    done
  end
