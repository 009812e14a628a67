(** Computing sequence values from raw data (paper §2.2), on the
    window kernel ({!Kernel}).

    All constructors return {e complete} sequences (header and trailer
    included, §3.2).  Every fold starts from the empty window's value
    ([0.] for SUM, {!Agg.absent} for MIN/MAX), so {!naive} and
    {!pipelined} agree bit for bit on integer-valued data, signed zeros
    included. *)

(** The explicit form: [W(k)+1] operations per position (O(n·w) for
    sliding windows, O(n²) for cumulative ones). *)
val naive : ?agg:Agg.t -> Frame.t -> Seqdata.raw -> Seqdata.t

(** The paper's pipelined strategy: the recursion
    [x~_k = x~_(k-1) + x_(k+h) - x_(k-l-1)] for sliding SUM windows
    (three operations per position independent of the window size, cache
    of w+2 values) and a running accumulator for cumulative frames.
    MIN/MAX sliding windows use a monotonic deque, O(n) total. *)
val pipelined : ?agg:Agg.t -> Frame.t -> Seqdata.raw -> Seqdata.t

(** [fill ?seed ~agg frame raw ~first ~last out ~pos] writes the values
    at sequence positions [first..last] into [out.(pos) ..], by the
    pipelined strategy, in O(w + last - first).  A cumulative frame
    folds on from [seed], the value at position [first - 1] (by default
    the empty window's, right for [first = 1]). *)
val fill :
  ?seed:float ->
  agg:Agg.t ->
  Frame.t ->
  Seqdata.raw ->
  first:int ->
  last:int ->
  float array ->
  pos:int ->
  unit

(** The default (efficient) strategy; currently {!pipelined}. *)
val sequence : ?agg:Agg.t -> Frame.t -> Seqdata.raw -> Seqdata.t

(** Prefix sums [C_j = x_1 + ... + x_j] for [j] in [0, n]. *)
val prefix_sums : Seqdata.raw -> float array
