(** Query rewriting: the paper's Fig. 2 relational mapping of reporting
    functions.

    [window_to_self_join] replaces every window operator in a plan by a
    self join on a dense per-partition row number (materialized with the
    Number operator) plus a grouped aggregation — the simulation whose
    cost Table 1 measures.

    Restriction: only framed aggregates whose frame contains the current
    row are rewritable (otherwise rows with empty frames would vanish in
    the inner join); all frames used in the paper qualify. *)

exception Not_rewritable of string

(** Does the frame contain the current row? *)
val frame_contains_current : Rfview_relalg.Window.frame -> bool

(** Rewrite all window operators.  @raise Not_rewritable per above. *)
val window_to_self_join : Logical.t -> Logical.t
