(* Scalar expressions over a resolved schema.  Column references are
   positional ([Col i]); the planner's binder resolves names to indices.

   Boolean evaluation follows SQL three-valued logic: predicates evaluate
   to TRUE, FALSE or NULL (unknown); filters keep only TRUE rows. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop =
  | Neg
  | Not

type func =
  | Coalesce
  | Abs
  | Least
  | Greatest
  | Year
  | Month
  | Day
  | Nullif
  | Sign

type t =
  | Const of Value.t
  | Col of int
  | Binop of binop * t * t
  | Unop of unop * t
  | Case of (t * t) list * t option  (* searched CASE: WHEN cond THEN v *)
  | Call of func * t list
  | In_list of t * t list
  | Between of t * t * t             (* e BETWEEN lo AND hi *)
  | Is_null of t
  | Is_not_null of t

let func_name = function
  | Coalesce -> "COALESCE"
  | Abs -> "ABS"
  | Least -> "LEAST"
  | Greatest -> "GREATEST"
  | Year -> "YEAR"
  | Month -> "MONTH"
  | Day -> "DAY"
  | Nullif -> "NULLIF"
  | Sign -> "SIGN"

let func_of_name s =
  match String.uppercase_ascii s with
  | "COALESCE" -> Some Coalesce
  | "ABS" -> Some Abs
  | "LEAST" -> Some Least
  | "GREATEST" -> Some Greatest
  | "YEAR" -> Some Year
  | "MONTH" -> Some Month
  | "DAY" -> Some Day
  | "NULLIF" -> Some Nullif
  | "SIGN" -> Some Sign
  | _ -> None

(* ---- Three-valued logic helpers ---- *)

let tvl_and a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | a, b ->
    Value.type_error "AND expects booleans, got %s and %s" (Value.to_string a)
      (Value.to_string b)

let tvl_or a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | a, b ->
    Value.type_error "OR expects booleans, got %s and %s" (Value.to_string a)
      (Value.to_string b)

let tvl_not = function
  | Value.Null -> Value.Null
  | Value.Bool b -> Value.Bool (not b)
  | v -> Value.type_error "NOT expects a boolean, got %s" (Value.to_string v)

let cmp_result op a b =
  match Value.sql_compare a b with
  | None -> Value.Null
  | Some c ->
    Value.Bool
      (match op with
       | Eq -> c = 0
       | Neq -> c <> 0
       | Lt -> c < 0
       | Le -> c <= 0
       | Gt -> c > 0
       | Ge -> c >= 0
       | Add | Sub | Mul | Div | Mod | And | Or -> assert false)

(* ---- Evaluation ---- *)

let rec eval (row : Row.t) (e : t) : Value.t =
  match e with
  | Const v -> v
  | Col i -> Row.get row i
  | Binop (op, a, b) -> eval_binop row op a b
  | Unop (Neg, a) -> Value.neg (eval row a)
  | Unop (Not, a) -> tvl_not (eval row a)
  | Case (whens, else_) -> eval_case row whens else_
  | Call (f, args) -> eval_call row f args
  | In_list (e, items) -> eval_in row e items
  | Between (e, lo, hi) ->
    let v = eval row e in
    tvl_and (cmp_result Ge v (eval row lo)) (cmp_result Le v (eval row hi))
  | Is_null e -> Value.Bool (Value.is_null (eval row e))
  | Is_not_null e -> Value.Bool (not (Value.is_null (eval row e)))

and eval_binop row op a b =
  match op with
  | And -> tvl_and (eval row a) (eval row b)
  | Or -> tvl_or (eval row a) (eval row b)
  | Add -> Value.add (eval row a) (eval row b)
  | Sub -> Value.sub (eval row a) (eval row b)
  | Mul -> Value.mul (eval row a) (eval row b)
  | Div -> Value.div (eval row a) (eval row b)
  | Mod -> Value.modulo (eval row a) (eval row b)
  | Eq | Neq | Lt | Le | Gt | Ge -> cmp_result op (eval row a) (eval row b)

and eval_case row whens else_ =
  let rec loop = function
    | [] -> (match else_ with None -> Value.Null | Some e -> eval row e)
    | (cond, v) :: rest ->
      (match eval row cond with
       | Value.Bool true -> eval row v
       | Value.Bool false | Value.Null -> loop rest
       | c -> Value.type_error "CASE condition must be boolean, got %s" (Value.to_string c))
  in
  loop whens

and eval_call row f args =
  match f, args with
  | Coalesce, args ->
    let rec first = function
      | [] -> Value.Null
      | a :: rest ->
        let v = eval row a in
        if Value.is_null v then first rest else v
    in
    first args
  | Abs, [ a ] ->
    (match eval row a with
     | Value.Null -> Value.Null
     | Value.Int i -> Value.Int (abs i)
     | Value.Float f -> Value.Float (Float.abs f)
     | v -> Value.type_error "ABS expects a number, got %s" (Value.to_string v))
  | Sign, [ a ] ->
    (match eval row a with
     | Value.Null -> Value.Null
     | Value.Int i -> Value.Int (compare i 0)
     | Value.Float f -> Value.Int (compare f 0.)
     | v -> Value.type_error "SIGN expects a number, got %s" (Value.to_string v))
  | Least, args -> fold_extremum row ( < ) args
  | Greatest, args -> fold_extremum row ( > ) args
  | (Year | Month | Day), [ a ] ->
    (match eval row a with
     | Value.Null -> Value.Null
     | Value.Date d ->
       Value.Int
         (match f with
          | Year -> Value.date_year d
          | Month -> Value.date_month d
          | Day -> Value.date_day d
          | _ -> assert false)
     | v -> Value.type_error "%s expects a date, got %s" (func_name f) (Value.to_string v))
  | Nullif, [ a; b ] ->
    let va = eval row a in
    (match Value.sql_compare va (eval row b) with
     | Some 0 -> Value.Null
     | _ -> va)
  | f, args ->
    Value.type_error "function %s does not accept %d arguments" (func_name f)
      (List.length args)

and fold_extremum row better args =
  let pick acc v =
    match acc, v with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | a, b -> if better (Value.compare b a) 0 then b else a
  in
  match args with
  | [] -> Value.type_error "LEAST/GREATEST need at least one argument"
  | a :: rest -> List.fold_left (fun acc e -> pick acc (eval row e)) (eval row a) rest

and eval_in row e items =
  let v = eval row e in
  if Value.is_null v then Value.Null
  else
    let rec loop saw_null = function
      | [] -> if saw_null then Value.Null else Value.Bool false
      | item :: rest ->
        (match Value.sql_compare v (eval row item) with
         | Some 0 -> Value.Bool true
         | Some _ -> loop saw_null rest
         | None -> loop true rest)
    in
    loop false items

(* A predicate holds iff it evaluates to TRUE (not NULL). *)
let truth = function
  | Value.Bool true -> true
  | Value.Bool false | Value.Null -> false
  | v -> Value.type_error "predicate must be boolean, got %s" (Value.to_string v)

let holds row e = truth (eval row e)

(* ---- Compilation ----

   [eval] walks the tree for every row.  The compiled forms walk it once
   per operator invocation and return a closure with [eval]'s exact
   semantics: the same value (floats bit-identical), the same exception,
   and operands evaluated in the same order.  OCaml evaluates function
   arguments right to left, so [eval_binop] evaluates [b] before [a] and
   BETWEEN evaluates [e], then [hi], then [lo]; the closures do the same.
   An operand is skipped (short-circuit), or a comparison is answered
   without allocating, only where no skipped evaluation can raise: see
   [total] and [boolean].

   Every internal closure takes two rows.  [Col i] reads the left row
   when [i < la] and the right row at [i - la] otherwise, so a join tests
   its condition on a (left, right) pair without building the
   concatenated row.  The one-row forms use [la = max_int]. *)

(* [total e]: evaluating [e] cannot raise.  Columns are assumed in range:
   rows are as wide as the schema the expression was bound against. *)
let rec total = function
  | Const _ | Col _ -> true
  | e -> boolean e

(* [boolean e]: [e] cannot raise and yields Bool or NULL. *)
and boolean = function
  | Const (Value.Bool _ | Value.Null) -> true
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge), a, b) -> total a && total b
  | Between (e, lo, hi) -> total e && total lo && total hi
  | Is_null e | Is_not_null e -> total e
  | Binop ((And | Or), a, b) -> boolean a && boolean b
  | Unop (Not, a) -> boolean a
  | _ -> false

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let of_bool b = if b then vtrue else vfalse

let[@inline] cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Add | Sub | Mul | Div | Mod | And | Or -> assert false

(* [cmp_result] without the intermediate option. *)
let cmp_value op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> of_bool (cmp_holds op (Value.compare a b))

(* [holds] of a comparison whose right operand is the constant [kv]. *)
let[@inline] cmp_const op kv v =
  match v, kv with
  | Value.Int x, Value.Int k -> cmp_holds op (Int.compare x k)
  | Value.Null, _ | _, Value.Null -> false
  | v, kv -> cmp_holds op (Value.compare v kv)

(* [holds] of [v BETWEEN lo AND hi] with constant bounds. *)
let[@inline] between_const lo hi v =
  match v, lo, hi with
  | Value.Int x, Value.Int a, Value.Int b -> a <= x && x <= b
  | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> false
  | v, lo, hi -> Value.compare v lo >= 0 && Value.compare v hi <= 0

(* [a op b] holds iff [b op' a] holds. *)
let flip = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | op -> op

type compiled = Row.t -> Row.t -> Value.t

exception Not_int

let col la i : compiled =
  if i < la then fun l _ -> l.(i)
  else
    let j = i - la in
    fun _ r -> r.(j)

let rec comp la (e : t) : compiled =
  match e with
  | Const v -> fun _ _ -> v
  | Col i -> col la i
  | Binop (op, a, b) -> comp_binop la op a b
  | Unop (Neg, a) ->
    let fa = comp la a in
    fun l r -> Value.neg (fa l r)
  | Unop (Not, a) ->
    let fa = comp la a in
    fun l r -> tvl_not (fa l r)
  | Case (whens, else_) ->
    let whens = List.map (fun (c, v) -> (comp la c, comp la v)) whens in
    let else_ = match else_ with None -> fun _ _ -> Value.Null | Some e -> comp la e in
    fun l r -> case_loop l r else_ whens
  | Call (f, args) -> comp_call la f args
  | In_list (e, items) ->
    let fe = comp la e and items = List.map (comp la) items in
    fun l r ->
      let v = fe l r in
      if Value.is_null v then Value.Null else in_loop l r v false items
  | Between (e, lo, hi) ->
    let fe = comp la e and flo = comp la lo and fhi = comp la hi in
    fun l r ->
      let v = fe l r in
      let c_hi = cmp_value Le v (fhi l r) in
      tvl_and (cmp_value Ge v (flo l r)) c_hi
  | Is_null e ->
    let fe = comp la e in
    fun l r -> of_bool (Value.is_null (fe l r))
  | Is_not_null e ->
    let fe = comp la e in
    fun l r -> of_bool (not (Value.is_null (fe l r)))

and comp_binop la op a b =
  let fa = comp la a and fb = comp la b in
  match op with
  (* FALSE AND x is FALSE for any x, so a total operand may be skipped *)
  | And when total b -> fun l r ->
    (match fa l r with Value.Bool false -> vfalse | va -> tvl_and va (fb l r))
  | And when total a -> fun l r ->
    (match fb l r with Value.Bool false -> vfalse | vb -> tvl_and (fa l r) vb)
  | And -> fun l r -> let vb = fb l r in tvl_and (fa l r) vb
  | Or when total b -> fun l r ->
    (match fa l r with Value.Bool true -> vtrue | va -> tvl_or va (fb l r))
  | Or when total a -> fun l r ->
    (match fb l r with Value.Bool true -> vtrue | vb -> tvl_or (fa l r) vb)
  | Or -> fun l r -> let vb = fb l r in tvl_or (fa l r) vb
  | Add -> fun l r ->
    let vb = fb l r in
    (match fa l r, vb with
     | Value.Int x, Value.Int y -> Value.Int (x + y)
     | va, vb -> Value.add va vb)
  | Sub -> fun l r ->
    let vb = fb l r in
    (match fa l r, vb with
     | Value.Int x, Value.Int y -> Value.Int (x - y)
     | va, vb -> Value.sub va vb)
  | Mul -> fun l r -> let vb = fb l r in Value.mul (fa l r) vb
  | Div -> fun l r -> let vb = fb l r in Value.div (fa l r) vb
  | Mod -> fun l r -> let vb = fb l r in Value.modulo (fa l r) vb
  | Eq | Neq | Lt | Le | Gt | Ge -> fun l r -> let vb = fb l r in cmp_value op (fa l r) vb

and case_loop l r else_ = function
  | [] -> else_ l r
  | (c, v) :: rest ->
    (match c l r with
     | Value.Bool true -> v l r
     | Value.Bool false | Value.Null -> case_loop l r else_ rest
     | c -> Value.type_error "CASE condition must be boolean, got %s" (Value.to_string c))

and in_loop l r v saw_null = function
  | [] -> if saw_null then Value.Null else vfalse
  | f :: rest ->
    let x = f l r in
    if Value.is_null x then in_loop l r v true rest
    else if Value.compare v x = 0 then vtrue
    else in_loop l r v saw_null rest

and comp_call la f args =
  match f, List.map (comp la) args with
  | Coalesce, fs ->
    let rec first l r = function
      | [] -> Value.Null
      | f :: rest ->
        let v = f l r in
        if Value.is_null v then first l r rest else v
    in
    fun l r -> first l r fs
  | Abs, [ fa ] -> fun l r ->
    (match fa l r with
     | Value.Null -> Value.Null
     | Value.Int i -> Value.Int (abs i)
     | Value.Float f -> Value.Float (Float.abs f)
     | v -> Value.type_error "ABS expects a number, got %s" (Value.to_string v))
  | Sign, [ fa ] -> fun l r ->
    (match fa l r with
     | Value.Null -> Value.Null
     | Value.Int i -> Value.Int (compare i 0)
     | Value.Float f -> Value.Int (compare f 0.)
     | v -> Value.type_error "SIGN expects a number, got %s" (Value.to_string v))
  | Least, fs -> comp_extremum ( < ) fs
  | Greatest, fs -> comp_extremum ( > ) fs
  | (Year | Month | Day), [ fa ] ->
    let part =
      match f with
      | Year -> Value.date_year
      | Month -> Value.date_month
      | _ -> Value.date_day
    in
    fun l r ->
      (match fa l r with
       | Value.Null -> Value.Null
       | Value.Date d -> Value.Int (part d)
       | v ->
         Value.type_error "%s expects a date, got %s" (func_name f) (Value.to_string v))
  | Nullif, [ fa; fb ] -> fun l r ->
    let va = fa l r in
    (match va, fb l r with
     | Value.Null, _ | _, Value.Null -> va
     | _, vb -> if Value.compare va vb = 0 then Value.Null else va)
  | f, _ ->
    let n = List.length args in
    fun _ _ -> Value.type_error "function %s does not accept %d arguments" (func_name f) n

and comp_extremum better = function
  | [] -> fun _ _ -> Value.type_error "LEAST/GREATEST need at least one argument"
  | fa :: rest ->
    let pick acc v =
      match acc, v with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | a, b -> if better (Value.compare b a) 0 then b else a
    in
    let rec fold l r acc = function
      | [] -> acc
      | f :: rest -> fold l r (pick acc (f l r)) rest
    in
    fun l r -> fold l r (fa l r) rest

(* The predicate form: [holds] without boxing the outcome. *)
let rec comp_pred la (e : t) : Row.t -> Row.t -> bool =
  match e with
  | Const (Value.Bool b) -> fun _ _ -> b
  | Const Value.Null -> fun _ _ -> false
  | Binop (And, a, b) when boolean a && boolean b ->
    let pa = comp_pred la a and pb = comp_pred la b in
    fun l r -> pa l r && pb l r
  | Binop (Or, a, b) when boolean a && boolean b ->
    let pa = comp_pred la a and pb = comp_pred la b in
    fun l r -> pa l r || pb l r
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge) as op, a, b) -> comp_cmp la op a b
  | Between (e, lo, hi) when total e && total lo && total hi ->
    (match e, lo, hi with
     | Col i, Const (Value.Int a as lo), Const (Value.Int b as hi) when i < la ->
       fun l _ ->
         (match l.(i) with
          | Value.Int x -> a <= x && x <= b
          | v -> between_const lo hi v)
     | _, Const lo, Const hi ->
       let fe = comp la e in
       fun l r -> between_const lo hi (fe l r)
     | _ ->
       let fe = comp la e and flo = comp la lo and fhi = comp la hi in
       fun l r -> between_const (flo l r) (fhi l r) (fe l r))
  | Is_null e ->
    let fe = comp la e in
    fun l r -> Value.is_null (fe l r)
  | Is_not_null e ->
    let fe = comp la e in
    fun l r -> not (Value.is_null (fe l r))
  | e ->
    let f = comp la e in
    fun l r -> truth (f l r)

and comp_cmp la op a b =
  match a, b with
  | Const kv, _ when total b -> comp_cmp_const la (flip op) b kv
  | _, Const kv when total a -> comp_cmp_const la op a kv
  | _ ->
    let fa = comp la a and fb = comp la b in
    let boxed l r =
      let vb = fb l r in
      match fa l r, vb with
      | Value.Null, _ | _, Value.Null -> false
      | va, vb -> cmp_holds op (Value.compare va vb)
    in
    (* two bare columns or constants already compare without boxing *)
    (match int_form la a, int_form la b with
     | Some ia, Some ib when not (total a && total b) ->
       fun l r ->
         (match ia l r with
          | exception Not_int -> boxed l r
          | x ->
            (match ib l r with
             | exception Not_int -> boxed l r
             | y -> cmp_holds op (Int.compare x y)))
     | _ -> boxed)

(* Integer arithmetic without boxing.  [int_form la e] is [Some f] when
   [e] is built from columns, Int constants, [+], [-] and MOD by a
   non-zero Int constant.  [f] returns [e]'s value when every column it
   reads holds an Int, where [eval] computes the same int boxed (no
   operand can raise), and raises [Not_int] at the first other leaf:
   the caller then runs the boxed closures from the start, so NULLs,
   floats, dates and [eval]'s exceptions come out as before. *)
and int_form la (e : t) : (Row.t -> Row.t -> int) option =
  let int_of = function Value.Int x -> x | _ -> raise_notrace Not_int in
  match e with
  | Const (Value.Int k) -> Some (fun _ _ -> k)
  | Col i when i < la -> Some (fun l _ -> int_of l.(i))
  | Col i ->
    let j = i - la in
    Some (fun _ r -> int_of r.(j))
  | Binop (((Add | Sub) as op), a, b) ->
    (match int_form la a, int_form la b with
     | Some fa, Some fb when op = Add -> Some (fun l r -> fa l r + fb l r)
     | Some fa, Some fb -> Some (fun l r -> fa l r - fb l r)
     | _ -> None)
  | Binop (Mod, a, Const (Value.Int m)) when m <> 0 ->
    Option.map (fun fa l r -> Value.floored_mod (fa l r) m) (int_form la a)
  | _ -> None

(* [a op kv] for a total [a]. *)
and comp_cmp_const la op a kv =
  match a with
  | _ when Value.is_null kv -> fun _ _ -> false
  | Col i when i < la -> fun l _ -> cmp_const op kv l.(i)
  | _ ->
    let fa = comp la a in
    fun l r -> cmp_const op kv (fa l r)

let compile e =
  let f = comp max_int e in
  fun row -> f row row

let compile_pred e =
  let f = comp_pred max_int e in
  fun row -> f row row

let compile_pair ~left_arity e = comp left_arity e
let compile_pred_pair ~left_arity e = comp_pred left_arity e

(* ---- Static typing against a schema ---- *)

exception Type_mismatch of string

let rec infer_type (schema : Schema.t) (e : t) : Dtype.t option =
  (* [None] means "always NULL / unknown", which unifies with anything. *)
  match e with
  | Const v -> Value.dtype_of v
  | Col i -> Some (Schema.col schema i).Schema.ty
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) ->
    (match infer_type schema a, infer_type schema b with
     | Some Dtype.Date, Some Dtype.Int | Some Dtype.Int, Some Dtype.Date ->
       Some Dtype.Date
     | Some Dtype.Date, Some Dtype.Date -> Some Dtype.Int
     | Some ta, Some tb ->
       if Dtype.is_numeric ta && Dtype.is_numeric tb then Dtype.join ta tb
       else raise (Type_mismatch "arithmetic on non-numeric operands")
     | t, None | None, t -> t)
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge | And | Or), _, _)
  | In_list _ | Between _ | Is_null _ | Is_not_null _ -> Some Dtype.Bool
  | Unop (Neg, a) -> infer_type schema a
  | Unop (Not, _) -> Some Dtype.Bool
  | Case (whens, else_) ->
    let tys =
      List.filter_map (fun (_, v) -> infer_type schema v) whens
      @ (match else_ with None -> [] | Some e -> Option.to_list (infer_type schema e))
    in
    (match tys with
     | [] -> None
     | t :: rest ->
       Some
         (List.fold_left
            (fun acc ty ->
              match Dtype.join acc ty with
              | Some t -> t
              | None -> raise (Type_mismatch "CASE branches have incompatible types"))
            t rest))
  | Call ((Year | Month | Day | Sign), _) -> Some Dtype.Int
  | Call (Abs, [ a ]) | Call (Nullif, [ a; _ ]) -> infer_type schema a
  | Call ((Coalesce | Least | Greatest), args) ->
    let tys = List.filter_map (infer_type schema) args in
    (match tys with
     | [] -> None
     | t :: rest ->
       Some
         (List.fold_left
            (fun acc ty ->
              match Dtype.join acc ty with
              | Some t -> t
              | None -> raise (Type_mismatch "incompatible argument types"))
            t rest))
  | Call (f, args) ->
    raise (Type_mismatch
             (Printf.sprintf "%s with %d arguments" (func_name f) (List.length args)))

(* ---- Structural helpers used by the planner ---- *)

let rec map_cols f (e : t) : t =
  match e with
  | Const _ -> e
  | Col i -> Col (f i)
  | Binop (op, a, b) -> Binop (op, map_cols f a, map_cols f b)
  | Unop (op, a) -> Unop (op, map_cols f a)
  | Case (whens, else_) ->
    Case
      ( List.map (fun (c, v) -> (map_cols f c, map_cols f v)) whens,
        Option.map (map_cols f) else_ )
  | Call (fn, args) -> Call (fn, List.map (map_cols f) args)
  | In_list (e, items) -> In_list (map_cols f e, List.map (map_cols f) items)
  | Between (e, lo, hi) -> Between (map_cols f e, map_cols f lo, map_cols f hi)
  | Is_null e -> Is_null (map_cols f e)
  | Is_not_null e -> Is_not_null (map_cols f e)

let rec cols_used acc (e : t) =
  match e with
  | Const _ -> acc
  | Col i -> i :: acc
  | Binop (_, a, b) -> cols_used (cols_used acc a) b
  | Unop (_, a) -> cols_used acc a
  | Case (whens, else_) ->
    let acc = List.fold_left (fun acc (c, v) -> cols_used (cols_used acc c) v) acc whens in
    (match else_ with None -> acc | Some e -> cols_used acc e)
  | Call (_, args) | In_list (_, args) ->
    let acc = match e with In_list (x, _) -> cols_used acc x | _ -> acc in
    List.fold_left cols_used acc args
  | Between (e, lo, hi) -> cols_used (cols_used (cols_used acc e) lo) hi
  | Is_null e | Is_not_null e -> cols_used acc e

let columns e = List.sort_uniq Int.compare (cols_used [] e)

(* Split a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> Binop (And, acc, c)) e rest

(* The Int ranges (column, lo, hi) that a row must meet for [e] to hold
   (see [Relation.admits_chunk]): one per top-level conjunct [col op k] or
   [col BETWEEN a AND b] with Int constants, op one of = < <= > >=.
   Empty when [e] can raise: a skipped row must not skip an exception. *)
let int_ranges e =
  let range i op k =
    match op with
    | Eq -> Some (i, k, k)
    | Lt -> Some (if k = min_int then (i, 1, 0) else (i, min_int, k - 1))
    | Le -> Some (i, min_int, k)
    | Gt -> Some (if k = max_int then (i, 1, 0) else (i, k + 1, max_int))
    | Ge -> Some (i, k, max_int)
    | _ -> None
  in
  if not (boolean e) then []
  else
    List.filter_map
      (function
        | Binop (op, Col i, Const (Value.Int k)) -> range i op k
        | Binop (op, Const (Value.Int k), Col i) -> range i (flip op) k
        | Between (Col i, Const (Value.Int a), Const (Value.Int b)) -> Some (i, a, b)
        | _ -> None)
      (conjuncts e)

(* ---- Pretty-printing (for EXPLAIN output) ---- *)

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"

let rec pp_with ~col ppf (e : t) =
  let pp = pp_with ~col in
  match e with
  | Const v -> Format.pp_print_string ppf (Value.to_sql v)
  | Col i -> Format.pp_print_string ppf (col i)
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (binop_symbol op) pp b
  | Unop (Neg, a) -> Format.fprintf ppf "(-%a)" pp a
  | Unop (Not, a) -> Format.fprintf ppf "(NOT %a)" pp a
  | Case (whens, else_) ->
    Format.fprintf ppf "CASE";
    List.iter (fun (c, v) -> Format.fprintf ppf " WHEN %a THEN %a" pp c pp v) whens;
    (match else_ with
     | None -> ()
     | Some e -> Format.fprintf ppf " ELSE %a" pp e);
    Format.fprintf ppf " END"
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" (func_name f)
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
      args
  | In_list (e, items) ->
    Format.fprintf ppf "%a IN (%a)" pp e
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
      items
  | Between (e, lo, hi) -> Format.fprintf ppf "%a BETWEEN %a AND %a" pp e pp lo pp hi
  | Is_null e -> Format.fprintf ppf "%a IS NULL" pp e
  | Is_not_null e -> Format.fprintf ppf "%a IS NOT NULL" pp e

let pp ppf e = pp_with ~col:(fun i -> Printf.sprintf "$%d" i) ppf e

let to_string ?(col = fun i -> Printf.sprintf "$%d" i) e =
  Format.asprintf "%a" (pp_with ~col) e
