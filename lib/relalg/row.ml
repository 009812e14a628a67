(* Rows are immutable-by-convention value arrays indexed by schema position. *)

type t = Value.t array

let make = Array.of_list
let get (r : t) i = r.(i)
let arity (r : t) = Array.length r
let append (a : t) (b : t) : t = Array.append a b
let of_array (a : Value.t array) : t = a

(* a top-level loop: [Array.for_all2] allocates a closure per call *)
let rec equal_from (a : t) (b : t) i =
  i = Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

let equal (a : t) (b : t) = Array.length a = Array.length b && equal_from a b 0

let compare (a : t) (b : t) =
  let n = min (Array.length a) (Array.length b) in
  let rec loop i =
    if i = n then Int.compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let hash (r : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 r

(* Keyed by SQL equality: INT 1 and FLOAT 1.0 are one key, and so are
   0.0 and -0.0, and NULL meets NULL, where a polymorphic [Hashtbl]
   keys by structure and keeps such values apart. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* [Array.init n f] without the forced minor collection.  An array
   longer than 256 words goes straight to the major heap, and when its
   fill value is a young block [caml_make_vect] first runs a full minor
   collection, rather than fill it with that many pointers into the
   minor heap.  [Array.init], [map], [mapi] and [of_list] all pass
   their first fresh element as that fill value, and on OCaml 5 a minor
   collection stops every domain.  So fill from [[||]], a static atom
   that is never young, and then store [f 0 .. f (n-1)] in index order,
   as [Array.init] does. *)
let array_init n (f : int -> t) : t array =
  let a = Array.make n [||] in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

(* Project the listed indices into a fresh row. *)
let project idxs (r : t) : t = Array.map (fun i -> r.(i)) idxs

let pp ppf (r : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    (Array.to_list r)

let to_string r = Format.asprintf "%a" pp r
