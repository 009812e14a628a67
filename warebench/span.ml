(* In-memory trace of the in-process replay.

   A span records one call into a layer: its name, start and end, the
   span that caused it and the request it belongs to.  Spans stay in
   memory until the run ends.  A span's self time is its duration minus
   the time its child spans cover; per-layer metrics are built from
   self times, plus named per-request samples ([sample]) for quantities
   a span cannot carry, such as operator times reported by EXPLAIN
   ANALYZE or byte counts. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** index of the causing span, -1 for a root *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable count : int;
  mutable stack : (int * float ref) list;  (** open spans: index, child time *)
  mutable req : int;
  mutable samples : (string * float) list;
  self : (string, float list) Hashtbl.t;
}

let create () =
  { spans = []; count = 0; stack = []; req = 0; samples = []; self = Hashtbl.create 64 }

(* Monotonic seconds at nanosecond resolution: most layer calls take a
   few microseconds, below [Unix.gettimeofday]'s resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Start a new request: later spans carry its id. *)
let next_request t = t.req <- t.req + 1

let push_self t name x =
  Hashtbl.replace t.self name
    (x :: Option.value ~default:[] (Hashtbl.find_opt t.self name))

let record t ~id ~name ~parent ~start ~stop ~child =
  t.spans <- { id; name; req = t.req; parent; start; stop } :: t.spans;
  (match t.stack with
   | (_, parent_child) :: _ -> parent_child := !parent_child +. (stop -. start)
   | [] -> ());
  push_self t name (stop -. start -. child)

(* Time [f] as a span named [name] and return its result with the
   span's duration in seconds; without a tracer, [f] is only timed. *)
let timed tr name f =
  match tr with
  | None ->
    let start = now () in
    let r = f () in
    (r, now () -. start)
  | Some t ->
    let id = t.count in
    t.count <- t.count + 1;
    let parent = match t.stack with (p, _) :: _ -> p | [] -> -1 in
    let child = ref 0. in
    t.stack <- (id, child) :: t.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      record t ~id ~name ~parent ~start ~stop ~child:!child;
      stop -. start
    in
    (match f () with
     | r -> (r, finish ())
     | exception e ->
       ignore (finish ());
       raise e)

let span tr name f = match tr with None -> f () | Some _ -> fst (timed tr name f)

let sample tr name x =
  match tr with None -> () | Some t -> t.samples <- (name, x) :: t.samples

(* Self times of every span named [name], in seconds. *)
let self_times t name =
  Array.of_list (Option.value ~default:[] (Hashtbl.find_opt t.self name))

(* Durations of every span named [name], in seconds. *)
let durations t name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) t.spans)

let samples t name =
  Array.of_list (List.filter_map (fun (n, x) -> if n = name then Some x else None) t.samples)

(* Write every span as a tab-separated line, in start order: id,
   request, parent, name, start and end (seconds since the first span). *)
let write t path =
  let spans = Array.of_list t.spans in
  Array.sort (fun a b -> compare a.id b.id) spans;
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\treq\tparent\tname\tstart_s\tend_s\n";
      Array.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.req s.parent s.name
            (s.start -. t0) (s.stop -. t0))
        spans)
