(* The credit-card workload of the paper's introduction: a fact table
   [c_transactions] (credit-card transactions) and a dimension table
   [l_locations] mapping shops to cities and regions. *)

open Rfview_relalg
module Db = Rfview_engine.Database

type config = {
  seed : int;
  customers : int;
  locations : int;
  days : int;               (* observation window, starting 2002-01-01 *)
  transactions_per_day : int;
}

let default_config =
  { seed = 2002; customers = 50; locations = 20; days = 90; transactions_per_day = 40 }

let regions = [ "North"; "South"; "East"; "West" ]

let cities =
  [ "Erlangen"; "Nuremberg"; "Munich"; "Berlin"; "Hamburg"; "Dresden"; "Cologne";
    "Frankfurt"; "Stuttgart"; "Leipzig" ]

let generate_locations prng config : Row.t array =
  Array.init config.locations (fun i ->
      [|
        Value.Int (i + 1);
        Value.String (Prng.choose prng cities);
        Value.String (Prng.choose prng regions);
      |])

let generate_transactions prng config : Row.t array =
  let start = Value.date_of_ymd 2002 1 1 in
  let rows = ref [] in
  for day = 0 to config.days - 1 do
    for _ = 1 to config.transactions_per_day do
      let amount =
        Float.max 1. (Prng.gaussian prng ~mean:85. ~stddev:60.)
        |> fun f -> Float.round (f *. 100.) /. 100.
      in
      rows :=
        [|
          Value.Int (Prng.int_range prng ~lo:1 ~hi:config.customers);
          Value.Int (Prng.int_range prng ~lo:1 ~hi:config.locations);
          Value.Date (start + day);
          Value.Float amount;
        |]
        :: !rows
    done
  done;
  Array.of_list (List.rev !rows)

(* Create and populate both tables in [db]. *)
let load ?(config = default_config) db =
  let prng = Prng.create ~seed:config.seed in
  ignore
    (Db.exec db "CREATE TABLE l_locations (l_locid INT, l_city VARCHAR, l_region VARCHAR)");
  ignore
    (Db.exec db
       "CREATE TABLE c_transactions (c_custid INT, c_locid INT, c_date DATE, \
        c_transaction FLOAT)");
  Db.load_table db ~table:"l_locations" (generate_locations prng config);
  Db.load_table db ~table:"c_transactions" (generate_transactions prng config)

(* Same, against a façade session.  The engine handle never escapes the
   library, so callers stay alert-clean. *)
let load_session ?config session =
  load ?config ((Rfview.Session.Unsafe.database [@alert "-unsafe"]) session)

(* The reporting-function query from the paper's introduction, for a given
   customer. *)
let intro_query ?(custid = 4711) () =
  Printf.sprintf
    "SELECT c_date, c_transaction, \
     SUM(c_transaction) OVER (ORDER BY c_date ROWS UNBOUNDED PRECEDING) AS cum_sum_total, \
     SUM(c_transaction) OVER (PARTITION BY MONTH(c_date) ORDER BY c_date ROWS \
     UNBOUNDED PRECEDING) AS cum_sum_month, \
     AVG(c_transaction) OVER (PARTITION BY MONTH(c_date), l_region ORDER BY c_date \
     ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS c_3mvg_avg, \
     AVG(c_transaction) OVER (ORDER BY c_date ROWS BETWEEN CURRENT ROW AND 6 \
     FOLLOWING) AS c_7mvg_avg \
     FROM c_transactions, l_locations \
     WHERE c_locid = l_locid AND c_custid = %d \
     ORDER BY c_date"
    custid
