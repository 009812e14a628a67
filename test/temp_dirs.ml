(* Database directories for the durable suites: one temporary root per
   test run, outside the working directory.  At exit the root is removed
   when every test that ran passed, and kept, with its path printed,
   when one failed. *)

let root = lazy (Filename.temp_dir "rfview_test_" "")
let failed = ref false

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  at_exit (fun () ->
      if Lazy.is_val root then
        if !failed then Printf.eprintf "test directories kept in %s\n" (Lazy.force root)
        else remove (Lazy.force root))

(* The directory [name] under the root, with a previous test's files
   removed; created when [create], else left for the engine to create. *)
let fresh ?(create = false) name =
  let dir = Filename.concat (Lazy.force root) name in
  if Sys.file_exists dir then remove dir;
  if create then Sys.mkdir dir 0o755;
  dir

(* [Alcotest.run], noting whether a test failed. *)
let run name suites =
  let note (case, speed, f) =
    ( case,
      speed,
      fun x ->
        try f x
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          failed := true;
          Printexc.raise_with_backtrace e bt )
  in
  Alcotest.run name (List.map (fun (suite, cases) -> (suite, List.map note cases)) suites)
