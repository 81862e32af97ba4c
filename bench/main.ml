(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figures 1-19) from the simulation. Host-clock timings of
   the core primitives live in msbench (its micro.* metrics).

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --only fig7,fig10
     dune exec bench/main.exe -- --scale 0.2  -- quick pass *)

let only = ref None
let scale = ref 1.0
let verbose = ref true

let spec =
  [
    ( "--only",
      Arg.String (fun s -> only := Some (String.split_on_char ',' s)),
      "FIGS comma-separated figure ids (fig1,fig2,fig7..fig19, ...); an \
       unknown id exits 1 and lists the valid ones" );
    ("--scale", Arg.Set_float scale, "F trace-length scale factor (default 1.0)");
    ("--quiet", Arg.Clear verbose, " do not log simulation runs to stderr");
  ]

let () =
  Arg.parse spec
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "MineSweeper reproduction benchmark harness";
  let figures =
    match Experiments.select_figures !only with
    | Ok figures -> figures
    | Error unknown ->
      Printf.eprintf "unknown figure id(s): %s\nvalid ids: %s\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst Experiments.all_figures));
      exit 1
  in
  let env = Experiments.make_env ~scale:!scale ~verbose:!verbose () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (key, f) ->
      if !verbose then Printf.eprintf "[figure] %s\n%!" key;
      print_string (f env);
      print_newline ())
    figures;
  if !verbose then
    Printf.eprintf "[done] total %.1f s\n%!" (Unix.gettimeofday () -. t0)
