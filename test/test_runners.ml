(* The runners emit programs: [Driver.run] and [Server] stream [Trace]
   ops through the one interpreter instead of writing simulated memory
   themselves. Direct-write forms of both loops are kept in
   [Reference_runners]; every field of every result must agree with
   them — RSS trace, metrics registry, latency quantiles and arrivals
   included — on every profile of every suite and every server
   profile. *)

let driver_schemes =
  Workloads.Harness.
    [
      Baseline; Mine_sweeper Minesweeper.Config.default; Mark_us; Dang_san;
      Ff_malloc; P_sweeper;
    ]

let server_schemes =
  Workloads.Harness.
    [
      Baseline; Mine_sweeper Minesweeper.Config.default;
      Mine_sweeper Minesweeper.Config.mostly_concurrent; Dang_san; Pooled None;
    ]

let test_driver_matches_reference () =
  List.iter
    (fun (suite, profiles) ->
      List.iter
        (fun (p : Workloads.Profile.t) ->
          List.iter
            (fun scheme ->
              let expected =
                Reference_runners.driver_run ~ops_scale:0.02 p scheme
              in
              let got = Workloads.Driver.run ~ops_scale:0.02 p scheme in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s under %s" suite p.Workloads.Profile.name
                   expected.Workloads.Driver.scheme)
                true (got = expected))
            driver_schemes)
        profiles)
    Workloads.Harness.suites

let test_server_matches_reference () =
  List.iter
    (fun (sp : Workloads.Server.profile) ->
      List.iter
        (fun scheme ->
          (* The result, and the stack's registry where it keeps one:
             the srv.* metrics land there beside ms.* *)
          let run f =
            let stack = ref None in
            let r = f (fun s -> stack := Some s) in
            ( r,
              Option.bind !stack (fun s ->
                  Option.map Obs.Registry.snapshot s.Workloads.Harness.obs) )
          in
          let expected =
            run (fun on_build ->
                Reference_runners.server_run ~scale:0.05 ~on_build sp scheme)
          in
          let got =
            run (fun on_build ->
                Workloads.Server.run ~scale:0.05 ~on_build sp scheme)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s" sp.Workloads.Server.name
               (fst expected).Workloads.Server.scheme)
            true (got = expected))
        server_schemes)
    Workloads.Server.profiles

(* [Driver.program] is what [Driver.run] streams: replaying it through a
   target that does what the runner's does lands on the same clock. *)
let test_driver_program_is_what_runs () =
  let p = Workloads.Spec2006.find "perlbench" in
  let scheme = Workloads.Harness.Mine_sweeper Minesweeper.Config.default in
  let r = Workloads.Driver.run ~ops_scale:0.02 p scheme in
  let program = Workloads.Driver.program ~ops_scale:0.02 p in
  let scaled = Workloads.Profile.scale_ops 0.02 p in
  Alcotest.(check int) "one alloc per step" scaled.Workloads.Profile.ops
    (Workloads.Trace.allocation_count program);
  Alcotest.(check int) "the profile's threads" scaled.Workloads.Profile.threads
    program.Workloads.Trace.threads;
  let machine = Alloc.Machine.create () in
  let stack =
    Workloads.Harness.build scheme ~threads:scaled.Workloads.Profile.threads
      machine
  in
  Alloc.Machine.map_roots machine;
  let frees = ref 0 in
  Workloads.Trace.run program machine
    {
      Workloads.Trace.alloc =
        (fun ~id:_ ~site size ->
          let addr = stack.Workloads.Harness.malloc_site ~site size in
          Alloc.Machine.charge machine
            (int_of_float
               (scaled.Workloads.Profile.cache_sensitivity
               *. float_of_int (stack.Workloads.Harness.cold_penalty size)));
          addr);
      free =
        (fun ~id:_ ~thread addr ->
          incr frees;
          stack.Workloads.Harness.free ~thread addr);
      pointer_store = stack.Workloads.Harness.on_pointer_write;
      data_store = (fun ~slot:_ -> ());
      after_op =
        (fun i ->
          match program.Workloads.Trace.ops.(i) with
          | Workloads.Trace.Work _ -> stack.Workloads.Harness.tick ()
          | _ -> ());
    };
  stack.Workloads.Harness.drain ();
  Alcotest.(check int) "same frees" r.Workloads.Driver.frees !frees;
  Alcotest.(check int) "same sweeps" r.Workloads.Driver.sweeps
    (stack.Workloads.Harness.sweeps ());
  Alcotest.(check int) "same failed frees" r.Workloads.Driver.failed_frees
    (stack.Workloads.Harness.failed_frees ())

(* [Server.program] is what [serve] streams: the ops of every request,
   with its dangling pointers in the globals window. *)
let test_server_program_is_what_runs () =
  let sp =
    Workloads.Server.scale 0.05 (Option.get (Workloads.Server.find "slow-leak"))
  in
  let r = Workloads.Server.run sp Workloads.Harness.Baseline in
  let program = Workloads.Server.program sp in
  let count f = Array.fold_left (fun n op -> if f op then n + 1 else n) 0 in
  let dangling =
    count
      (function Workloads.Trace.Store_ptr _ -> true | _ -> false)
      program.Workloads.Trace.ops
  in
  Alcotest.(check int) "one pointer store per dangling root"
    r.Workloads.Server.dangling_left dangling;
  Alcotest.(check bool) "dangling roots sit in the globals window" true
    (Array.for_all
       (function
         | Workloads.Trace.Store_ptr { loc = Workloads.Trace.Global w; _ } ->
           w >= 1024 / 8
         | Workloads.Trace.Store_ptr _ -> false
         | _ -> true)
       program.Workloads.Trace.ops);
  Alcotest.(check int) "one service work per request"
    r.Workloads.Server.requests
    (count
       (function Workloads.Trace.Work _ -> true | _ -> false)
       program.Workloads.Trace.ops)

let suite =
  ( "workloads.runners",
    [
      Alcotest.test_case "driver == reference on every profile" `Slow
        test_driver_matches_reference;
      Alcotest.test_case "server == reference on every profile" `Slow
        test_server_matches_reference;
      Alcotest.test_case "driver program is what runs" `Quick
        test_driver_program_is_what_runs;
      Alcotest.test_case "server program is what runs" `Quick
        test_server_program_is_what_runs;
    ] )
