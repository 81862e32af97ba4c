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

(* Random profiles that stress the generator's (slot, id) handles:
   lifetimes of a few steps, so slots are freed and refilled at once; a
   phase teardown every 500 steps that frees objects whose deaths are
   still scheduled, so by its step a death's slot may hold another
   object; all or no back pointers and leaks, up to 8 threads, and
   separate lifetimes for large objects. *)
let stress_profile =
  let open QCheck.Gen in
  let rate = map (fun k -> float_of_int k /. 8.) (int_range 0 8) in
  let* seed = int_range 0 1_000_000
  and* ops = int_range 1000 2500
  and* short = int_range 1 40
  and* large = opt (int_range 0 400)
  and* pointer_density = rate
  and* root_fraction = rate
  and* dangling_rate = rate
  and* false_pointer_rate = rate
  and* back_pointer_rate = map float_of_int (int_range 0 1)
  and* phase_kill = rate
  and* threads = int_range 1 8
  and* leak_rate = map float_of_int (int_range 0 1)
  and* sites = int_range 1 8 in
  return
    (Workloads.Profile.make ~name:"stress" ~suite:"test" ~ops
       ~size:
         (Sim.Dist.choice
            [
              (0.5, Sim.Dist.uniform ~lo:1 ~hi:24);
              (0.4, Sim.Dist.uniform ~lo:8 ~hi:2048);
              (0.1, Sim.Dist.uniform ~lo:16384 ~hi:40000);
            ])
       ~lifetime:(Sim.Dist.uniform ~lo:0 ~hi:short)
       ?lifetime_large:
         (Option.map (fun hi -> Sim.Dist.uniform ~lo:0 ~hi) large)
       ~work_per_op:200 ~pointer_density ~root_fraction ~dangling_rate
       ~false_pointer_rate ~back_pointer_rate ~phase_ops:(Some 500)
       ~phase_kill ~threads ~leak_rate ~sites ~seed ())

let print_profile (p : Workloads.Profile.t) =
  Printf.sprintf
    "seed %d, ops %d, mean lifetime %g, large %s, density %g, roots %g, \
     dangling %g, false %g, back %g, kill %g, threads %d, leak %g, sites %d"
    p.seed p.ops
    (Sim.Dist.mean_estimate p.lifetime)
    (match p.lifetime_large with
    | Some d -> Printf.sprintf "mean %g" (Sim.Dist.mean_estimate d)
    | None -> "none")
    p.pointer_density p.root_fraction p.dangling_rate p.false_pointer_rate
    p.back_pointer_rate p.phase_kill p.threads p.leak_rate p.sites

let prop_driver_matches_reference_under_stress =
  QCheck.Test.make ~count:25
    ~name:"driver == reference on slot-reusing, teardown-heavy profiles"
    (QCheck.make ~print:print_profile stress_profile)
    (fun p ->
      List.for_all
        (fun scheme ->
          Workloads.Driver.run p scheme = Reference_runners.driver_run p scheme)
        Workloads.Harness.[ Baseline; Mine_sweeper Minesweeper.Config.default ])

(* Minor words per op of drawing one program, after a warm-up draw. *)
let minor_words_per_op draw =
  ignore (draw ());
  let before = Gc.minor_words () in
  let program = draw () in
  (Gc.minor_words () -. before)
  /. float_of_int (Workloads.Trace.length program)

let at_most what bound per_op =
  if per_op > bound then
    Alcotest.failf "%s allocates %.2f minor words/op, above %g" what per_op
      bound

(* The generator's state is flat ints and its draws are unboxed, and
   [Trace.Op_buffer] gathers the ops in one growing array, so drawing a
   program allocates only the ops it emits. [Driver.program] on
   perlbench at 0.05 took 32.1 minor words per emitted op with a boxed
   RNG state, a record per object, a list of refs and a [Hashtbl] of
   deaths, then 10.5 with the ops in a list it reversed; it takes 4.5
   now, 4.0 of them the op records. *)
let test_program_minor_words () =
  let p = Workloads.Spec2006.find "perlbench" in
  at_most "Driver.program" 5.5
    (minor_words_per_op (fun () -> Workloads.Driver.program ~ops_scale:0.05 p))

(* The other two programs collect their ops the same way: a served
   [bursty] stream at 0.5 took 11.7 words an op and a generated
   perlbench trace at 0.05 15.7 when each built a list and reversed it
   (5.7 and 9.7 now). *)
let test_other_programs_minor_words () =
  let bursty =
    Workloads.Server.scale 0.5 (Option.get (Workloads.Server.find "bursty"))
  in
  at_most "Server.program" 6.5
    (minor_words_per_op (fun () -> Workloads.Server.program bursty));
  let perl =
    Workloads.Profile.scale_ops 0.05 (Workloads.Spec2006.find "perlbench")
  in
  at_most "Trace.generate" 10.5
    (minor_words_per_op (fun () -> Workloads.Trace.generate perl))

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
          let addr =
            match stack.Workloads.Harness.malloc_site with
            | Some malloc_site -> malloc_site ~site size
            | None -> stack.Workloads.Harness.malloc size
          in
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
      QCheck_alcotest.to_alcotest prop_driver_matches_reference_under_stress;
      Alcotest.test_case "driver program minor words per op" `Quick
        test_program_minor_words;
      Alcotest.test_case "server and generated programs minor words per op"
        `Quick test_other_programs_minor_words;
      Alcotest.test_case "driver program is what runs" `Quick
        test_driver_program_is_what_runs;
      Alcotest.test_case "server program is what runs" `Quick
        test_server_program_is_what_runs;
    ] )
