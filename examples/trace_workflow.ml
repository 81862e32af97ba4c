(* Portable traces: derive a workload once, save it, replay it against
   several schemes — the workflow for comparing allocators on exactly
   the same program behaviour.

   Run with: dune exec examples/trace_workflow.exe *)

let profile =
  Workloads.Profile.make ~name:"demo-service" ~suite:"example" ~ops:30_000
    ~size:
      (Sim.Dist.choice
         [
           (0.7, Sim.Dist.uniform ~lo:32 ~hi:256);
           (0.3, Sim.Dist.uniform ~lo:256 ~hi:4096);
         ])
    ~lifetime:(Sim.Dist.exponential ~mean:1500.)
    ~work_per_op:400 ~dangling_rate:0.01 ()

let () =
  (* 1. Derive a concrete trace from the profile (deterministic). *)
  let trace = Workloads.Trace.generate ~seed:2026 profile in
  Fmt.pr "generated '%s': %d ops, %d allocations@."
    trace.Workloads.Trace.name
    (Workloads.Trace.length trace)
    (Workloads.Trace.allocation_count trace);

  (* 2. Save and reload it — the file is plain text, diffable, shareable. *)
  let path = Filename.temp_file "demo" ".trace" in
  Workloads.Trace.to_file trace path;
  let trace = Workloads.Trace.of_file path in
  Fmt.pr "round-tripped through %s@.@." path;

  (* 3. Replay the identical byte-for-byte workload under each scheme. *)
  Fmt.pr "%-22s %14s %9s %10s %7s@." "scheme" "wall (cycles)" "cpu" "rss MiB"
    "sweeps";
  let baseline_wall = ref 0 in
  List.iter
    (fun scheme ->
      let stack = Workloads.Harness.fresh scheme ~threads:1 in
      ignore (Workloads.Trace.replay trace stack);
      let machine = stack.Workloads.Harness.machine in
      let wall = Sim.Clock.wall machine.Alloc.Machine.clock in
      if !baseline_wall = 0 then baseline_wall := wall;
      Fmt.pr "%-22s %14d %9.3f %10.2f %7d   (%.2fx)@."
        stack.Workloads.Harness.scheme wall
        (Sim.Clock.cpu_utilisation machine.Alloc.Machine.clock)
        (float_of_int (Workloads.Harness.rss stack) /. 1048576.)
        (stack.Workloads.Harness.sweeps ())
        (float_of_int wall /. float_of_int !baseline_wall))
    [
      Workloads.Harness.Baseline;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.default;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent;
      Workloads.Harness.Mark_us;
      Workloads.Harness.Ff_malloc;
      Workloads.Harness.Cr_count;
      Workloads.Harness.P_sweeper;
      Workloads.Harness.Dang_san;
    ];
  Sys.remove path
