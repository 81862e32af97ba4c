(* Workload profiles + trace driver integration tests. *)

let tiny_profile ?(ops = 4000) ?(threads = 1) () =
  Workloads.Profile.make ~name:"tiny" ~suite:"test" ~ops
    ~size:(Sim.Dist.uniform ~lo:16 ~hi:256)
    ~lifetime:(Sim.Dist.exponential ~mean:300.)
    ~work_per_op:200 ~threads ()

let test_profile_tables_complete () =
  Alcotest.(check int) "19 SPEC2006 benchmarks" 19
    (List.length Workloads.Spec2006.all);
  Alcotest.(check int) "18 SPEC2017 benchmarks" 18
    (List.length Workloads.Spec2017.all);
  Alcotest.(check int) "16 mimalloc-bench tests" 16
    (List.length Workloads.Mimalloc_bench.all)

let test_profile_names_unique () =
  let check_unique names =
    Alcotest.(check int) "no duplicates"
      (List.length names)
      (List.length (List.sort_uniq compare names))
  in
  check_unique Workloads.Spec2006.names;
  check_unique Workloads.Spec2017.names;
  check_unique Workloads.Mimalloc_bench.names

let test_find () =
  Alcotest.(check string) "find returns the benchmark" "xalancbmk"
    (Workloads.Spec2006.find "xalancbmk").Workloads.Profile.name;
  Alcotest.check_raises "unknown raises" Not_found (fun () ->
      ignore (Workloads.Spec2006.find "nonesuch"))

let test_threaded_flags () =
  Alcotest.(check bool) "wrf is starred" true (Workloads.Spec2017.threaded "wrf");
  Alcotest.(check bool) "xalancbmk is not" false
    (Workloads.Spec2017.threaded "xalancbmk")

let test_scale_ops () =
  let p = tiny_profile () in
  let scaled = Workloads.Profile.scale_ops 0.5 p in
  Alcotest.(check int) "ops halved" 2000 scaled.Workloads.Profile.ops;
  let floor = Workloads.Profile.scale_ops 0.0001 p in
  Alcotest.(check int) "ops floored" 1000 floor.Workloads.Profile.ops

let test_driver_deterministic () =
  let p = tiny_profile () in
  let r1 = Workloads.Driver.run p Workloads.Harness.Baseline in
  let r2 = Workloads.Driver.run p Workloads.Harness.Baseline in
  Alcotest.(check int) "same wall" r1.Workloads.Driver.wall
    r2.Workloads.Driver.wall;
  Alcotest.(check int) "same peak rss" r1.Workloads.Driver.peak_rss
    r2.Workloads.Driver.peak_rss;
  Alcotest.(check int) "same frees" r1.Workloads.Driver.frees
    r2.Workloads.Driver.frees

let test_driver_all_schemes_complete () =
  let p = tiny_profile () in
  List.iter
    (fun scheme ->
      let r = Workloads.Driver.run p scheme in
      Alcotest.(check int) "all allocations performed" 4000
        r.Workloads.Driver.allocations;
      Alcotest.(check bool) "some frees happened" true
        (r.Workloads.Driver.frees > 1000);
      Alcotest.(check bool) "positive wall time" true (r.Workloads.Driver.wall > 0);
      Alcotest.(check bool) "rss trace recorded" true
        (Array.length r.Workloads.Driver.rss_trace > 10))
    [
      Workloads.Harness.Baseline;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.default;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent;
      Workloads.Harness.Mark_us;
      Workloads.Harness.Ff_malloc;
    ]

let test_protected_runs_cost_more () =
  let p = tiny_profile ~ops:20_000 () in
  let baseline = Workloads.Driver.run p Workloads.Harness.Baseline in
  let ms =
    Workloads.Driver.run p
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Alcotest.(check bool) "protection is not free" true
    (Workloads.Driver.slowdown ~baseline ms > 1.0);
  Alcotest.(check bool) "cpu utilisation rises" true
    (ms.Workloads.Driver.cpu_utilisation
    >= baseline.Workloads.Driver.cpu_utilisation)

let test_minesweeper_sweeps_under_churn () =
  let p = tiny_profile ~ops:30_000 () in
  let ms =
    Workloads.Driver.run p
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Alcotest.(check bool) "sweeps happened" true (ms.Workloads.Driver.sweeps > 0)

let test_threaded_run () =
  let p = tiny_profile ~ops:8000 ~threads:8 () in
  let r =
    Workloads.Driver.run p
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Alcotest.(check int) "trace completes with thread-local buffers" 8000
    r.Workloads.Driver.allocations

let test_rss_limit_kills () =
  (* An absurdly small budget: the run must stop and flag itself. *)
  let p = tiny_profile ~ops:20_000 () in
  let r =
    Workloads.Driver.run ~rss_limit:(3 * 1024 * 1024) p
      Workloads.Harness.Baseline
  in
  Alcotest.(check bool) "killed" true r.Workloads.Driver.oom_killed

let test_overhead_helpers () =
  let p = tiny_profile () in
  let baseline = Workloads.Driver.run p Workloads.Harness.Baseline in
  Alcotest.(check (float 0.0001)) "self slowdown is 1" 1.0
    (Workloads.Driver.slowdown ~baseline baseline);
  Alcotest.(check (float 0.0001)) "self memory is 1" 1.0
    (Workloads.Driver.memory_overhead ~baseline baseline)

let test_scheme_names () =
  Alcotest.(check string) "baseline" "baseline"
    (Workloads.Harness.scheme_name Workloads.Harness.Baseline);
  Alcotest.(check string) "minesweeper" "minesweeper"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Mine_sweeper Minesweeper.Config.default));
  Alcotest.(check string) "mostly" "minesweeper-mostly"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent));
  Alcotest.(check string) "variant" "minesweeper-variant"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Mine_sweeper Minesweeper.Config.unoptimised));
  Alcotest.(check string) "scudo mostly" "scudo-minesweeper-mostly"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Scudo_sweeper Minesweeper.Config.mostly_concurrent));
  Alcotest.(check string) "dlmalloc mostly" "dlmalloc-minesweeper-mostly"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Dl_sweeper Minesweeper.Config.mostly_concurrent))

(* One name table serves the CLI and the figures: every name
   [scheme_name] prints for a tabled scheme selects that scheme again,
   and every alias resolves. *)
let test_scheme_names_round_trip () =
  let open Workloads.Harness in
  List.iter
    (fun s ->
      Alcotest.(check bool) (scheme_name s) true
        (scheme_of_name (scheme_name s) = Ok s))
    schemes;
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) name true (scheme_of_name name = Ok s))
    scheme_aliases;
  Alcotest.(check bool) "unknown name rejected" true
    (Result.is_error (scheme_of_name "bogus"))

(* The three MineSweeper stacks are one builder over three backends:
   same registry layout, same allocator accounting, same cold-reuse
   rule, same end-of-run metrics. *)
let test_protected_stacks_agree () =
  let p = tiny_profile ~ops:30_000 () in
  let layered name =
    List.exists
      (fun prefix -> String.starts_with ~prefix name)
      [ "ms."; "sweep.stage."; "vmem." ]
  in
  let layout (label, scheme) =
    let stack = ref None in
    let r =
      Workloads.Driver.run ~on_build:(fun st -> stack := Some st) p
        (scheme Minesweeper.Config.default)
    in
    let st = Option.get !stack in
    let reg = Option.get st.Workloads.Harness.obs in
    Alcotest.(check bool) (label ^ " swept") true (r.Workloads.Driver.sweeps > 0);
    Alcotest.(check (option int))
      (label ^ " alloc.live_bytes = live_bytes")
      (Some (st.Workloads.Harness.live_bytes ()))
      (Obs.Registry.read reg "alloc.live_bytes");
    Alcotest.(check bool) (label ^ " metrics carry the stage projection") true
      (match
         List.assoc_opt "sweep.stage.seq_cycles_est" r.Workloads.Driver.metrics
       with
      | Some v -> v > 0
      | None -> false);
    let unquarantined =
      Workloads.Harness.build
        (scheme { Minesweeper.Config.default with quarantining = false })
        ~threads:1 (Alloc.Machine.create ())
    in
    Alcotest.(check int) (label ^ " no cold reuse without quarantine") 0
      (unquarantined.Workloads.Harness.cold_penalty 4096);
    (label, List.filter layered (Obs.Registry.names reg))
  in
  match
    List.map layout
      [
        ("minesweeper", fun c -> Workloads.Harness.Mine_sweeper c);
        ("scudo", fun c -> Workloads.Harness.Scudo_sweeper c);
        ("dlmalloc", fun c -> Workloads.Harness.Dl_sweeper c);
      ]
  with
  | (_, names) :: rest ->
    List.iter
      (fun (label, other) ->
        Alcotest.(check (list string)) (label ^ " registry layout") names other)
      rest
  | [] -> assert false

let test_spec2006_live_heaps_reasonable () =
  (* Guard against profile regressions: each benchmark's implied live
     heap must stay within simulator scale. *)
  List.iter
    (fun p ->
      let mean_size = Sim.Dist.mean_estimate p.Workloads.Profile.size in
      let mean_life = Sim.Dist.mean_estimate p.Workloads.Profile.lifetime in
      let live = mean_size *. mean_life in
      Alcotest.(check bool)
        (Printf.sprintf "%s live heap %.1f MiB within [0, 64MiB]"
           p.Workloads.Profile.name
           (live /. 1048576.))
        true
        (live < 64. *. 1048576.))
    Workloads.Spec2006.all

let suite =
  ( "workloads",
    [
      Alcotest.test_case "profile tables complete" `Quick
        test_profile_tables_complete;
      Alcotest.test_case "profile names unique" `Quick test_profile_names_unique;
      Alcotest.test_case "find" `Quick test_find;
      Alcotest.test_case "threaded flags" `Quick test_threaded_flags;
      Alcotest.test_case "scale_ops" `Quick test_scale_ops;
      Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
      Alcotest.test_case "all schemes complete" `Quick
        test_driver_all_schemes_complete;
      Alcotest.test_case "protection costs" `Quick test_protected_runs_cost_more;
      Alcotest.test_case "sweeps under churn" `Quick
        test_minesweeper_sweeps_under_churn;
      Alcotest.test_case "threaded run" `Quick test_threaded_run;
      Alcotest.test_case "rss limit kills" `Quick test_rss_limit_kills;
      Alcotest.test_case "overhead helpers" `Quick test_overhead_helpers;
      Alcotest.test_case "scheme names" `Quick test_scheme_names;
      Alcotest.test_case "scheme names round-trip" `Quick
        test_scheme_names_round_trip;
      Alcotest.test_case "protected stacks agree" `Quick
        test_protected_stacks_agree;
      Alcotest.test_case "live heaps reasonable" `Quick
        test_spec2006_live_heaps_reasonable;
    ] )
