(* Fleet layer tests: shared-budget enforcement, deterministic
   scheduling, interference visibility and registry aggregation. *)

module R = Obs.Registry

let scheme = Workloads.Harness.Mine_sweeper Minesweeper.Config.default
let scale = 0.02

(* Small but real: 1 leaker + 2 steady tenants keeps the quick tests
   under a second while still exercising cross-tenant coupling. *)
let small_specs () = Fleet.noisy_neighbour ~steady:2 scheme

let run_small ?(budget = Fleet.default_budget) ?purge_order ?scheduler () =
  Fleet.run ~scale (Fleet.config ~budget ?purge_order ?scheduler ())
    (small_specs ())

let test_budget_never_exceeded () =
  (* A budget below the natural footprint forces the full pressure
     path: reclaims first, OOM kills as the backstop — and the
     post-enforcement peak must still respect the budget. *)
  let budget = 3 * 1024 * 1024 in
  let r = run_small ~budget () in
  Alcotest.(check bool) "pressure path exercised" true
    (r.Fleet.pressure_events > 0);
  Alcotest.(check bool) "reclaim attempted before killing" true
    (r.Fleet.total_reclaims > 0);
  Alcotest.(check bool) "committed peak within budget" true
    (r.Fleet.committed_peak <= budget);
  Alcotest.(check int) "overshoot is raw minus budget (clamped)"
    (max 0 (r.Fleet.committed_peak_raw - budget))
    r.Fleet.overshoot;
  let killed = List.filter (fun t -> t.Fleet.killed) r.Fleet.tenants in
  Alcotest.(check bool) "budget below the mapping floor forces a kill" true
    (killed <> []);
  List.iter
    (fun (t : Fleet.tenant_result) ->
      Alcotest.(check bool)
        (t.Fleet.name ^ ": killed tenants stop serving") true
        (t.Fleet.server.Workloads.Server.completed
        < t.Fleet.server.Workloads.Server.requests))
    killed;
  Alcotest.(check int) "oom_kills counts killed tenants"
    (List.length killed) r.Fleet.oom_kills

let test_budget_held_after_last_request () =
  (* The request that crosses the budget is the lone tenant's last, so
     no tenant is running when enforcement runs: the finished one must
     still be reclaimed (or killed) back under the budget. *)
  let steady = Option.get (Workloads.Server.find "steady") in
  let budget = 1_105_920 in
  let r =
    Fleet.run ~seed:4 ~scale:0.02 (Fleet.config ~budget ())
      [ Fleet.tenant steady scheme ]
  in
  Alcotest.(check bool) "pressure path exercised" true
    (r.Fleet.pressure_events > 0);
  Alcotest.(check bool) "committed peak within budget" true
    (r.Fleet.committed_peak <= budget)

let test_ample_budget_no_pressure () =
  let r = run_small () in
  Alcotest.(check int) "no pressure events" 0 r.Fleet.pressure_events;
  Alcotest.(check int) "no reclaims" 0 r.Fleet.total_reclaims;
  Alcotest.(check int) "no kills" 0 r.Fleet.oom_kills;
  List.iter
    (fun (t : Fleet.tenant_result) ->
      Alcotest.(check bool) (t.Fleet.name ^ " not killed") false t.Fleet.killed)
    r.Fleet.tenants

let test_deterministic_export () =
  let export () = Obs.Export.metrics_to_string (run_small ()).Fleet.registry in
  Alcotest.(check string) "two runs export identical metrics" (export ())
    (export ())

let test_seed_changes_run () =
  let stalled r =
    List.fold_left
      (fun acc (t : Fleet.tenant_result) ->
        acc + t.Fleet.server.Workloads.Server.stalled)
      0 r.Fleet.tenants
  in
  let a = Fleet.run ~scale ~seed:1 (Fleet.config ()) (small_specs ()) in
  let b = Fleet.run ~scale ~seed:2 (Fleet.config ()) (small_specs ()) in
  Alcotest.(check bool) "different seeds give different dynamics" true
    (stalled a <> stalled b)

let test_neighbour_stall_above_isolation () =
  (* The acceptance property: a steady tenant's p99 stall latency inside
     the fleet (beside a leaking, sweeping neighbour) is strictly above
     the same tenant running alone on the same seed. *)
  let r = run_small () in
  List.iteri
    (fun i (t : Fleet.tenant_result) ->
      if i > 0 then begin
        let spec = List.nth (small_specs ()) i in
        let iso =
          Workloads.Server.run ~scale
            ~seed:(Sim.Rng.split_seed ~seed:9100 ~index:i)
            spec.Fleet.profile scheme
        in
        Alcotest.(check bool)
          (t.Fleet.name ^ ": same arrivals as isolation")
          true
          (t.Fleet.server.Workloads.Server.arrivals
          = iso.Workloads.Server.arrivals);
        Alcotest.(check bool)
          (t.Fleet.name ^ ": interference was injected")
          true
          (t.Fleet.injected_stall_cycles > 0);
        Alcotest.(check bool)
          (t.Fleet.name ^ ": fleet p99 stall strictly above isolation")
          true
          (t.Fleet.server.Workloads.Server.stall_latency.Workloads.Server.p99
          > iso.Workloads.Server.stall_latency.Workloads.Server.p99)
      end)
    r.Fleet.tenants

let test_registry_aggregation () =
  let r = run_small () in
  let reg = r.Fleet.registry in
  let read name =
    match R.read reg name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  (* Per-tenant namespaces exist for every tenant, and the aggregate is
     their bucket-wise / additive union. *)
  let n = List.length r.Fleet.tenants in
  let sum name =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + read (Printf.sprintf "fleet.t%d.%s" i name)
    done;
    !acc
  in
  Alcotest.(check int) "agg requests = sum of tenant requests"
    (sum "srv.requests")
    (read "fleet.agg.srv.requests");
  (match R.find reg "fleet.agg.srv.latency" with
  | Some (R.Histogram h) ->
    let per_tenant = ref 0 in
    for i = 0 to n - 1 do
      match R.find reg (Printf.sprintf "fleet.t%d.srv.latency" i) with
      | Some (R.Histogram th) -> per_tenant := !per_tenant + R.Histogram.count th
      | _ -> Alcotest.failf "tenant %d latency histogram missing" i
    done;
    Alcotest.(check int) "agg latency count = sum of tenant counts"
      !per_tenant (R.Histogram.count h)
  | _ -> Alcotest.fail "fleet.agg.srv.latency missing");
  Alcotest.(check int) "fleet.tenants gauge" n (read "fleet.tenants");
  Alcotest.(check bool) "committed peak recorded" true
    (read "fleet.committed_peak" > 0)

let test_quarantine_budget_trims () =
  (* A tiny per-tenant quarantine budget forces reclaims even when the
     machine budget is ample. *)
  let specs =
    List.map
      (fun (s : Fleet.tenant_spec) ->
        { s with Fleet.quarantine_budget = 64 * 1024 })
      (small_specs ())
  in
  let r = Fleet.run ~scale (Fleet.config ()) specs in
  let trims =
    List.fold_left
      (fun acc (t : Fleet.tenant_result) -> acc + t.Fleet.quarantine_trims)
      0 r.Fleet.tenants
  in
  Alcotest.(check bool) "quarantine budget forced trims" true (trims > 0);
  Alcotest.(check int) "no machine pressure needed" 0 r.Fleet.pressure_events

let test_purge_orders_both_run () =
  let budget = 3 * 1024 * 1024 in
  List.iter
    (fun order ->
      let r = run_small ~budget ~purge_order:order () in
      Alcotest.(check bool)
        (Fleet.purge_order_name order ^ " reclaims under pressure")
        true
        (r.Fleet.total_reclaims > 0))
    [ Fleet.Largest_quarantine; Fleet.Round_robin_purge ]

let test_priority_scheduler () =
  (* Priority scheduling reorders the interleaving deterministically;
     all tenants still finish and the run stays reproducible. *)
  let weighted =
    List.mapi
      (fun i (s : Fleet.tenant_spec) -> { s with Fleet.weight = i + 1 })
      (small_specs ())
  in
  let run () =
    Fleet.run ~scale (Fleet.config ~scheduler:Fleet.Priority ()) weighted
  in
  let a = run () in
  List.iter
    (fun (t : Fleet.tenant_result) ->
      Alcotest.(check bool) (t.Fleet.name ^ " completed requests") true
        (t.Fleet.server.Workloads.Server.completed > 0))
    a.Fleet.tenants;
  Alcotest.(check string) "priority runs are deterministic"
    (Obs.Export.metrics_to_string a.Fleet.registry)
    (Obs.Export.metrics_to_string (run ()).Fleet.registry)

let test_machine_single_shot () =
  let m = Fleet.Machine.create (Fleet.config ()) (small_specs ()) in
  Alcotest.(check bool) "empty tenant list rejected" true
    (try
       ignore (Fleet.Machine.create (Fleet.config ()) []);
       false
     with Invalid_argument _ -> true);
  ignore (Fleet.Machine.run m : Fleet.result);
  Alcotest.(check bool) "second run rejected" true
    (try
       ignore (Fleet.Machine.run m : Fleet.result);
       false
     with Invalid_argument _ -> true)

let test_run_repeats_distinct () =
  let rs = Fleet.run_repeats ~scale ~repeats:2 (Fleet.config ()) (small_specs ()) in
  match rs with
  | [ a; b ] ->
    let arr (r : Fleet.result) =
      (List.hd r.Fleet.tenants).Fleet.server.Workloads.Server.arrivals
    in
    Alcotest.(check bool) "repeats draw independent arrival streams" true
      (arr a <> arr b)
  | _ -> Alcotest.fail "expected 2 results"

let suite =
  ( "fleet",
    [
      Alcotest.test_case "budget never exceeded under pressure" `Quick
        test_budget_never_exceeded;
      Alcotest.test_case "budget held after a tenant's last request" `Quick
        test_budget_held_after_last_request;
      Alcotest.test_case "ample budget: no pressure" `Quick
        test_ample_budget_no_pressure;
      Alcotest.test_case "deterministic export" `Quick
        test_deterministic_export;
      Alcotest.test_case "seed changes the run" `Quick test_seed_changes_run;
      Alcotest.test_case "neighbour stall above isolation" `Slow
        test_neighbour_stall_above_isolation;
      Alcotest.test_case "registry aggregation" `Quick
        test_registry_aggregation;
      Alcotest.test_case "quarantine budget trims" `Quick
        test_quarantine_budget_trims;
      Alcotest.test_case "both purge orders reclaim" `Quick
        test_purge_orders_both_run;
      Alcotest.test_case "priority scheduler deterministic" `Quick
        test_priority_scheduler;
      Alcotest.test_case "machine is single-shot" `Quick
        test_machine_single_shot;
      Alcotest.test_case "run_repeats independent" `Quick
        test_run_repeats_distinct;
    ] )
