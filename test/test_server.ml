(* Server-traffic family tests: open-loop independence, determinism,
   split-seed repeats, trace round-trips, attack under live traffic. *)

module Server = Workloads.Server
module Trace = Workloads.Trace

let steady = Option.get (Server.find "steady")
let slow_leak = Option.get (Server.find "slow-leak")

let small = Server.scale 0.02 steady (* 600 requests *)
let ms_scheme = Workloads.Harness.Mine_sweeper Minesweeper.Config.default

let run ?(profile = steady) ?(scale = 0.02) scheme =
  Server.run ~scale profile scheme

let test_completes () =
  let r = run Workloads.Harness.Baseline in
  Alcotest.(check bool) "offered some load" true (r.Server.requests > 100);
  Alcotest.(check int) "served everything" r.Server.requests r.Server.completed;
  Alcotest.(check bool) "not oom" false r.Server.oom_killed;
  Alcotest.(check bool) "clock advanced" true (r.Server.wall > 0)

let test_quantiles_ordered () =
  List.iter
    (fun scheme ->
      let r = run scheme in
      let q = r.Server.latency in
      Alcotest.(check bool) "p50 <= p99" true (q.Server.p50 <= q.Server.p99);
      Alcotest.(check bool) "p99 <= p999" true (q.Server.p99 <= q.Server.p999);
      let s = r.Server.stall_latency in
      Alcotest.(check bool) "stall p50 <= p99 <= p999" true
        (s.Server.p50 <= s.Server.p99 && s.Server.p99 <= s.Server.p999);
      Alcotest.(check bool) "stall tail below total tail" true
        (s.Server.p999 <= q.Server.p999 +. 1e-9))
    [ Workloads.Harness.Baseline; ms_scheme ]

let test_arrivals_monotone () =
  let r = run ms_scheme in
  let a = r.Server.arrivals in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then Alcotest.fail "arrival timestamps not monotone"
  done

let test_open_loop_independence () =
  (* The offered timeline must be identical whatever the allocator does:
     baseline and MineSweeper have very different service/stall profiles,
     yet see the same arrivals (closed-loop generators would not). *)
  let a = run Workloads.Harness.Baseline in
  let b = run ms_scheme in
  Alcotest.(check bool) "same arrivals across schemes" true
    (a.Server.arrivals = b.Server.arrivals);
  Alcotest.(check bool) "service differs across schemes" true
    (a.Server.wall <> b.Server.wall)

let test_deterministic () =
  let a = run ms_scheme and b = run ms_scheme in
  Alcotest.(check bool) "identical reruns" true (a = b)

let test_repeats_independent () =
  let rs = Server.run_repeats ~scale:0.02 ~repeats:3 steady Workloads.Harness.Baseline in
  (match rs with
  | [ r0; r1; r2 ] ->
    Alcotest.(check bool) "repeat 0 keeps the profile seed" true
      (r0.Server.arrivals = (run Workloads.Harness.Baseline).Server.arrivals);
    Alcotest.(check bool) "repeat 1 is a different stream" true
      (r0.Server.arrivals <> r1.Server.arrivals);
    Alcotest.(check bool) "repeat 2 differs from both" true
      (r2.Server.arrivals <> r0.Server.arrivals
      && r2.Server.arrivals <> r1.Server.arrivals)
  | _ -> Alcotest.fail "expected 3 results");
  Alcotest.(check bool) "repeat family deterministic" true
    (rs = Server.run_repeats ~scale:0.02 ~repeats:3 steady Workloads.Harness.Baseline)

let test_leak_accounting () =
  let r = run ~profile:slow_leak ~scale:0.05 Workloads.Harness.Baseline in
  Alcotest.(check bool) "handlers leaked" true (r.Server.leaked > 0);
  Alcotest.(check bool) "dangling pointers left" true (r.Server.dangling_left > 0)

let test_srv_metrics_registered () =
  let captured = ref None in
  let _ =
    Server.run ~scale:0.02 ~on_build:(fun stack -> captured := Some stack)
      steady ms_scheme
  in
  match !captured with
  | None -> Alcotest.fail "on_build not called"
  | Some stack -> (
    match stack.Workloads.Harness.obs with
    | None -> Alcotest.fail "minesweeper stack has a registry"
    | Some reg ->
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " registered") true
            (Obs.Registry.mem reg name))
        [
          "srv.latency"; "srv.stall_latency"; "srv.queue_wait"; "srv.service";
          "srv.requests"; "srv.completed"; "srv.queue_depth_max";
        ];
      (* ms.* and srv.* share one export. *)
      Alcotest.(check bool) "ms metrics alongside" true
        (List.exists
           (fun n -> String.length n > 3 && String.sub n 0 3 = "ms.")
           (Obs.Registry.names reg)))

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Server.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Server.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Server.median [])

(* --- the recorded program -------------------------------------------- *)

let test_program_round_trip () =
  let t = Server.program small in
  let s = Trace.to_string t in
  let t' = Trace.of_string s in
  Alcotest.(check string) "byte-identical re-serialisation" s
    (Trace.to_string t');
  Alcotest.(check int) "op count survives" (Trace.length t) (Trace.length t')

let test_program_replays () =
  let t = Server.program small in
  let machine = Alloc.Machine.create () in
  let stack = Workloads.Harness.build ms_scheme ~threads:1 machine in
  Alloc.Machine.map_roots machine;
  let executed = Trace.replay t stack in
  Alcotest.(check int) "replay executes every op" (Trace.length t) executed

let prop_stream_chunks =
  (* The chunked stream agrees with the materialised trace at ANY chunk
     size — the consumer cannot tell how the bytes were buffered. *)
  QCheck.Test.make ~name:"server trace streams identically at any chunk size"
    ~count:25
    QCheck.(int_range 1 300)
    (fun chunk_ops ->
      let t = Server.program (Server.scale 0.005 steady) in
      let s = Trace.to_string t in
      let stream = Trace.stream_of_string ~chunk_ops s in
      let ops =
        Trace.fold_stream stream ~init:[] ~f:(fun acc _ op -> op :: acc)
      in
      Array.of_list (List.rev ops) = t.Trace.ops)

(* --- attack under live traffic -------------------------------------- *)

let attack_outcome ?(double_free = false) scheme =
  let machine = Alloc.Machine.create () in
  let stack = Workloads.Harness.build scheme ~threads:1 machine in
  let outcome, result =
    Attack.hijack_under_traffic ~double_free
      ~profile:(Server.scale 0.05 steady) stack
  in
  Alcotest.(check bool) "traffic flowed during the attack" true
    (result.Server.completed > 1000);
  outcome

let test_attack_baseline_exploited () =
  match attack_outcome Workloads.Harness.Baseline with
  | Attack.Exploited -> ()
  | o -> Alcotest.fail ("baseline should be exploited, got: " ^ Attack.describe o)

let test_attack_minesweeper_prevented () =
  (match attack_outcome ms_scheme with
  | Attack.Exploited -> Alcotest.fail "minesweeper must not be exploited"
  | Attack.Prevented_fault | Attack.Benign -> ());
  match attack_outcome ~double_free:true ms_scheme with
  | Attack.Exploited -> Alcotest.fail "double-free variant must not be exploited"
  | Attack.Prevented_fault | Attack.Benign -> ()

let suite =
  ( "workloads.server",
    [
      Alcotest.test_case "serves the offered load" `Quick test_completes;
      Alcotest.test_case "quantiles ordered" `Quick test_quantiles_ordered;
      Alcotest.test_case "arrivals monotone" `Quick test_arrivals_monotone;
      Alcotest.test_case "open-loop independence" `Quick test_open_loop_independence;
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "repeats use split seeds" `Quick test_repeats_independent;
      Alcotest.test_case "leak accounting" `Quick test_leak_accounting;
      Alcotest.test_case "srv.* metrics registered" `Quick test_srv_metrics_registered;
      Alcotest.test_case "median" `Quick test_median;
      Alcotest.test_case "trace round-trip" `Quick test_program_round_trip;
      Alcotest.test_case "trace replays" `Quick test_program_replays;
      QCheck_alcotest.to_alcotest prop_stream_chunks;
      Alcotest.test_case "attack: baseline exploited" `Quick test_attack_baseline_exploited;
      Alcotest.test_case "attack: minesweeper prevented" `Quick test_attack_minesweeper_prevented;
    ] )
