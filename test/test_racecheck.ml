(* Race checker tests: vector clocks, the happens-before rules against
   hand-built streams, the protocol mutant corpus, the live recorder,
   and the bounded schedule explorer. *)

module Event = Racecheck.Event
module Vclock = Racecheck.Vclock
module Hb = Racecheck.Hb
module Protocol = Racecheck.Protocol
module Recorder = Racecheck.Recorder
module Explorer = Racecheck.Explorer
module Diagnostic = Sanitizer.Diagnostic

let rules_of diags =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.rule) diags)

(* ------------------------------------------------------------------ *)
(* Vector clocks *)

let test_vclock_order () =
  let a = Vclock.create 3 and b = Vclock.create 3 in
  Alcotest.(check bool) "zero <= zero" true (Vclock.leq a b);
  Vclock.tick a 0;
  Alcotest.(check bool) "b <= a" true (Vclock.leq b a);
  Alcotest.(check bool) "not a <= b" false (Vclock.leq a b);
  Vclock.tick b 1;
  Alcotest.(check bool) "ticks on different components race" true
    (Vclock.concurrent a b);
  Vclock.join b a;
  Alcotest.(check bool) "after join a <= b" true (Vclock.leq a b);
  Alcotest.(check bool) "join keeps own component" true (Vclock.get b 1 = 1);
  Alcotest.(check string) "rendering" "<1,1,0>" (Vclock.to_string b)

(* ------------------------------------------------------------------ *)
(* Happens-before rules on hand-built streams *)

let ev seq tid kind = { Event.seq; tid; kind }

let test_hb_reuse_quarantined () =
  let diags =
    Hb.analyze ~threads:1
      [
        ev 0 (Event.Mutator 0)
          (Event.Push { raw_thread = 0; addr = 0x5000; usable = 64 });
        ev 1 (Event.Mutator 0) (Event.Serve { addr = 0x5000; usable = 64 });
      ]
  in
  Alcotest.(check (list string)) "serve of quarantined addr flagged"
    [ "rc-reuse-quarantined" ] (rules_of diags)

let test_hb_release_after_mark_clean () =
  let s = Event.Sweeper in
  let diags =
    Hb.analyze ~threads:1
      [
        ev 0 (Event.Mutator 0)
          (Event.Push { raw_thread = 0; addr = 0x5000; usable = 64 });
        ev 1 s (Event.Lock_in { sweep = 1; entries = [ (0x5000, 64) ] });
        ev 2 s (Event.Mark_done { sweep = 1 });
        ev 3 s (Event.Release { sweep = 1; addr = 0x5000 });
        ev 4 s (Event.Sweep_done { sweep = 1 });
      ]
  in
  Alcotest.(check (list string)) "ordered release is clean" [] (rules_of diags)

let test_hb_every_rule_documented () =
  List.iter
    (fun (rule, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s documented" rule)
        true
        (List.mem_assoc rule Hb.rules))
    Hb.rules;
  Alcotest.(check int) "five race rules" 5 (List.length Hb.rules)

(* ------------------------------------------------------------------ *)
(* Protocol emulator and the mutant corpus *)

let test_protocol_mutants () =
  let results = Protocol.self_test () in
  Alcotest.(check int) "unmutated plus every corpus mutant"
    (1 + List.length Sanitizer.Corpus.protocol_mutants)
    (List.length results);
  List.iter
    (fun (r : Protocol.mutant_result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "mutant %s raises exactly its rules" r.name)
        r.expected r.got)
    results

let test_protocol_rules_are_known () =
  (* Every rule a corpus mutant expects must be a documented Hb rule. *)
  List.iter
    (fun (m : Sanitizer.Corpus.protocol_mutant) ->
      List.iter
        (fun rule ->
          Alcotest.(check bool)
            (Printf.sprintf "%s expects documented rule %s" m.mutant_name rule)
            true
            (List.mem_assoc rule Hb.rules))
        m.expected_race_rules)
    Sanitizer.Corpus.protocol_mutants

(* ------------------------------------------------------------------ *)
(* Recorder on live stacks *)

let small_trace seed =
  Workloads.Trace.generate ~seed
    (Workloads.Profile.scale_ops 0.02 (List.hd Workloads.Mimalloc_bench.all))

let test_recorder_clean_on_seeded_trace () =
  List.iter
    (fun (config_name, config) ->
      let r = Recorder.run ~config ~config_name (small_trace 1) in
      Alcotest.(check int)
        (Printf.sprintf "no races under %s" config_name)
        0
        (List.length r.Recorder.diags);
      Alcotest.(check bool)
        (Printf.sprintf "sweeps happened under %s" config_name)
        true (r.Recorder.sweeps > 0);
      Alcotest.(check bool)
        (Printf.sprintf "events recorded under %s" config_name)
        true (r.Recorder.events > 0))
    [
      ("default", Minesweeper.Config.default);
      ("mostly", Minesweeper.Config.mostly_concurrent);
    ]

let test_recorder_deterministic () =
  let render (r : Recorder.report) =
    Printf.sprintf "%d/%d/%d/%d" r.Recorder.sweeps r.Recorder.events
      r.Recorder.window_writes
      (List.length r.Recorder.diags)
  in
  let r1 = Recorder.run ~config:Minesweeper.Config.mostly_concurrent (small_trace 2) in
  let r2 = Recorder.run ~config:Minesweeper.Config.mostly_concurrent (small_trace 2) in
  Alcotest.(check string) "two identical replays record identically"
    (render r1) (render r2)

(* ------------------------------------------------------------------ *)
(* Referees observe: laid over a run, they leave it as it was          *)

(* The same program through the referees' serving target alone, then
   under the sweep oracle (with its post-sweep audit) and the race
   recorder: the instance's metrics and spans must not move. An audited
   run is the unaudited run. *)
let test_observation_is_free () =
  let module Instance = Minesweeper.Instance in
  let module Oracle = Sanitizer.Sweep_oracle in
  let profile suite bench =
    match Workloads.Harness.find_profile ~suite bench with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let generated suite bench =
    Workloads.Trace.generate
      (Workloads.Profile.scale_ops 0.05 (profile suite bench))
  in
  List.iter
    (fun (trace : Workloads.Trace.t) ->
      let name = trace.Workloads.Trace.name in
      let fresh () =
        Oracle.fresh_instance ~config:Minesweeper.Config.default
          ~threads:trace.Workloads.Trace.threads
      in
      let exports ms =
        ( Obs.Export.metrics_to_string (Instance.registry ms),
          Obs.Export.spans_to_string (Instance.trace_ring ms) )
      in
      let served = fresh () in
      Workloads.Trace.run trace (Instance.machine served) (Oracle.serve served);
      Instance.drain served;
      let observed = fresh () in
      let oracle = Oracle.attach ~audit:true observed in
      let s =
        Recorder.attach observed ~threads:(max 1 trace.Workloads.Trace.threads)
      in
      Workloads.Trace.run trace (Instance.machine observed)
        (Recorder.layer s (Oracle.layer oracle (Oracle.serve observed)));
      let report = Oracle.finish oracle ~trace_name:name in
      Recorder.detach s;
      Alcotest.(check bool) (name ^ ": the oracle saw sweeps") true
        (report.Oracle.sweeps > 0);
      Alcotest.(check bool) (name ^ ": the recorder recorded events") true
        (Recorder.events s <> []);
      let metrics, spans = exports served in
      let metrics', spans' = exports observed in
      Alcotest.(check bool) (name ^ ": metrics byte-identical") true
        (metrics = metrics');
      Alcotest.(check bool) (name ^ ": spans byte-identical") true
        (spans = spans'))
    [
      generated "mimalloc" "espresso";
      generated "spec2006" "perlbench";
      Workloads.Driver.program ~ops_scale:0.02 (profile "spec2006" "xalancbmk");
      (* Two Work ops in a row after each free: a sweep falls due while
         the program computes, so a layer that ticked the instance at
         the end of an op would complete it one Work op early. The
         programs above cannot tell: after each Work op they reach an
         allocation or a free, which tick on entry, before the clock
         moves again. *)
      Workloads.Trace.of_string
        ("# msweep-trace v1 work-after-free\n# threads 2\n"
        ^ String.concat ""
            (List.init 3000 (fun k ->
                 Printf.sprintf "a %d 2048\nx %d %d\nw 2500\nw 2500\n" k k
                   (k mod 2))));
    ]

(* ------------------------------------------------------------------ *)
(* Explorer *)

let test_explorer_sound_and_deterministic () =
  let r = Explorer.run ~config_name:"mostly" ~schedules:24 () in
  Alcotest.(check int) "explored what was asked" 24
    (List.length r.Explorer.outcomes);
  Alcotest.(check (list string)) "no ground-truth violations" []
    (List.map Diagnostic.to_string (Explorer.violations r));
  Alcotest.(check int) "no races in any schedule" 0
    (List.length (Explorer.races r));
  Alcotest.(check bool) "double runs render identically" true
    r.Explorer.deterministic;
  Alcotest.(check bool) "equal signatures account equally" true
    r.Explorer.consistent;
  (* The dangling window in the script must actually exercise both
     outcomes across the sampled schedules. *)
  let released = List.fold_left (fun a o -> a + o.Explorer.released) 0 r.Explorer.outcomes in
  let requeued = List.fold_left (fun a o -> a + o.Explorer.requeued) 0 r.Explorer.outcomes in
  Alcotest.(check bool) "some schedule released" true (released > 0);
  Alcotest.(check bool) "some schedule requeued" true (requeued > 0);
  (* One span per schedule landed in the explorer's ring. *)
  Alcotest.(check int) "rc spans exported" 24
    (List.length (Obs.Trace_ring.spans r.Explorer.ring))

let test_explorer_render_stable () =
  let r1 = Explorer.run ~config_name:"mostly" ~schedules:8 () in
  let r2 = Explorer.run ~config_name:"mostly" ~schedules:8 () in
  Alcotest.(check string) "render byte-identical across runs"
    (Explorer.render r1) (Explorer.render r2)

(* The script is a trace of two threads: the static tools must see its
   one deliberate dangling free, and every unsound release the oracle
   reports under the unsound [partial] preset must be one the analyzer
   predicted. *)
let test_explorer_static_dynamic_cross_check () =
  let trace =
    {
      Workloads.Trace.name = "explore";
      threads = 2;
      sites = 1;
      ops = Array.map snd Explorer.script;
    }
  in
  let lint = Sanitizer.Trace_lint.lint trace in
  Alcotest.(check (list (pair string int)))
    "lint flags exactly the dangling free"
    [ ("unclear-before-free", 7) ]
    (List.map (fun (d : Diagnostic.t) -> (d.rule, d.op_index)) lint);
  Alcotest.(check bool) "the dangling free is id 0's" true
    (List.for_all
       (fun (d : Diagnostic.t) -> String.starts_with ~prefix:"id 0 " d.message)
       lint);
  let config = Minesweeper.Config.partial_quarantine in
  let predicted =
    (Flowcheck.Report.analyze_trace
       ~policies:[ Flowcheck.Policy.Minesweeper config ]
       trace)
      .Flowcheck.Report.predicted_unsound
  in
  let r = Explorer.run ~config ~config_name:"partial" ~schedules:max_int () in
  Alcotest.(check int) "the whole space"
    (List.length (Explorer.all_schedules ()))
    (List.length r.Explorer.outcomes);
  Alcotest.(check (list string)) "every violation is an unsound release"
    [ "oracle-unsound" ]
    (rules_of (Explorer.violations r));
  Alcotest.(check int) "partial violations" 228
    (List.length (Explorer.violations r));
  List.iter
    (fun (o : Explorer.outcome) ->
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "schedule %d: id %d predicted unsound" o.index id)
            true (List.mem id predicted))
        o.unsound_ids)
    r.Explorer.outcomes

let suite =
  ( "racecheck",
    [
      Alcotest.test_case "vclock order" `Quick test_vclock_order;
      Alcotest.test_case "hb reuse-quarantined" `Quick test_hb_reuse_quarantined;
      Alcotest.test_case "hb ordered release clean" `Quick
        test_hb_release_after_mark_clean;
      Alcotest.test_case "hb rules documented" `Quick
        test_hb_every_rule_documented;
      Alcotest.test_case "protocol mutants" `Quick test_protocol_mutants;
      Alcotest.test_case "protocol rules known" `Quick
        test_protocol_rules_are_known;
      Alcotest.test_case "recorder clean on seeded trace" `Quick
        test_recorder_clean_on_seeded_trace;
      Alcotest.test_case "recorder deterministic" `Quick
        test_recorder_deterministic;
      Alcotest.test_case "observation is free" `Quick
        test_observation_is_free;
      Alcotest.test_case "explorer sound and deterministic" `Quick
        test_explorer_sound_and_deterministic;
      Alcotest.test_case "explorer render stable" `Quick
        test_explorer_render_stable;
      Alcotest.test_case "explorer static/dynamic cross-check" `Quick
        test_explorer_static_dynamic_cross_check;
    ] )
