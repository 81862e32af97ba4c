(* Static dataflow analyzer (lib/flowcheck) tests: abstract-domain
   behaviour on hand-written traces, and the two differential contracts
   against the dynamic layers — bounds dominate the measured ms.*
   telemetry, and every dynamic oracle finding is statically predicted. *)

let analyze_text text =
  Flowcheck.Report.analyze_trace (Workloads.Trace.of_string text)

let rules (r : Flowcheck.Report.t) =
  List.sort_uniq compare
    (List.map
       (fun d -> d.Sanitizer.Diagnostic.rule)
       r.Flowcheck.Report.findings)

let test_dangling_basic () =
  let r =
    analyze_text "# msweep-trace v1 t\na 0 64\np r 1 0\nx 0\n"
  in
  Alcotest.(check (list string)) "flow-dangling raised" [ "flow-dangling" ]
    (rules r);
  Alcotest.(check (list int)) "unsound-if-recycled predicted" [ 0 ]
    r.Flowcheck.Report.predicted_unsound;
  Alcotest.(check (list int)) "retention predicted" [ 0 ]
    r.Flowcheck.Report.predicted_retained;
  Alcotest.(check int) "window opened" 1 r.Flowcheck.Report.windows.opened;
  Alcotest.(check int) "window still open" 1
    r.Flowcheck.Report.windows.open_at_end;
  match r.Flowcheck.Report.findings with
  | [ d ] ->
    Alcotest.(check int) "flagged at the free" 2 d.Sanitizer.Diagnostic.op_index
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length ds))

let test_window_closes_on_overwrite () =
  (* Overwriting the dangling slot with plain data ends the exposure
     window; the graph edge dies with it. *)
  let r =
    analyze_text "# msweep-trace v1 t\na 0 64\np r 1 0\nx 0\nd r 1 5\n"
  in
  Alcotest.(check int) "window opened" 1 r.Flowcheck.Report.windows.opened;
  Alcotest.(check int) "window closed" 1 r.Flowcheck.Report.windows.closed;
  Alcotest.(check int) "none open at end" 0
    r.Flowcheck.Report.windows.open_at_end;
  Alcotest.(check int) "window length = overwrite - free" 1
    r.Flowcheck.Report.windows.max_len

let test_clear_semantics () =
  (* Clearing before the free removes the edge: no exposure at all. *)
  let r =
    analyze_text "# msweep-trace v1 t\na 0 64\np r 1 0\nc r 1 0\nx 0\n"
  in
  Alcotest.(check (list string)) "clear before free: clean" [] (rules r);
  Alcotest.(check int) "no window" 0 r.Flowcheck.Report.windows.opened;
  (* Clearing after the free is skipped at replay (dead target), so the
     pointer bytes physically persist: the window must stay open. *)
  let r' =
    analyze_text "# msweep-trace v1 t\na 0 64\np r 1 0\nx 0\nc r 1 0\n"
  in
  Alcotest.(check int) "dead-target clear closes nothing" 0
    r'.Flowcheck.Report.windows.closed;
  Alcotest.(check int) "window still open" 1
    r'.Flowcheck.Report.windows.open_at_end

let test_witness_chain () =
  (* id 0 is held by a field of id 1, itself held by a root: the witness
     names the whole chain. *)
  let r =
    analyze_text
      "# msweep-trace v1 t\na 0 64\na 1 64\np f 1 0 0\np r 3 1\nx 0\n"
  in
  (match r.Flowcheck.Report.findings with
  | [ d ] ->
    let msg = d.Sanitizer.Diagnostic.message in
    let contains needle =
      let nl = String.length needle and ml = String.length msg in
      let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "chain names the field slot" true
      (contains "obj1[0]");
    Alcotest.(check bool) "chain names the root holder" true
      (contains "root[3]")
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length ds)));
  Alcotest.(check (list int)) "only the freed id is unsound" [ 0 ]
    r.Flowcheck.Report.predicted_unsound

let test_alias_retention () =
  (* A negative Store_data value encodes the address of an object as
     data: not a pointer, but exactly what makes a conservative sweep
     retain the free. *)
  let r = analyze_text "# msweep-trace v1 t\na 0 64\nd r 2 -1\nx 0\n" in
  Alcotest.(check (list string)) "flow-alias raised" [ "flow-alias" ] (rules r);
  Alcotest.(check (list int)) "no unsoundness predicted" []
    r.Flowcheck.Report.predicted_unsound;
  Alcotest.(check (list int)) "retention predicted" [ 0 ]
    r.Flowcheck.Report.predicted_retained

let test_wild_store () =
  let wild = 0x4000_0000 in
  let r =
    analyze_text
      (Printf.sprintf "# msweep-trace v1 t\na 0 64\nd r 1 %d\nx 0\n" wild)
  in
  Alcotest.(check (list string)) "flow-wild raised" [ "flow-wild" ] (rules r);
  Alcotest.(check int) "wild store counted" 1 r.Flowcheck.Report.wild_stores;
  Alcotest.(check (list int)) "wild data forces retention prediction" [ 0 ]
    r.Flowcheck.Report.predicted_retained

let test_subgranule_free () =
  (* A 4-byte request lands in the 8-byte class (extra byte included):
     smaller than the 16-byte shadow granule, so a neighbour's bytes can
     keep it marked. *)
  let r = analyze_text "# msweep-trace v1 t\na 0 4\nx 0\n" in
  Alcotest.(check int) "sub-granule free counted" 1
    r.Flowcheck.Report.subgranule_frees;
  Alcotest.(check (list int)) "retention predicted" [ 0 ]
    r.Flowcheck.Report.predicted_retained;
  (* 16-byte-class frees are granule-aligned: no such prediction. *)
  let r16 = analyze_text "# msweep-trace v1 t\na 0 15\nx 0\n" in
  Alcotest.(check int) "16B class is not sub-granule" 0
    r16.Flowcheck.Report.subgranule_frees

let test_bounds_math () =
  let r = analyze_text "# msweep-trace v1 t\na 0 100\na 1 200\nx 0\nx 1\n" in
  let b =
    List.find
      (fun (b : Flowcheck.Policy.bounds) ->
        b.Flowcheck.Policy.policy = "minesweeper")
      r.Flowcheck.Report.bounds
  in
  let ms = List.hd Flowcheck.Policy.default_policies in
  let u s = Flowcheck.Policy.usable ms s in
  Alcotest.(check int) "peak live = both usable sizes" (u 100 + u 200)
    b.Flowcheck.Policy.peak_live_bytes;
  Alcotest.(check int) "occupancy bound = total freed usable"
    (u 100 + u 200) b.Flowcheck.Policy.occupancy_bound;
  Alcotest.(check int) "max entry" (u 200) b.Flowcheck.Policy.max_entry_bytes;
  Alcotest.(check bool) "modeled <= sound bound" true
    (b.Flowcheck.Policy.modeled_occupancy <= b.Flowcheck.Policy.occupancy_bound);
  let ff =
    List.find
      (fun (b : Flowcheck.Policy.bounds) ->
        b.Flowcheck.Policy.policy = "ffmalloc")
      r.Flowcheck.Report.bounds
  in
  Alcotest.(check bool) "ffmalloc never reuses" true
    ff.Flowcheck.Policy.never_reuse;
  Alcotest.(check int) "ffmalloc sweeps nothing" 0
    ff.Flowcheck.Policy.sweeps_bound

let test_json_deterministic_and_chunk_independent () =
  let profile =
    Workloads.Profile.scale_ops 0.05 (Workloads.Mimalloc_bench.find "espresso")
  in
  let trace = Workloads.Trace.generate profile in
  let text = Workloads.Trace.to_string trace in
  let j1 = Flowcheck.Report.to_json (Flowcheck.Report.analyze_trace trace) in
  let j2 = Flowcheck.Report.to_json (Flowcheck.Report.analyze_trace trace) in
  Alcotest.(check string) "byte-identical across runs" j1 j2;
  List.iter
    (fun chunk_ops ->
      let st = Workloads.Trace.stream_of_string ~chunk_ops text in
      let j = Flowcheck.Report.to_json (Flowcheck.Report.analyze st) in
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d changes nothing" chunk_ops)
        j1 j)
    [ 1; 7; 4096 ]

(* The zero-false-negative contract, on both seeded workloads, under the
   default and incremental configurations, at retention latency 1 (the
   most eager dynamic reporter) and 3. *)
let test_certify_static () =
  let workloads =
    [
      ( "espresso",
        Workloads.Profile.scale_ops 0.05
          (Workloads.Mimalloc_bench.find "espresso") );
      ( "perlbench",
        Workloads.Profile.scale_ops 0.05
          (List.find
             (fun p -> p.Workloads.Profile.name = "perlbench")
             Workloads.Spec2006.all) );
    ]
  in
  List.iter
    (fun (wname, profile) ->
      let trace = Workloads.Trace.generate profile in
      List.iter
        (fun (cname, config) ->
          let sr =
            Flowcheck.Report.analyze_trace
              ~policies:[ Flowcheck.Policy.Minesweeper config ]
              trace
          in
          List.iter
            (fun latency_sweeps ->
              let orc =
                Sanitizer.Sweep_oracle.run ~config ~latency_sweeps
                  ~audit:false trace
              in
              let misses =
                Sanitizer.Sweep_oracle.certify_static
                  ~predicted_unsound:sr.Flowcheck.Report.predicted_unsound
                  ~predicted_retained:sr.Flowcheck.Report.predicted_retained
                  orc
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s latency %d: no static misses" wname
                   cname latency_sweeps)
                []
                (List.map Sanitizer.Diagnostic.to_string misses))
            [ 1; 3 ])
        [
          ("default", Minesweeper.Config.default);
          ("incremental", Minesweeper.Config.incremental);
        ])
    workloads

let test_bounds_dominate_replay () =
  let profile =
    Workloads.Profile.scale_ops 0.05 (Workloads.Mimalloc_bench.find "espresso")
  in
  let trace = Workloads.Trace.generate profile in
  let sr = Flowcheck.Report.analyze_trace trace in
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  let stack =
    Workloads.Harness.build
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
      ~threads:1 machine
  in
  ignore (Workloads.Trace.replay trace stack);
  let reg = Option.get stack.Workloads.Harness.obs in
  let read name = Option.value ~default:0 (Obs.Registry.read reg name) in
  let diags =
    Flowcheck.Report.check_bounds sr ~policy:"minesweeper"
      ~peak_quarantine_bytes:(read "ms.peak_quarantine_bytes")
      ~swept_bytes:(read "ms.swept_bytes")
      ~sweeps:(read "ms.sweeps")
  in
  Alcotest.(check (list string)) "static bounds dominate the replay" []
    (List.map Sanitizer.Diagnostic.to_string diags);
  (* The detector itself must fire when a bound is genuinely exceeded. *)
  let forced =
    Flowcheck.Report.check_bounds sr ~policy:"minesweeper"
      ~peak_quarantine_bytes:max_int ~swept_bytes:0 ~sweeps:0
  in
  Alcotest.(check (list string)) "exceeded occupancy is flagged"
    [ "flow-bound-occupancy" ]
    (List.map (fun d -> d.Sanitizer.Diagnostic.rule) forced);
  Alcotest.(check (list string)) "unknown policy is flagged"
    [ "flow-bound-missing" ]
    (List.map
       (fun d -> d.Sanitizer.Diagnostic.rule)
       (Flowcheck.Report.check_bounds sr ~policy:"nonesuch"
          ~peak_quarantine_bytes:0 ~swept_bytes:0 ~sweeps:0))

let test_lockset_self_test () =
  List.iter
    (fun (r : Flowcheck.Lockset.mutant_result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s raises exactly %s" r.Flowcheck.Lockset.name
           (String.concat "," r.Flowcheck.Lockset.expected))
        r.Flowcheck.Lockset.expected r.Flowcheck.Lockset.got;
      Alcotest.(check bool) (r.Flowcheck.Lockset.name ^ " passes") true
        r.Flowcheck.Lockset.passed)
    (Flowcheck.Lockset.self_test ())

let test_lockset_clean_on_recorded_stream () =
  (* A real recorded replay follows the protocol: the static lockset
     pass must come back clean on its event stream. *)
  let profile =
    Workloads.Profile.scale_ops 0.05 (Workloads.Mimalloc_bench.find "espresso")
  in
  let trace = Workloads.Trace.generate profile in
  List.iter
    (fun (cname, config) ->
      let r = Racecheck.Recorder.run ~config ~config_name:cname trace in
      Alcotest.(check bool)
        (cname ^ ": events recorded") true
        (r.Racecheck.Recorder.stream <> []);
      Alcotest.(check (list string))
        (cname ^ ": lockset clean") []
        (List.map Sanitizer.Diagnostic.to_string
           (Flowcheck.Lockset.analyze r.Racecheck.Recorder.stream)))
    [
      ("default", Minesweeper.Config.default);
      ("mostly", Minesweeper.Config.mostly_concurrent);
    ]

let test_corpus_self_test () =
  List.iter
    (fun (name, expected, got, passed) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s raises exactly [%s]" name
           (String.concat "; " expected))
        expected got;
      Alcotest.(check bool) (name ^ " passes") true passed)
    (Flowcheck.Report.corpus_self_test ())

let test_diagnostic_sort () =
  let mk rule op msg =
    Sanitizer.Diagnostic.make ~rule ~severity:Sanitizer.Diagnostic.Warning
      ~op_index:op msg
  in
  let shuffled =
    [ mk "b" 1 "x"; mk "a" 9 "z"; mk "a" 2 "b"; mk "a" 2 "a"; mk "b" 0 "y" ]
  in
  let sorted = Sanitizer.Diagnostic.sort shuffled in
  Alcotest.(check (list string)) "(rule, op, message) order"
    [ "a/2/a"; "a/2/b"; "a/9/z"; "b/0/y"; "b/1/x" ]
    (List.map
       (fun (d : Sanitizer.Diagnostic.t) ->
         Printf.sprintf "%s/%d/%s" d.Sanitizer.Diagnostic.rule
           d.Sanitizer.Diagnostic.op_index d.Sanitizer.Diagnostic.message)
       sorted)

(* The lint's [unclear-before-free] and the analyzer's [flow-dangling]
   are one analysis: both fold over [Workloads.Absheap], so on any trace
   they flag the same (free op, object id) pairs. *)
let dangling_pairs rule diags =
  List.filter_map
    (fun (d : Sanitizer.Diagnostic.t) ->
      if d.Sanitizer.Diagnostic.rule <> rule then None
      else
        Scanf.sscanf_opt d.Sanitizer.Diagnostic.message "id %d freed"
          (fun id -> (d.Sanitizer.Diagnostic.op_index, id)))
    diags
  |> List.sort_uniq compare

let lint_pairs trace =
  dangling_pairs "unclear-before-free" (Sanitizer.Trace_lint.lint trace)

let analyzer_pairs trace =
  dangling_pairs "flow-dangling"
    (Flowcheck.Report.analyze_trace trace).Flowcheck.Report.findings

let test_lint_matches_corpus () =
  List.iter
    (fun (c : Sanitizer.Corpus.case) ->
      let t = c.Sanitizer.Corpus.trace in
      Alcotest.(check (list (pair int int)))
        (c.Sanitizer.Corpus.name ^ ": same dangling frees") (lint_pairs t)
        (analyzer_pairs t))
    Sanitizer.Corpus.cases;
  let case =
    List.find
      (fun (c : Sanitizer.Corpus.case) ->
        c.Sanitizer.Corpus.name = "unclear-before-free")
      Sanitizer.Corpus.cases
  in
  Alcotest.(check bool) "the dangling case flags a free" true
    (lint_pairs case.Sanitizer.Corpus.trace <> [])

let prop_lint_matches_analyzer =
  let profiles =
    Array.of_list
      (Workloads.Spec2006.all @ Workloads.Spec2017.all
     @ Workloads.Mimalloc_bench.all)
  in
  QCheck.Test.make ~name:"lint and analyzer flag the same dangling frees"
    ~count:40
    QCheck.(pair (int_bound (Array.length profiles - 1)) (int_bound 1_000_000))
    (fun (k, seed) ->
      let trace =
        Workloads.Trace.generate ~seed
          (Workloads.Profile.scale_ops 0.01 profiles.(k))
      in
      lint_pairs trace = analyzer_pairs trace)

(* --- The flat heap against the Hashtbl heap it replaced --------------

   [Reference_absheap] keeps the parent's heap, which never forgot an
   id, and its lint, report and siteflow folds. On random op sequences
   over a few ids (so ids are freed, reused, stored into after their
   free and bound from inside freed holders), the flat heap must give
   the same event at every step under both zeroing modes, reading [Dead]
   and [Holder_dead] as absent and [dropped] as a multiset, and the same
   lint, report and pool plan. *)

module A = Workloads.Absheap
module R = Reference_absheap

let gen_heap_ops =
  let open QCheck.Gen in
  let open Workloads.Trace in
  let id = frequency [ (8, int_range 0 7); (1, int_range (-2) 12) ] in
  let word = frequency [ (6, int_range 0 8); (1, int_range (-10) 8200) ] in
  let loc =
    frequency
      [
        (3, map (fun w -> Root w) word);
        (1, map (fun w -> Global w) word);
        (5, map2 (fun id w -> Field (id, w)) id word);
      ]
  in
  let value =
    frequency
      [
        (3, map (fun id -> -id - 1) id);
        (1, oneofl [ 0; 7; Layout.heap_base; Layout.heap_base + 64 ]);
      ]
  in
  list_size (0 -- 150)
    (frequency
       [
         ( 4,
           map3
             (fun id size site -> Alloc { id; size; site })
             id
             (oneofl [ 0; 4; 8; 16; 24; 64 ])
             (int_range (-1) 3) );
         (3, map2 (fun id thread -> Free { id; thread }) id (int_range 0 2));
         (6, map2 (fun loc target -> Store_ptr { loc; target }) loc id);
         (2, map2 (fun loc target -> Clear_ptr { loc; target }) loc id);
         (2, map2 (fun loc value -> Store_data { loc; value }) loc value);
         ( 1,
           map3
             (fun loc target word -> Store_interior { loc; target; word })
             loc id word );
         (1, map (fun loc -> Zero loc) loc);
         (1, return (Work 5));
       ])

let heap_trace ops =
  { Workloads.Trace.name = "heap"; threads = 2; sites = 3;
    ops = Array.of_list ops }

(* A reference event in the flat heap's terms. *)
let of_reference =
  let slot = function
    | R.Heap.Root_slot w -> A.Root_slot w
    | R.Heap.Global_slot w -> A.Global_slot w
    | R.Heap.Field_slot (h, w) -> A.Field_slot (h, w)
  in
  let target = function
    | R.Heap.Ptr id -> A.Ptr id
    | R.Heap.Alias id -> A.Alias id
    | R.Heap.Wild -> A.Wild
  in
  let binding = Option.map (fun (t, op) -> (target t, op)) in
  let edge (s, t, op) = (slot s, target t, op) in
  let state = function
    | Some (R.Heap.Live { size; site; alloc_op }) ->
      Some (A.Live { size; site; alloc_op })
    | Some (R.Heap.Dead _) | None -> None
  in
  let place = function
    | R.Heap.Slot s -> A.Slot (slot s)
    | R.Heap.Wrapped { slot = s; index; words } ->
      A.Wrapped { slot = slot s; index; words }
    | R.Heap.Unallocated holder | R.Heap.Holder_dead { holder; _ } ->
      A.No_holder holder
    | R.Heap.No_words { holder; size } -> A.No_words { holder; size }
  in
  function
  | R.Heap.Alloc { id; size; site; before } ->
    A.Alloc { id; size; site; before = state before }
  | R.Heap.Free { id; thread; before; outside; dropped } ->
    A.Free
      {
        id;
        thread;
        before = state before;
        outside = List.map edge outside;
        dropped = List.sort compare (List.map edge dropped);
      }
  | R.Heap.Store { place = p; target; target_state; displaced } ->
    A.Store
      {
        place = place p;
        target;
        target_state = state target_state;
        displaced = binding displaced;
      }
  | R.Heap.Clear { place = p; cleared } ->
    A.Clear { place = place p; cleared = binding cleared }
  | R.Heap.Data { place = p; value; stored; displaced } ->
    A.Data
      {
        place = place p;
        value;
        stored = Option.map target stored;
        displaced = binding displaced;
      }
  | R.Heap.Work -> A.Work

let sort_dropped = function
  | A.Free f -> A.Free { f with dropped = List.sort compare f.dropped }
  | e -> e

let events_agree ~zeroing ops =
  let heap = A.create ~zeroing and reference = R.Heap.create ~zeroing in
  let ids = List.init 15 (fun k -> k - 2) in
  List.for_all Fun.id
    (List.mapi
       (fun i op ->
         sort_dropped (A.step heap i op)
         = of_reference (R.Heap.step reference i op)
         && A.wild_count heap = R.Heap.wild_count reference
         && List.for_all
              (fun id ->
                A.is_live heap id = R.Heap.is_live reference id
                && A.holder_count heap id = R.Heap.holder_count reference id)
              ids)
       ops)

let outputs_agree ops =
  let t = heap_trace ops in
  let stream () = Workloads.Trace.stream_of_trace t in
  let report policies =
    let flat = Flowcheck.Report.analyze_trace ~policies t
    and reference = R.analyze ~policies (stream ()) in
    Flowcheck.Report.to_json ~pools:(Flowcheck.Poolplan.of_trace t) flat
    = Flowcheck.Report.to_json
        ~pools:(Flowcheck.Poolplan.build (R.siteflow (stream ())))
        reference
    && Flowcheck.Report.render flat = Flowcheck.Report.render reference
  in
  Sanitizer.Trace_lint.lint t = R.lint t
  && report Flowcheck.Policy.default_policies
  && report [ Flowcheck.Policy.Minesweeper Minesweeper.Config.unoptimised ]

let prop_heap_matches_reference =
  QCheck.Test.make
    ~name:"flat heap gives the Hashtbl heap's events, lint, report and plan"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> Workloads.Trace.to_string (heap_trace ops))
       gen_heap_ops)
    (fun ops ->
      events_agree ~zeroing:true ops
      && events_agree ~zeroing:false ops
      && outputs_agree ops)

(* The heap holds live state: a freed id stays only while a slot binds
   it or, without zeroing, while it still binds a slot of its own. *)
let test_heap_forgets_freed_ids () =
  let open Workloads.Trace in
  let run ~zeroing ops =
    let heap = A.create ~zeroing in
    List.mapi
      (fun i op ->
        ignore (A.step heap i op);
        A.tracked heap)
      ops
  in
  let ops =
    [
      Alloc { id = 0; size = 64; site = 0 };
      Alloc { id = 1; size = 64; site = 0 };
      Store_ptr { loc = Field (0, 0); target = 1 };
      Store_ptr { loc = Root 3; target = 0 };
      Free { id = 0; thread = 0 };
      Store_data { loc = Root 3; value = 9 };
      Free { id = 1; thread = 0 };
    ]
  in
  Alcotest.(check (list int)) "zeroing: the root keeps 0 until overwritten"
    [ 1; 2; 2; 2; 2; 1; 0 ] (run ~zeroing:true ops);
  Alcotest.(check (list int))
    "no zeroing: 0 stays while it binds 1, 1 while 0 binds it"
    [ 1; 2; 2; 2; 2; 2; 2 ] (run ~zeroing:false ops)

let suite =
  ( "flowcheck",
    [
      Alcotest.test_case "dangling basic" `Quick test_dangling_basic;
      Alcotest.test_case "window closes on overwrite" `Quick
        test_window_closes_on_overwrite;
      Alcotest.test_case "clear semantics" `Quick test_clear_semantics;
      Alcotest.test_case "witness chain" `Quick test_witness_chain;
      Alcotest.test_case "alias retention" `Quick test_alias_retention;
      Alcotest.test_case "wild store" `Quick test_wild_store;
      Alcotest.test_case "sub-granule free" `Quick test_subgranule_free;
      Alcotest.test_case "bounds math" `Quick test_bounds_math;
      Alcotest.test_case "json deterministic, chunk-independent" `Quick
        test_json_deterministic_and_chunk_independent;
      Alcotest.test_case "certify static: zero false negatives" `Slow
        test_certify_static;
      Alcotest.test_case "bounds dominate a real replay" `Quick
        test_bounds_dominate_replay;
      Alcotest.test_case "lockset mutant self-test" `Quick
        test_lockset_self_test;
      Alcotest.test_case "lockset clean on recorded streams" `Quick
        test_lockset_clean_on_recorded_stream;
      Alcotest.test_case "corpus self-test" `Quick test_corpus_self_test;
      Alcotest.test_case "lint and analyzer agree on the corpus" `Quick
        test_lint_matches_corpus;
      QCheck_alcotest.to_alcotest prop_lint_matches_analyzer;
      Alcotest.test_case "diagnostic sort order" `Quick test_diagnostic_sort;
      QCheck_alcotest.to_alcotest prop_heap_matches_reference;
      Alcotest.test_case "heap forgets unbound freed ids" `Quick
        test_heap_forgets_freed_ids;
    ] )
