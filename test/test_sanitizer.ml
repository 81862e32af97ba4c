(* Sanitizer tests: trace lint vs the seeded corpus, the cross-layer
   invariant audit, and the differential sweep oracle. *)

module Trace = Workloads.Trace
module Lint = Sanitizer.Trace_lint
module Diagnostic = Sanitizer.Diagnostic

let rules_of diags =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.rule) diags)

let fresh_machine () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  machine

(* Perlbench (spec2006) has a nonzero dangling rate: frees with live
   pointers still outstanding — exactly what the oracle must referee. *)
let dangling_trace () =
  let profile =
    List.find
      (fun p -> p.Workloads.Profile.name = "perlbench")
      Workloads.Spec2006.all
  in
  Trace.generate (Workloads.Profile.scale_ops 0.05 profile)

(* --- Trace_lint ---------------------------------------------------- *)

let test_corpus_rules () =
  List.iter
    (fun (c : Sanitizer.Corpus.case) ->
      Alcotest.(check (list string))
        (c.name ^ " raises exactly its expected rules")
        c.expected_rules
        (rules_of (Lint.lint c.trace)))
    Sanitizer.Corpus.cases

let test_corpus_covers_rules () =
  (* Every documented rule is the expectation of at least one case. *)
  let expected =
    List.concat_map
      (fun (c : Sanitizer.Corpus.case) -> c.expected_rules)
      Sanitizer.Corpus.cases
  in
  List.iter
    (fun (rule, _) ->
      Alcotest.(check bool)
        (rule ^ " exercised by the corpus")
        true (List.mem rule expected))
    Lint.rules;
  (* ...and no case expects a rule the lint does not document. *)
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " documented in Trace_lint.rules")
        true
        (List.mem_assoc rule Lint.rules))
    expected

let test_clean_on_stock_traces () =
  List.iter
    (fun trace ->
      Alcotest.(check (list string))
        (trace.Trace.name ^ " is lint-clean")
        []
        (rules_of (Lint.lint trace)))
    (Sanitizer.Corpus.well_behaved ~seeds:[ 1; 2 ] ~scale:0.03 ())

let test_lint_flags_dangling_workload () =
  (* A nonzero dangling rate must surface as unclear-before-free. *)
  let diags = Lint.lint (dangling_trace ()) in
  Alcotest.(check (list string))
    "only the dangling-pointer precondition fires"
    [ "unclear-before-free" ] (rules_of diags);
  Alcotest.(check bool) "warnings, not errors" true (Diagnostic.errors diags = [])

let test_lint_follows_replay () =
  let unclear text =
    Lint.lint (Trace.of_string text)
    |> List.filter (fun d -> d.Diagnostic.rule = "unclear-before-free")
    |> List.map (fun d -> d.Diagnostic.op_index)
  in
  (* A clear writes 0 only over its own target: root[5] was overwritten
     with a pointer to id 1, so the clear naming id 0 leaves it, and id
     1's free leaves that pointer behind. *)
  Alcotest.(check (list int)) "a clear of another target keeps the slot" [ 5 ]
    (unclear "a 0 64\na 1 64\np r 5 0\np r 5 1\nc r 5 0\nx 1\n");
  (* A free zeroes the object: the pointer stored inside id 0 dies with
     it, so freeing its target afterwards leaves nothing behind. *)
  Alcotest.(check (list int)) "a freed holder's fields die with it" []
    (unclear "a 0 64\na 1 64\np f 0 0 1\nx 0\nx 1\n")

let test_diagnostics_ordered () =
  let diags =
    Lint.lint (Trace.of_string "# msweep-trace v1 o\nx 5\na 0 64\nx 0\nx 0\n")
  in
  let indices = List.map (fun d -> d.Diagnostic.op_index) diags in
  Alcotest.(check (list int)) "op order" [ 0; 3 ] indices

(* --- Invariants ---------------------------------------------------- *)

let churn ms n =
  let live = Queue.create () in
  for i = 1 to n do
    let addr = Minesweeper.Instance.malloc ms (16 + (i * 7 mod 2048)) in
    Queue.add addr live;
    if i mod 3 = 0 && Queue.length live > 8 then
      Minesweeper.Instance.free ms (Queue.take live);
    Minesweeper.Instance.tick ms
  done;
  Queue.iter (fun addr -> Minesweeper.Instance.free ms addr) live

let test_invariants_hold_on_live_stack () =
  let ms = Minesweeper.Instance.create (fresh_machine ()) in
  churn ms 4000;
  Alcotest.(check (list string)) "mid-run audit clean" []
    (List.map Diagnostic.to_string (Sanitizer.Invariants.audit ms));
  Minesweeper.Instance.drain ms;
  Alcotest.(check (list string)) "post-drain audit clean" []
    (List.map Diagnostic.to_string (Sanitizer.Invariants.audit ms))

let test_post_sweep_hook_fires () =
  let ms = Minesweeper.Instance.create (fresh_machine ()) in
  let fired = ref 0 in
  Minesweeper.Instance.set_post_sweep_hook ms (fun () -> incr fired);
  churn ms 4000;
  Minesweeper.Instance.drain ms;
  let sweeps = Metric.read (Minesweeper.Instance.registry ms) "ms.sweeps" in
  Alcotest.(check bool) "workload swept" true (sweeps > 0);
  Alcotest.(check int) "hook ran once per completed sweep" sweeps !fired

let test_invariants_detect_corruption () =
  (* Negative control: cook the shadow map behind the instance's back.
     A mark beyond the wilderness can never arise from a real sweep, so
     the audit must flag it. *)
  let ms = Minesweeper.Instance.create (fresh_machine ()) in
  churn ms 500;
  let shadow = Minesweeper.Instance.shadow ms in
  let wilderness = Alloc.Jemalloc.wilderness (Minesweeper.Instance.jemalloc ms) in
  Minesweeper.Shadow.mark shadow wilderness;
  let diags = Sanitizer.Invariants.audit ms in
  Alcotest.(check bool) "shadow corruption detected" true
    (Diagnostic.has_rule "inv-shadow" diags)

(* --- Sweep_oracle -------------------------------------------------- *)

let test_oracle_sound_on_default () =
  let r = Sanitizer.Sweep_oracle.run (dangling_trace ()) in
  Alcotest.(check int) "allocations replayed" 13_000
    r.Sanitizer.Sweep_oracle.allocs;
  Alcotest.(check bool) "sweeps completed" true
    (r.Sanitizer.Sweep_oracle.sweeps > 0);
  Alcotest.(check bool) "quarantine recycled memory" true
    (r.Sanitizer.Sweep_oracle.releases > 0);
  Alcotest.(check (list string)) "no soundness violations" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.soundness);
  Alcotest.(check (list string)) "no invariant findings" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.audit)

let test_oracle_flags_unsound_config () =
  (* Quarantine without sweeping recycles entries on a timer, dangling
     pointers or not — the oracle must catch it red-handed. *)
  let r =
    Sanitizer.Sweep_oracle.run
      ~config:Minesweeper.Config.partial_quarantine (dangling_trace ())
  in
  Alcotest.(check bool) "unsound releases detected" true
    (Diagnostic.has_rule "oracle-unsound" r.Sanitizer.Sweep_oracle.soundness)

let test_oracle_sound_on_clean_trace () =
  let trace =
    match Sanitizer.Corpus.well_behaved ~seeds:[ 3 ] ~scale:0.05 () with
    | t :: _ -> t
    | [] -> Alcotest.fail "no control traces"
  in
  let r = Sanitizer.Sweep_oracle.run trace in
  Alcotest.(check (list string)) "sound" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.soundness);
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.audit)

(* The lint allocates only the events its heap hands back: at most 16.2
   minor words an op on perlbench at scale 0.05 (13.5 with the flat
   heap; the Hashtbl heap, which kept a boxed record per id and slot,
   took 25.7). *)
let test_lint_minor_words () =
  let trace =
    Workloads.Trace.generate
      (Workloads.Profile.scale_ops 0.05 (Workloads.Spec2006.find "perlbench"))
  in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Sanitizer.Trace_lint.lint trace));
  let per_op =
    (Gc.minor_words () -. before)
    /. float_of_int (Workloads.Trace.length trace)
  in
  if per_op > 16.2 then
    Alcotest.failf "lint allocates %.2f minor words/op, above 16.2" per_op

let suite =
  ( "sanitizer",
    [
      Alcotest.test_case "corpus rules exact" `Quick test_corpus_rules;
      Alcotest.test_case "corpus covers every rule" `Quick
        test_corpus_covers_rules;
      Alcotest.test_case "stock traces lint clean" `Quick
        test_clean_on_stock_traces;
      Alcotest.test_case "dangling workload flagged" `Quick
        test_lint_flags_dangling_workload;
      Alcotest.test_case "lint follows the replay's clears and zeroing"
        `Quick test_lint_follows_replay;
      Alcotest.test_case "diagnostics in op order" `Quick
        test_diagnostics_ordered;
      Alcotest.test_case "invariants hold on live stack" `Quick
        test_invariants_hold_on_live_stack;
      Alcotest.test_case "post-sweep hook fires" `Quick
        test_post_sweep_hook_fires;
      Alcotest.test_case "invariants detect corruption" `Quick
        test_invariants_detect_corruption;
      Alcotest.test_case "oracle: default config sound" `Quick
        test_oracle_sound_on_default;
      Alcotest.test_case "oracle: unsound config flagged" `Quick
        test_oracle_flags_unsound_config;
      Alcotest.test_case "oracle: clean trace sound" `Quick
        test_oracle_sound_on_clean_trace;
      Alcotest.test_case "lint minor words per op" `Quick
        test_lint_minor_words;
    ] )
