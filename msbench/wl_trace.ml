(* trace-tools: the trace layer's write side ([Trace.generate]) and its
   read side three times over ([of_string], [Trace_lint.lint],
   [Report.analyze] over a stream, [Poolplan.of_trace]). Nothing here
   touches Vmem, Alloc or Instance, so an allocator or sweep change must
   leave this workload unchanged. Serialising the trace is the read
   side's set-up: it builds the text the reads consume. *)

open Workloads

let reads = 3
let k_gen = Span.key "trace.generate"
let k_to_string = Span.key "trace.to_string"
let k_of_string = Span.key "trace.of_string"
let k_lint = Span.key "sanitizer.lint"
let k_analyze = Span.key "flowcheck.analyze"
let k_poolplan = Span.key "flowcheck.poolplan"
let k_checks = Span.key "checks"

let profiles () =
  [| Spec2006.find "perlbench"; Mimalloc_bench.find "larsonN"; Mimalloc_bench.find "espresso" |]

let make ~seed ~scale =
  let profiles =
    Array.mapi
      (fun i p ->
        let p = Profile.scale_ops scale p in
        if seed = 0 then p else { p with Profile.seed = Sim.Rng.split_seed ~seed ~index:i })
      (profiles ())
  in
  let first_ops = Array.make (Array.length profiles) 0 in
  let round_trips = ref true and chunk_invariant = ref true in
  (* Untimed, on each input's first visit: serialisation round-trips,
     and the analysis reads the same whether it sees the trace whole or
     streamed in small chunks. *)
  let check t text json =
    if Trace.of_string text <> t then round_trips := false;
    let whole =
      Flowcheck.Report.to_json ~pools:(Flowcheck.Poolplan.of_trace t)
        (Flowcheck.Report.analyze_trace t)
    in
    List.iter
      (fun chunk_ops ->
        let stream () = Trace.stream_of_string ~chunk_ops text in
        let streamed =
          Flowcheck.Report.to_json ~pools:(Flowcheck.Poolplan.of_stream (stream ()))
            (Flowcheck.Report.analyze (stream ()))
        in
        if whole <> json || streamed <> json then chunk_invariant := false)
      [ 4096; 257 ]
  in
  let run_unit ~key =
    let t, w_gen, c_gen =
      Runner.timed (fun () -> Span.with_ k_gen (fun () -> Trace.generate profiles.(key)))
    in
    let text, setup, _ =
      Runner.timed (fun () -> Span.with_ k_to_string (fun () -> Trace.to_string t))
    in
    let read () =
      let parsed = Span.with_ k_of_string (fun () -> Trace.of_string text) in
      let lint = Span.with_ k_lint (fun () -> Sanitizer.Trace_lint.lint parsed) in
      let report =
        Span.with_ k_analyze (fun () -> Flowcheck.Report.analyze (Trace.stream_of_string text))
      in
      let plan = Span.with_ k_poolplan (fun () -> Flowcheck.Poolplan.of_trace parsed) in
      (List.length lint, Flowcheck.Report.to_json ~pools:plan report)
    in
    let outcomes, w_read, c_read = Runner.timed (fun () -> List.init reads (fun _ -> read ())) in
    if first_ops.(key) = 0 then begin
      first_ops.(key) <- Trace.length t;
      Span.with_ k_checks (fun () -> check t text (snd (List.hd outcomes)))
    end;
    {
      Runner.key;
      ops = Trace.length t;
      failed = 0;
      setup;
      wall = w_gen +. w_read;
      cpu = c_gen +. c_read;
      digest =
        Runner.digest_of_strings
          (text :: List.map (fun (lints, json) -> string_of_int lints ^ " " ^ json) outcomes);
    }
  in
  let layers () =
    let ops = Array.fold_left ( + ) 0 first_ops in
    let read_s =
      k_of_string.Span.total +. k_lint.Span.total +. k_analyze.Span.total +. k_poolplan.Span.total
    in
    [
      ("trace.generate_s", k_gen.Span.total);
      ("trace.to_string_s", k_to_string.Span.total);
      ("trace.of_string_s", k_of_string.Span.total);
      ("trace_gen_ops_per_s", float_of_int ops /. k_gen.Span.total);
      ("analyze_ops_per_s", float_of_int (reads * ops) /. read_s);
      ("flowcheck.analyze_s", k_analyze.Span.total);
      ("flowcheck.poolplan_s", k_poolplan.Span.total);
      ("sanitizer.lint_s", k_lint.Span.total);
    ]
  in
  let checks () =
    [
      ("of_string (to_string t) = t", !round_trips);
      ("Report.to_json is identical whole and at chunk sizes 4096 and 257", !chunk_invariant);
    ]
  in
  { Runner.keys = Array.length profiles; run_unit; layers; checks }
