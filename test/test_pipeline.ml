(* Sweep-pipeline tests: the typed stage API (Sweep.plan / Sweep.run /
   Sweep.last), the batched-overlap cycle projection, the batched
   quarantine flush, preset → sweep-knob routing, and the pipeline-wide
   determinism discipline — every preset × marking mode × domain count
   must export byte-identical metrics and spans once the [par.*] /
   [sweep.stage.*] telemetry and the per-domain mark spans are
   stripped. *)

module I = Minesweeper.Instance
module C = Minesweeper.Config
module P = Minesweeper.Pipeline
module Q = Minesweeper.Quarantine
module Shadow = Minesweeper.Shadow

(* --- The overlap projection ------------------------------------------ *)

let test_pipeline_cycles () =
  let pc ~domains ~batches stages =
    Parsweep.pipeline_cycles ~domains ~batches (Array.of_list stages)
  in
  Alcotest.(check int) "no stages, no cycles" 0 (pc ~domains:4 ~batches:4 []);
  Alcotest.(check int) "one domain runs sequentially" 600
    (pc ~domains:1 ~batches:8 [ 100; 200; 300 ]);
  Alcotest.(check int) "one batch has nothing to overlap with" 600
    (pc ~domains:4 ~batches:1 [ 100; 200; 300 ]);
  let sum = 4 * 1000 in
  let overlapped = pc ~domains:4 ~batches:8 [ 1000; 1000; 1000; 1000 ] in
  Alcotest.(check bool)
    (Printf.sprintf "balanced stages overlap (%d < %d)" overlapped sum)
    true
    (overlapped < sum);
  Alcotest.(check bool) "bounded below by the slowest stage" true
    (overlapped >= 1000);
  Alcotest.(check bool) "skewed stages never exceed the sequential sum" true
    (pc ~domains:8 ~batches:16 [ 1; 1000; 3 ] <= 1004)

(* --- Preset routing --------------------------------------------------- *)

let test_sweep_of_preset () =
  List.iter
    (fun (name, config) ->
      match C.Sweep.of_preset name with
      | Ok knobs ->
        Alcotest.(check bool)
          (name ^ ": of_preset returns the preset's sweep record")
          true
          (knobs = config.C.sweep)
      | Error e -> Alcotest.fail e)
    C.presets;
  (match C.Sweep.of_preset "ms-inc" with
  | Ok knobs ->
    Alcotest.(check bool) "alias ms-inc routes to incremental marking" true
      (knobs.C.Sweep.mode = C.Incremental)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown names are rejected" true
    (match C.Sweep.of_preset "no-such-preset" with
    | Error _ -> true
    | Ok _ -> false)

(* --- Batched quarantine flush ----------------------------------------- *)

let entry addr usable = { Q.addr; usable; unmapped_len = 0; failures = 0 }

let seeded_quarantine n =
  let machine = Alloc.Machine.create () in
  let q = Q.create machine ~threads:4 in
  for i = 0 to n - 1 do
    Q.push q ~thread:(i mod 4) (entry (0x100000 + (i * 64)) 48)
  done;
  (machine, q)

let lockin_pairs q = List.map (fun e -> (e.Q.addr, e.Q.usable)) (Q.lock_in q)

let test_flush_batch_matches_flush_all () =
  let n = 100 in
  let m_single, q_single = seeded_quarantine n in
  let m_batch, q_batch = seeded_quarantine n in
  let ev_single = ref [] and ev_batch = ref [] in
  Q.set_observer q_single (fun e -> ev_single := e :: !ev_single);
  Q.set_observer q_batch (fun e -> ev_batch := e :: !ev_batch);
  let wall m = Sim.Clock.wall m.Alloc.Machine.clock in
  let before_single = wall m_single in
  Q.flush_all q_single;
  let cost_single = wall m_single - before_single in
  let before_batch = wall m_batch in
  let batches = Q.flush_batch q_batch ~batch:16 in
  let cost_batch = wall m_batch - before_batch in
  Alcotest.(check int) "lock taken once per 16 entries" 7 batches;
  Alcotest.(check bool) "identical Flushed events in identical order" true
    (!ev_single = !ev_batch);
  Alcotest.(check bool)
    (Printf.sprintf "batched flush charges less (%d < %d)" cost_batch
       cost_single)
    true
    (cost_batch < cost_single);
  Alcotest.(check int) "identical byte accounting"
    (Q.fresh_mapped_bytes q_single)
    (Q.fresh_mapped_bytes q_batch);
  Alcotest.(check (list (pair int int)))
    "identical lock-in set in identical order" (lockin_pairs q_single)
    (lockin_pairs q_batch)

let test_flush_batch_empty () =
  let _, q = seeded_quarantine 0 in
  Alcotest.(check int) "empty buffers flush in zero batches" 0
    (Q.flush_batch q ~batch:8);
  let _, q = seeded_quarantine 5 in
  Alcotest.(check int) "batch size is clamped to at least 1" 5
    (Q.flush_batch q ~batch:0)

(* --- Workload scaffolding (same shape as test_parsweep) ---------------- *)

let fresh ?(config = C.default) () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  (machine, I.create ~config machine)

let granule_set shadow =
  let acc = ref [] in
  Shadow.iter_marked shadow (fun a -> acc := a :: !acc);
  List.sort compare !acc

let root_slot = Layout.globals_base + 64

let run_workload ?(ops = 5_000) machine ms seed =
  let rng = Sim.Rng.create seed in
  let mem = machine.Alloc.Machine.mem in
  let live = ref [] in
  let stable = ref [] in
  for _ = 1 to 64 do
    let p = I.malloc ms 1024 in
    Vmem.store mem p p;
    stable := p :: !stable
  done;
  for i = 1 to ops do
    if Sim.Rng.bool rng 0.55 then begin
      let size = 16 + Sim.Rng.int rng 1024 in
      let p = I.malloc ms size in
      if Sim.Rng.bool rng 0.3 then
        Vmem.store mem p (List.nth !stable (Sim.Rng.int rng 64));
      if i mod 97 = 0 then Vmem.store mem root_slot p;
      live := p :: !live
    end
    else
      match !live with
      | p :: rest ->
        I.free ms p;
        live := rest
      | [] -> ()
  done;
  I.drain ms

(* --- The Sweep API ----------------------------------------------------- *)

let test_sweep_run_api () =
  let machine, ms = fresh ~config:(C.with_domains 4 C.default) () in
  run_workload ~ops:2_000 machine ms 5;
  let plan = I.Sweep.plan ms in
  Alcotest.(check bool) "plan derives from the instance config" true
    (plan = P.plan_of_config (I.config ms));
  Alcotest.(check bool) "default plan runs every stage" true
    (plan.P.stages = [ P.Mark; P.Merge; P.Release; P.Purge ]);
  let before = (I.stats ms).Minesweeper.Stats.sweeps in
  let o = I.Sweep.run ms plan in
  Alcotest.(check int) "the run is counted as a sweep" (before + 1)
    (I.stats ms).Minesweeper.Stats.sweeps;
  Alcotest.(check bool) "Sweep.last returns the same outcome" true
    (I.Sweep.last ms = Some o);
  Alcotest.(check bool) "one report per executed stage, in order" true
    (List.map (fun r -> r.P.stage) o.P.reports = plan.P.stages);
  Alcotest.(check bool) "mark scanned something" true (o.P.scanned_bytes > 0);
  Alcotest.(check bool) "pipelined projection never exceeds sequential" true
    (o.P.pipelined_cycles <= o.P.sequential_cycles);
  Alcotest.(check bool) "speedup is at least 1" true (P.speedup o >= 1.0);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (P.stage_name r.P.stage ^ " report is non-negative")
        true
        (r.P.cycles >= 0 && r.P.items >= 0 && r.P.bytes >= 0))
    o.P.reports

let test_mark_only_plans () =
  List.iter
    (fun (name, config, mode) ->
      let machine, ms = fresh ~config () in
      run_workload ~ops:2_000 machine ms 3;
      let plan = P.mark_only (I.Sweep.plan ms) in
      let sweeps = (I.stats ms).Minesweeper.Stats.sweeps in
      let o = I.Sweep.run ms plan in
      Alcotest.(check bool) (name ^ ": Sweep.last returns the outcome") true
        (I.Sweep.last ms = Some o);
      Alcotest.(check bool) (name ^ ": only Mark and Merge report") true
        (List.map (fun r -> r.P.stage) o.P.reports = [ P.Mark; P.Merge ]);
      Alcotest.(check int) (name ^ ": no quarantine entries locked in") 0
        o.P.entries;
      Alcotest.(check int) (name ^ ": no sweep counted") sweeps
        (I.stats ms).Minesweeper.Stats.sweeps;
      Alcotest.(check bool) (name ^ ": the plan's marking mode") true
        (o.P.plan.P.mode = mode);
      let merged =
        List.fold_left
          (fun acc r -> if r.P.stage = P.Merge then r.P.bytes else acc)
          0 o.P.reports
      in
      Alcotest.(check int)
        (name ^ ": scanned = merged rescans + replayed words")
        o.P.scanned_bytes
        (merged + (o.P.replayed_words * 8));
      Alcotest.(check bool)
        (name ^ ": replayed words surface in the outcome")
        (mode = C.Incremental)
        (o.P.replayed_words > 0))
    [ ("full", C.default, C.Full_scan);
      ("incremental", C.incremental, C.Incremental) ]

(* --- Export determinism across the whole pipeline ---------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The per-domain mark spans shift the emission ordinal of every later
   span; the ordinal is presentation only, so drop the leading
   ["span":N] field before comparing. *)
let drop_span_seq line =
  if String.length line >= 8 && String.sub line 0 8 = "{\"span\":" then
    match String.index_opt line ',' with
    | Some i -> "{" ^ String.sub line (i + 1) (String.length line - i - 1)
    | None -> line
  else line

(* Everything the domain count is allowed to change: the [par.*] and
   [sweep.stage.*] telemetry, the per-domain mark spans, and the header
   lines whose line counts include them. *)
let strip text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not
           (contains l "\"schema\""
           || contains l "\"metric\":\"par."
           || contains l "\"metric\":\"sweep.stage."
           || contains l "mark-domain"))
  |> List.map drop_span_seq
  |> String.concat "\n"

type observation = {
  metrics : string;
  spans : string;
  marks : int list;
  stats : Minesweeper.Stats.t;
  wall : int;
}

let observe config seed =
  let machine, ms = fresh ~config () in
  run_workload machine ms seed;
  Alcotest.(check bool) "trace ring did not wrap" false
    (Obs.Trace_ring.wrapped (I.trace_ring ms));
  {
    metrics = strip (Obs.Export.metrics_to_string (I.registry ms));
    spans = strip (Obs.Export.spans_to_string (I.trace_ring ms));
    marks = granule_set (I.shadow ms);
    stats = I.stats ms;
    wall = Sim.Clock.wall machine.Alloc.Machine.clock;
  }

(* The tentpole property, extended from the mark phase to the whole
   pipeline: every preset × marking mode × domain count produces
   byte-identical metrics and spans exports modulo the stripped
   telemetry, the same shadow set, the same stats snapshot and the same
   simulated wall clock. *)
let test_exports_equivalent_across_domains () =
  List.iter
    (fun (preset, base) ->
      List.iter
        (fun (mode_name, mode) ->
          let config = C.with_sweep_mode mode base in
          let reference = observe config 7 in
          List.iter
            (fun domains ->
              let observed = observe (C.with_domains domains config) 7 in
              let name =
                Printf.sprintf "%s/%s @ %d domains" preset mode_name domains
              in
              Alcotest.(check string)
                (name ^ ": metrics export") reference.metrics observed.metrics;
              Alcotest.(check string)
                (name ^ ": spans export") reference.spans observed.spans;
              Alcotest.(check (list int))
                (name ^ ": shadow mark set") reference.marks observed.marks;
              Alcotest.(check int)
                (name ^ ": simulated wall clock") reference.wall observed.wall;
              Alcotest.(check bool)
                (name ^ ": full stats snapshot") true
                (reference.stats = observed.stats))
            [ 2; 4; 8 ])
        [ ("full", C.Full_scan); ("incremental", C.Incremental) ])
    C.presets

let test_stage_telemetry_present () =
  let machine, ms = fresh ~config:(C.with_domains 4 C.default) () in
  run_workload machine ms 17;
  let reg = I.registry ms in
  let read name = Option.value ~default:0 (Obs.Registry.read reg name) in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        ("sweep.stage." ^ name ^ " registered")
        true
        (Obs.Registry.mem reg ("sweep.stage." ^ name)))
    [
      "mark_cycles_est"; "merge_cycles_est"; "release_cycles_est";
      "purge_cycles_est"; "seq_cycles_est"; "pipeline_cycles_est"; "batches";
      "flush_batches";
    ];
  let seq = read "sweep.stage.seq_cycles_est" in
  let pipe = read "sweep.stage.pipeline_cycles_est" in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined projection shortened (%d < %d)" pipe seq)
    true
    (pipe > 0 && pipe < seq);
  Alcotest.(check bool) "flush batches counted" true
    (read "sweep.stage.flush_batches" > 0);
  (* The counters exist at one domain too (values differ, names do not:
     the equivalence test strips them by prefix either way). *)
  let _, ms1 = fresh () in
  Alcotest.(check bool) "stage telemetry registered at 1 domain" true
    (Obs.Registry.mem (I.registry ms1) "sweep.stage.seq_cycles_est")

(* --- Ptrtrack-oracle property ------------------------------------------ *)

(* Interleaved stage completion must never release an entry the exact
   pointer registry still holds: replay random traces through the
   4-domain pipeline under the Sweep_oracle, which mirrors every pointer
   store into a {!Ptrtrack.Registry} and reports [oracle-unsound] if a
   release beats a live pointer. *)
let prop_pipeline_never_releases_held =
  QCheck.Test.make
    ~name:"pipelined sweep never releases an entry the ptrtrack oracle holds"
    ~count:6 QCheck.small_int (fun seed ->
      let trace =
        Workloads.Trace.generate ~seed
          (Workloads.Profile.scale_ops 0.02
             (List.hd Workloads.Mimalloc_bench.all))
      in
      List.for_all
        (fun config ->
          let r =
            Sanitizer.Sweep_oracle.run ~config:(C.with_domains 4 config) trace
          in
          r.Sanitizer.Sweep_oracle.sweeps > 0
          && r.Sanitizer.Sweep_oracle.soundness = [])
        [ C.default; C.incremental ])

let suite =
  ( "minesweeper.pipeline",
    [
      Alcotest.test_case "overlap projection" `Quick test_pipeline_cycles;
      Alcotest.test_case "Sweep.of_preset routing" `Quick test_sweep_of_preset;
      Alcotest.test_case "flush_batch = flush_all" `Quick
        test_flush_batch_matches_flush_all;
      Alcotest.test_case "flush_batch edge cases" `Quick test_flush_batch_empty;
      Alcotest.test_case "Sweep.run outcome" `Quick test_sweep_run_api;
      Alcotest.test_case "mark-only plans in both modes" `Quick
        test_mark_only_plans;
      Alcotest.test_case "exports equivalent at 1/2/4/8 domains" `Slow
        test_exports_equivalent_across_domains;
      Alcotest.test_case "sweep.stage.* telemetry" `Quick
        test_stage_telemetry_present;
      QCheck_alcotest.to_alcotest prop_pipeline_never_releases_held;
    ] )
