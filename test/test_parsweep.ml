(* Modeled parallel marking tests: sharding, the static marker
   assignment, and the headline equivalence property — for every
   workload preset and every modeled domain count, the mark produces
   exactly the one-domain shadow set, counters, release decisions and
   simulated timing. The only permitted difference is the [par.*]
   telemetry. *)

module I = Minesweeper.Instance
module C = Minesweeper.Config
module Shadow = Minesweeper.Shadow

(* --- Sharding and the chunk map --------------------------------------- *)

let mk_pages n =
  Array.init n (fun i ->
      { Parsweep.base = i * 4096; bytes = Bytes.create 4096; write_gen = 0 })

let test_shard_canonical () =
  let chunks = Parsweep.shard ~chunk_pages:8 (mk_pages 20) in
  Alcotest.(check int) "chunk count" 3 (Array.length chunks);
  Array.iteri
    (fun i c -> Alcotest.(check int) "dense ids" i c.Parsweep.cid)
    chunks;
  Alcotest.(check (list int)) "consecutive full then short slices"
    [ 8; 8; 4 ]
    (Array.to_list (Array.map (fun c -> Array.length c.Parsweep.pages) chunks));
  Alcotest.(check int) "last chunk bytes" (4 * 4096)
    chunks.(2).Parsweep.chunk_bytes;
  Alcotest.(check int) "address order preserved" (8 * 4096)
    chunks.(1).Parsweep.pages.(0).Parsweep.base

(* More than 256 chunks: [Array.init] would force a minor collection to
   promote its young first chunk; [shard] must not. *)
let test_shard_no_minor_gc () =
  let bytes = Bytes.create 4096 in
  let pages =
    Array.init 300 (fun i -> { Parsweep.base = i * 4096; bytes; write_gen = 0 })
  in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let chunks = Parsweep.shard ~chunk_pages:1 pages in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
  Alcotest.(check int) "300 chunks" 300 (Array.length chunks);
  Alcotest.(check int) "no minor collection" 0 collections

let test_map_chunks_results_and_stats () =
  let chunks = Parsweep.shard ~chunk_pages:4 (mk_pages 37) in
  let scan (c : Parsweep.chunk) = c.Parsweep.cid * 10 in
  let expect = Array.map scan chunks in
  List.iter
    (fun domains ->
      let per_chunk, stats = Parsweep.map_chunks ~domains ~scan chunks in
      Alcotest.(check (array int))
        (Printf.sprintf "results in chunk order at %d domains" domains)
        expect per_chunk;
      Alcotest.(check int) "all bytes seeded" (37 * 4096)
        (Array.fold_left ( + ) 0 stats.Parsweep.seeded_bytes);
      Alcotest.(check int) "chunks counted" (Array.length chunks)
        stats.Parsweep.chunks)
    [ 1; 2; 4; 8 ]

let test_map_chunks_runs_on_caller () =
  let chunks = Parsweep.shard ~chunk_pages:4 (mk_pages 37) in
  let caller = Domain.self () in
  let scan (c : Parsweep.chunk) = (c.Parsweep.cid, Domain.self ()) in
  let per_chunk, stats = Parsweep.map_chunks ~domains:4 ~scan chunks in
  Alcotest.(check int) "four modeled markers" 4 stats.Parsweep.domains;
  Array.iteri
    (fun i (cid, runner) ->
      Alcotest.(check int) "scans run in chunk order" i cid;
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d scanned on the calling domain" cid)
        true (runner = caller))
    per_chunk

let test_critical_path () =
  (* Perfectly balanced 4-way seeding of 4 MiB: a single marker at
     0.25 cyc/B costs 1Mi cycles per domain, but the DRAM floor over the
     whole 4 MiB (0.0625 cyc/B) costs 256Ki cycles more — the floor
     binds, i.e. scaling saturates. *)
  let mib = 1 lsl 20 in
  let stats =
    {
      Parsweep.domains = 4;
      chunks = 4;
      total_bytes = 4 * mib;
      seeded_bytes = [| mib; mib; mib; mib |];
    }
  in
  Alcotest.(check int) "DRAM floor binds at 4 domains"
    (Sim.Cost.bytes_cost 0.0625 (4 * mib))
    (Parsweep.critical_path_cycles ~single_per_byte:0.25
       ~bandwidth_per_byte:0.0625 stats);
  let solo = { stats with Parsweep.seeded_bytes = [| 4 * mib |] } in
  Alcotest.(check int) "single marker binds at 1 domain"
    (Sim.Cost.bytes_cost 0.25 (4 * mib))
    (Parsweep.critical_path_cycles ~single_per_byte:0.25
       ~bandwidth_per_byte:0.0625 solo)

(* --- Instance-level equivalence -------------------------------------- *)

let fresh ?(config = C.default) () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  (machine, I.create ~config machine)

let granule_set shadow =
  let acc = ref [] in
  Shadow.iter_marked shadow (fun a -> acc := a :: !acc);
  List.sort compare !acc

let root_slot = Layout.globals_base + 64

(* Scripted mixed workload (same shape as test_sweep_equiv): long-lived
   pointer-holding blocks, churn, stores the mark must observe. *)
let run_workload ?(ops = 6_000) machine ms seed =
  let rng = Sim.Rng.create seed in
  let mem = machine.Alloc.Machine.mem in
  let addresses = ref [] in
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
      addresses := p :: !addresses;
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
  I.drain ms;
  List.rev !addresses

type observation = {
  addresses : int list;
  marks : int list;
  counters : (string * int) list;
      (* the [ms.*] slice of the registry: counters, gauges and the
         histograms' observation counts *)
  wall : int;
}

let observe config seed =
  let machine, ms = fresh ~config () in
  let addresses = run_workload machine ms seed in
  {
    addresses;
    marks = granule_set (I.shadow ms);
    counters =
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"ms." name)
        (Obs.Registry.snapshot (I.registry ms));
    wall = Sim.Clock.wall machine.Alloc.Machine.clock;
  }

let check_equivalent name reference observed =
  Alcotest.(check (list int))
    (name ^ ": address stream") reference.addresses observed.addresses;
  Alcotest.(check (list int))
    (name ^ ": shadow mark set") reference.marks observed.marks;
  Alcotest.(check int)
    (name ^ ": simulated wall clock") reference.wall observed.wall;
  Alcotest.(check (list (pair string int)))
    (name ^ ": ms.* metrics") reference.counters observed.counters

(* The headline property: every preset, domains in {1, 2, 4, 8}, same
   everything. The modeled domain count may move only the [par.*]
   telemetry, never a simulated value. *)
let test_presets_equivalent () =
  List.iter
    (fun (preset, config) ->
      let reference = observe config 7 in
      Alcotest.(check bool)
        (preset ^ ": workload exercises the path") true
        (List.assoc "ms.sweeps" reference.counters > 0
        || not config.C.sweeping);
      List.iter
        (fun domains ->
          let observed = observe (C.with_domains domains config) 7 in
          check_equivalent
            (Printf.sprintf "%s @ %d domains" preset domains)
            reference observed)
        [ 2; 4; 8 ])
    C.presets

let prop_equivalent_random =
  QCheck.Test.make
    ~name:"parallel mark = sequential mark on random workloads (4 domains)"
    ~count:8 QCheck.small_int (fun seed ->
      let sequential = { C.default with C.concurrency = C.Sequential } in
      let reference = observe sequential seed in
      let par = observe (C.with_domains 4 sequential) seed in
      reference.addresses = par.addresses
      && reference.marks = par.marks
      && reference.counters = par.counters
      && reference.wall = par.wall)

let prop_incremental_equivalent_random =
  QCheck.Test.make
    ~name:"parallel incremental mark = sequential (4 domains)" ~count:8
    QCheck.small_int (fun seed ->
      let config = { C.incremental with C.concurrency = C.Sequential } in
      let reference = observe config seed in
      let par = observe (C.with_domains 4 config) seed in
      reference.marks = par.marks
      && reference.counters = par.counters
      && reference.wall = par.wall
      && List.assoc "ms.sweep_pages_skipped" reference.counters > 0)

let test_par_metrics_presence () =
  let machine, ms = fresh ~config:(C.with_domains 4 C.default) () in
  ignore (run_workload machine ms 17);
  let reg = I.registry ms in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Obs.Registry.mem reg name))
    [
      "par.domains"; "par.chunks"; "par.imbalance"; "par.mark_cycles_est";
      "par.mark_cycles_seq_est";
    ];
  Alcotest.(check (option int)) "domain count exported" (Some 4)
    (Obs.Registry.read reg "par.domains");
  let read name = Option.value ~default:0 (Obs.Registry.read reg name) in
  Alcotest.(check bool) "chunks were marked" true (read "par.chunks" > 0);
  let est = read "par.mark_cycles_est" in
  let seq = read "par.mark_cycles_seq_est" in
  Alcotest.(check bool)
    (Printf.sprintf "modeled critical path shortened (%d < %d)" est seq)
    true
    (est > 0 && est < seq);
  (* ...and none of it leaks into a sequential instance. *)
  let _, ms1 = fresh () in
  Alcotest.(check bool) "domains=1 exports no par.* metrics" false
    (Obs.Registry.mem (I.registry ms1) "par.domains")

let test_reference_marks_agree_parallel () =
  let machine, ms = fresh ~config:(C.with_domains 4 C.incremental) () in
  ignore (run_workload machine ms 23);
  Alcotest.(check (list int))
    "parallel incremental rebuild equals from-scratch full mark"
    (granule_set (I.reference_full_mark ms))
    (granule_set (I.reference_incremental_mark ms));
  Alcotest.(check (list string)) "invariant audit clean under 4 domains" []
    (List.map Sanitizer.Diagnostic.to_string (Sanitizer.Invariants.audit ms))

(* --- Oracle and race-checker certification --------------------------- *)

let perlbench_trace () =
  let profile =
    List.find
      (fun p -> p.Workloads.Profile.name = "perlbench")
      Workloads.Spec2006.all
  in
  Workloads.Trace.generate (Workloads.Profile.scale_ops 0.05 profile)

let test_oracle_certifies_parallel () =
  let trace = perlbench_trace () in
  List.iter
    (fun config ->
      let r =
        Sanitizer.Sweep_oracle.run ~config:(C.with_domains 4 config) trace
      in
      Alcotest.(check bool) "sweeps completed" true
        (r.Sanitizer.Sweep_oracle.sweeps > 0);
      Alcotest.(check (list string)) "no unsound recycles at 4 domains" []
        (List.map Sanitizer.Diagnostic.to_string
           r.Sanitizer.Sweep_oracle.soundness);
      Alcotest.(check (list string)) "invariants hold at 4 domains" []
        (List.map Sanitizer.Diagnostic.to_string
           r.Sanitizer.Sweep_oracle.audit))
    [ C.default; C.incremental ]

let test_races_clean_parallel () =
  let trace = perlbench_trace () in
  List.iter
    (fun (config_name, config) ->
      let r =
        Racecheck.Recorder.run
          ~config:(C.with_domains 4 config)
          ~config_name trace
      in
      Alcotest.(check bool) "events recorded" true
        (r.Racecheck.Recorder.events > 0);
      Alcotest.(check (list string))
        (config_name ^ ": no races under parallel marking") []
        (List.map Sanitizer.Diagnostic.to_string r.Racecheck.Recorder.diags))
    [ ("default", C.default); ("mostly", C.mostly_concurrent) ]

let suite =
  ( "minesweeper.parsweep",
    [
      Alcotest.test_case "canonical sharding" `Quick test_shard_canonical;
      Alcotest.test_case "shard runs no minor collection" `Quick
        test_shard_no_minor_gc;
      Alcotest.test_case "map_chunks results + stats" `Quick
        test_map_chunks_results_and_stats;
      Alcotest.test_case "map_chunks scans on the caller" `Quick
        test_map_chunks_runs_on_caller;
      Alcotest.test_case "critical-path projection" `Quick test_critical_path;
      Alcotest.test_case "all presets equivalent at 1/2/4/8 domains" `Slow
        test_presets_equivalent;
      QCheck_alcotest.to_alcotest prop_equivalent_random;
      QCheck_alcotest.to_alcotest prop_incremental_equivalent_random;
      Alcotest.test_case "par.* telemetry presence" `Quick
        test_par_metrics_presence;
      Alcotest.test_case "reference marks agree (parallel)" `Quick
        test_reference_marks_agree_parallel;
      Alcotest.test_case "oracle certifies 4-domain marking" `Slow
        test_oracle_certifies_parallel;
      Alcotest.test_case "race checker clean at 4 domains" `Slow
        test_races_clean_parallel;
    ] )
