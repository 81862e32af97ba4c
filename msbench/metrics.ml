(* Every metric the benchmark reports, with its unit and direction.
   [msbench manifest] renders this table as BENCHMARK.json, so the two
   cannot drift apart. *)

type better = Lower | Higher

type def = {
  name : string;
  unit_ : string;
  better : better;
  bounds : (string * float) list;
      (** end-to-end only: per workload, the share of the parent's median
          by which a change may worsen the metric *)
  exact : bool;
      (** per-layer only: a count or simulated-clock value that repeats
          exactly for a seed, so a host-only change must leave it
          unchanged *)
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let bound_for d workload = Option.value ~default:0. (List.assoc_opt workload d.bounds)

(* BENCHMARK.json has room for one bound per metric: the loosest
   workload's. [msbench compare] applies each workload's own. *)
let bound d = List.fold_left (fun a (_, b) -> Float.max a b) 0. d.bounds

(* [setup_s] must also worsen by this many seconds to count as a
   regression: one workload's set-up lasts about 100 us, where a share
   alone would flag scheduler noise. *)
let setup_floor_s = 0.05

let e name unit_ better bounds = { name; unit_; better; bounds; exact = false }
let l name unit_ better = { name; unit_; better; bounds = []; exact = false }
let x name unit_ better = { name; unit_; better; bounds = []; exact = true }

let per_workload ~spec2006 ~serve ~fleet ~trace_tools =
  [ ("spec2006", spec2006); ("serve", serve); ("fleet", fleet); ("trace-tools", trace_tools) ]

(* The work unit behind [ops_per_s] is the workload's own: simulated
   malloc+free calls (spec2006), served requests (serve), tenant steps
   (fleet), trace ops through the tool chain (trace-tools). Each bound
   is at least twice the largest quartile spread measured over ten
   seeds, in four sets of ten on a 2-core shared host (README.md). *)
let end_to_end =
  [
    e "ops_per_s" "1/s" Higher
      (per_workload ~spec2006:0.20 ~serve:0.14 ~fleet:0.12 ~trace_tools:0.10);
    e "host_cpu_us_per_op" "us" Lower
      (per_workload ~spec2006:0.20 ~serve:0.14 ~fleet:0.12 ~trace_tools:0.10);
    e "host_peak_rss_mb" "MiB" Lower
      (per_workload ~spec2006:0.15 ~serve:0.22 ~fleet:0.14 ~trace_tools:0.16);
    e "setup_s" "s" Lower
      (per_workload ~spec2006:0.20 ~serve:0.25 ~fleet:0.15 ~trace_tools:0.25);
  ]

(* Per-layer metrics come from traced runs. A layer a workload does not
   run reports 0 there. Host times and counts cover the first visit of
   every input (one cycle). [x] marks the values that repeat exactly for
   a seed: counts of calls and events, and the simulated clock. *)
let per_layer =
  [
    (* workload level *)
    l "spec2006.baseline_host_s" "s" Lower;
    l "spec2006.protection_host_s" "s" Lower;
    l "spec2006.protection_ns_per_swept_kib" "ns/KiB" Lower;
    x "serve.step.calls" "count" Lower;
    l "serve.step.self_s" "s" Lower;
    l "serve.step.p50_us" "us" Lower;
    l "serve.step.p99_us" "us" Lower;
    l "trace.generate_s" "s" Lower;
    l "trace.to_string_s" "s" Lower;
    l "trace.of_string_s" "s" Lower;
    l "trace_gen_ops_per_s" "1/s" Higher;
    l "analyze_ops_per_s" "1/s" Higher;
    l "host_wall_s" "s" Lower;
    l "host_cpu_s" "s" Lower;
    l "host.speed_factor" "ratio" Lower;
    (* alloc *)
    x "alloc.malloc.calls" "count" Lower;
    l "alloc.malloc.self_s" "s" Lower;
    l "alloc.malloc.p99_ns" "ns" Lower;
    l "micro.alloc.malloc_free_ns" "ns" Lower;
    (* core *)
    x "core.free.calls" "count" Lower;
    l "core.free.self_s" "s" Lower;
    l "core.free.p99_ns" "ns" Lower;
    x "core.tick.calls" "count" Lower;
    l "core.tick.self_s" "s" Lower;
    l "core.tick.p99_ns" "ns" Lower;
    x "core.sweep.calls" "count" Lower;
    l "core.sweep.self_s" "s" Lower;
    l "core.sweep.p50_ms" "ms" Lower;
    l "core.sweep.max_ms" "ms" Lower;
    l "micro.core.ms_malloc_free_ns" "ns" Lower;
    l "micro.core.quarantine_push_flush_ns" "ns" Lower;
    l "micro.core.mark_ns_per_page" "ns" Lower;
    l "micro.core.shadow_mark_test_ns" "ns" Lower;
    x "core.sweeps" "count" Lower;
    x "core.swept_mib" "MiB" Lower;
    x "core.failed_frees" "count" Lower;
    x "core.release_ratio" "ratio" Higher;
    x "core.stw_rescanned_mib" "MiB" Lower;
    x "core.alloc_pause_cycles" "cycles" Lower;
    (* parsweep: no timed workload marks with more than one domain *)
    l "micro.parsweep.map_chunks_d1_us" "us" Lower;
    l "micro.parsweep.map_chunks_d2_us" "us" Lower;
    (* vmem *)
    l "micro.vmem.store_load_ns" "ns" Lower;
    (* fleet / obs; [fleet.tight.*] come from the tight-budget check *)
    l "fleet.run_s" "s" Lower;
    l "fleet.export_s" "s" Lower;
    x "fleet.reclaims" "count" Lower;
    x "fleet.injected_stall_gcycles" "Gcycles" Lower;
    x "fleet.tight.pressure_events" "count" Lower;
    x "fleet.tight.reclaims" "count" Lower;
    x "fleet.tight.oom_kills" "count" Lower;
    (* flowcheck / sanitizer *)
    l "flowcheck.analyze_s" "s" Lower;
    l "flowcheck.poolplan_s" "s" Lower;
    l "sanitizer.lint_s" "s" Lower;
    (* the simulated clock *)
    x "sim.slowdown_pct" "%" Lower;
    x "sim.mem_overhead_pct" "%" Lower;
    x "sim.slowdown_gap_pp" "pp" Lower;
    x "sim.mem_gap_pp" "pp" Lower;
    x "sim.p99_latency_cycles" "cycles" Lower;
    x "sim.p99_stall_cycles" "cycles" Lower;
    x "sim.latency_samples" "count" Higher;
    x "sim.peak_rss_mb" "MiB" Lower;
    x "sim.app_busy_gcycles" "Gcycles" Lower;
    x "sim.background_busy_gcycles" "Gcycles" Lower;
    x "sim.stalled_gcycles" "Gcycles" Lower;
    (* the tracer itself *)
    l "trace_overhead_pct" "%" Lower;
    l "spans.unattributed_pct" "%" Lower;
  ]

let find name =
  List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)
