(** Regeneration of every table and figure in the paper's evaluation.

    Each [figN] function returns the rendered text of the corresponding
    paper figure, computed from simulation runs. Runs are memoised in the
    {!env}, so figures sharing data (e.g. Figures 7/9/10/11/12/13/14 all
    reuse the SPEC CPU2006 matrix) only pay once.

    See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md
    for measured-vs-paper values. *)

type env

val make_env : ?scale:float -> ?verbose:bool -> unit -> env
(** [scale] shortens every trace proportionally (e.g. [0.2] for smoke
    runs); [verbose] logs each simulation run to stderr as it starts. *)

val scheme_keys : string list
(** All scheme keys usable with {!run}: ["baseline"], ["minesweeper"],
    ["minesweeper-mostly"], ["minesweeper-incremental"], ["markus"],
    ["ffmalloc"], the optimisation levels ["ms-unopt"], ["ms-zero"],
    ["ms-unmap"], ["ms-conc"], and the partial versions
    ["ms-partial-base"], ["ms-partial-uz"], ["ms-partial-q"],
    ["ms-partial-c"], ["ms-partial-s"]. *)

val run : env -> suite:string -> bench:string -> scheme:string ->
  Workloads.Driver.result
(** Memoised single run. *)

val fig1 : env -> string
(** Use-after-free vulnerabilities per year (NVD + Linux kernel). *)

val fig2 : env -> string
(** Exploit life-cycle: attack outcomes under each scheme. *)

val fig7 : env -> string
(** SPEC CPU2006 slowdown, all schemes (incl. literature-quoted). *)

val fig8 : env -> string
(** Memory usage over time for sphinx3. *)

val fig9 : env -> string
(** Slowdown vs MarkUs and FFmalloc (re-run head-to-head). *)

val fig10 : env -> string
(** SPEC CPU2006 average memory overhead, all schemes. *)

val fig11 : env -> string
(** Average and peak memory overhead (MineSweeper). *)

val fig12 : env -> string
(** Additional CPU utilisation (MineSweeper). *)

val fig13 : env -> string
(** Fully vs mostly concurrent slowdown. *)

val fig14 : env -> string
(** Number of sweeps triggered per benchmark. *)

val fig15 : env -> string
(** Run-time overhead under cumulative optimisation levels. *)

val fig16 : env -> string
(** Memory overhead under cumulative optimisation levels. *)

val fig17 : env -> string
(** Source of overheads: six partial versions on five benchmarks. *)

val fig18 : env -> string
(** SPECspeed2017 time and memory overheads. *)

val fig19 : env -> string
(** mimalloc-bench stress-test time and memory overheads. *)

val scudo_table : env -> string
(** Section 7: MineSweeper over the Scudo backend vs plain Scudo. *)

val ptrtrack_table : env -> string
(** Extension: CRCount / pSweeper / DangSan implemented over the
    instrumented-store hook and measured against MineSweeper, next to
    the values the paper quotes. *)

val ablation_threshold : env -> string
(** Extension: sensitivity of time/memory to the sweep threshold. *)

val ablation_granule : env -> string
(** Extension: shadow-map precision vs aliasing-induced failed frees. *)

val ablation_helpers : env -> string
(** Extension: sensitivity to the number of sweeper helper threads. *)

val incremental_sweep : env -> string
(** Extension: full-scan vs incremental marking phase on the most
    sweep-heavy SPEC CPU2006 and mimalloc-bench profiles — slowdown,
    bytes swept per mode, pages skipped vs rescanned and the summary
    cache footprint. Prints a REGRESSION marker (grepped by check.sh) if
    incremental mode fails to sweep strictly fewer bytes than full
    mode. *)

val parallel_mark : env -> string
(** Extension: modeled mark-phase scaling of the parallel mark
    ([lib/parsweep]) at 1/2/4/8 marker domains on sweep-heavy mimalloc-bench
    and SPEC profiles. Verifies swept bytes are identical at every
    domain count and reports the modeled critical-path speedup (single
    marker streams 4 B/cycle against a 16 B/cycle DRAM wall, so scaling
    saturates at 4 domains). Prints a REGRESSION marker (grepped by
    check.sh) if any domain count diverges or no profile reaches 1.5x
    at 4 domains. *)

val static_bounds : env -> string
(** Extension: static dataflow analysis vs dynamic replay on every
    mimalloc-bench profile. The flowcheck analyzer computes quarantine
    occupancy / swept-bytes / sweep-count bounds and retention
    predictions from one replay-free trace pass; a real replay provides
    the measured ms.* telemetry and the differential sweep oracle the
    ground-truth findings. Prints a REGRESSION marker (grepped by
    check.sh) if any measured value exceeds its static bound or any
    dynamic oracle finding was not statically predicted. *)

val tail_latency : env -> string
(** Extension: the server-traffic workload family (steady / bursty /
    diurnal / spike / slow-leak) under the open-loop load generator —
    p50/p99/p999 total and stall-induced latency per backend (histogram
    quantiles with within-bucket interpolation), max queue backlog and
    served fraction, plus the vtable-hijack attack mounted under live
    traffic. Prints a REGRESSION marker (grepped by check.sh) if any
    quantile family is non-monotone, stall latency exceeds total
    latency, arrivals differ across backends (the loop closed), the
    baseline is not exploited, or a MineSweeper backend is. *)

val all_figures : (string * (env -> string)) list
(** In paper order; keys are ["fig1"], ["fig2"], ["fig7"] ... ["fig19"],
    plus ["scudo"], ["ptrtrack"], ["ablation-threshold"] and
    ["ablation-helpers"]. *)

val select_figures :
  string list option -> ((string * (env -> string)) list, string list) result
(** The [--only] selection shared by [msweep figures] and the bench
    harness. [select_figures (Some ids)] is the figures named in [ids],
    in paper order, or [Error unknown] with every id that names no
    figure; [select_figures None] is {!all_figures}. *)
