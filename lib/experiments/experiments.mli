(** Regeneration of every table and figure in the paper's evaluation.

    Each figure renders its text from simulation runs memoised in the
    {!env}, so figures sharing data (e.g. Figures 7/9/10/11/12/13/14 all
    reuse the SPEC CPU2006 matrix) only pay once. Seven figures also
    certify invariants and return the checks that failed; [msweep
    figures] lists them and exits 1.

    See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md
    for measured-vs-paper values. *)

type env

val make_env : ?scale:float -> ?verbose:bool -> unit -> env
(** [scale] shortens every trace proportionally (e.g. [0.2] for smoke
    runs); [verbose] logs each simulation run to stderr as it starts. *)

type figure = {
  text : string;  (** the rendered figure *)
  failed : string list;
      (** its failed checks, in the order found; [[]] when it passes or
          checks nothing *)
}

val run : env -> suite:string -> bench:string -> scheme:string ->
  Workloads.Driver.result
(** Memoised single run. [scheme] is any name
    {!Workloads.Harness.scheme_of_name} accepts; any other raises
    [Invalid_argument "unknown scheme key <scheme>"]. *)

val checked : string -> ok:string -> string list -> string -> figure
(** [checked title ~ok failed body] is a figure that certifies
    invariants: [body], then the line [ok] when [failed] is empty, else
    a line naming every failed check. *)

val all_figures : (string * (env -> figure)) list
(** In paper order: ["fig1"], ["fig2"], ["fig7"] ... ["fig19"]; ["scudo"]
    (Section 7: MineSweeper over Scudo); ["ptrtrack"] (CRCount, pSweeper
    and DangSan implemented and measured); the ablations
    ["ablation-threshold"], ["ablation-granule"] and
    ["ablation-helpers"]; then the extensions, each of which fails a
    check when its invariant breaks:
    - ["incremental-sweep"]: incremental mode sweeps strictly fewer
      bytes than full mode on every profile that sweeps more than once.
    - ["parallel-mark"]: swept bytes are identical at 1/2/4/8 modeled
      marker domains, and some profile reaches a 1.5x modeled mark
      speedup at 4 (one marker streams 4 B/cycle against a 16 B/cycle
      DRAM wall, so scaling saturates at 4).
    - ["sweep-pipeline"]: the same identity, and a 2x modeled
      end-to-end sweep-cycle speedup at 4 domains.
    - ["static-bounds"]: on every mimalloc-bench profile the flowcheck
      occupancy/swept/sweep-count bounds dominate the measured ms.*
      telemetry, and every dynamic oracle finding was statically
      predicted.
    - ["pooled-landscape"]: zero unsound recycles under each profile's
      siteflow pool plan, and every static pool bound dominates the
      pooled backend's telemetry.
    - ["tail-latency"]: per server profile and backend, quantile
      families are monotone, stall latency stays within total latency,
      arrivals are identical across backends (the loop stays open), the
      baseline is exploited under live traffic and no MineSweeper
      backend is.
    - ["fleet-pressure"]: the committed peak stays within the budget,
      arrivals match isolation, and a neighbour's p99 stall rises above
      isolation wherever interference was injected. *)

val select_figures :
  string list option -> ((string * (env -> figure)) list, string list) result
(** The [--only] selection of [msweep figures]. [select_figures (Some
    ids)] is the figures named in [ids], in paper order, or [Error
    unknown] with every id that names no figure; [select_figures None]
    is {!all_figures}. *)
