(** Differential UAF oracle for the analysis-driven pooled backend.

    The pooled allocator has no quarantine and no sweeps; its safety is
    a static claim about the pool plan. This oracle replays a trace
    through {!Workloads.Trace.run} on a [Pooled] stack of
    {!Workloads.Harness} under a given plan, over the stack's serving
    target ({!Workloads.Trace.serve}, ticked after each allocation as
    every trace replay is) under {!Sweep_oracle.ground_truth} (no
    zeroing on free), and flags every {e unsound recycle}: a malloc
    served from a previously-freed base while live pointers into that
    base are still recorded.

    A plan produced by the siteflow analysis must yield zero unsound
    recycles on its own trace; {!certify} turns any survivor into a
    [static-miss] error, mirroring {!Sweep_oracle.certify_static}. *)

type report = {
  trace_name : string;
  ops : int;
  allocs : int;
  frees : int;
  recycled : int;  (** mallocs served from a previously-freed base *)
  footprint_bytes : int;
  retired_bytes : int;
  soundness : Diagnostic.t list;  (** one [oracle-unsound] per event *)
  unsound_ids : int list;  (** ids whose slot was unsoundly recycled *)
  pool_stats : Alloc.Poolalloc.pool_stats array;
      (** final per-pool telemetry, for bound certification *)
}

val run : ?plan:Alloc.Poolalloc.plan -> Workloads.Trace.t -> report
(** Replay under [plan] (default: one recycling pool per declared site,
    i.e. no analysis — useful as an unsafe baseline). *)

val certify : report -> Diagnostic.t list
(** Zero-unsound certification: every unsound recycle becomes a
    [static-miss] error; empty means the plan is certified on this
    trace. *)
