(** The trace runner: executes a {!Profile.t} against a {!Harness.t}
    stack on a fresh simulated machine and collects the metrics every
    figure in the paper is built from.

    The runner draws a program from the profile, a stream of {!Trace.op}s
    over object ids: allocations, pointers to them stored into other
    live objects and into the stack and globals windows, clears (or
    deliberately dangling pointers) before each free, unlucky integers
    that point inside live objects, and stack churn that zeroes root
    slots. It writes no memory itself: every op goes through
    {!Trace.exec}, the interpreter every replay and referee runs, which
    resolves ids to addresses and writes simulated memory. Sweeps and
    marking passes therefore scan genuine reference graphs — failed
    frees, quarantine growth and protection behaviour all emerge from
    the memory contents rather than from modelling shortcuts — and
    {!program} hands the same ops to the referees.

    Drawing the program costs O(1) a step plus O(refs) per free and
    O(live) per phase teardown, and allocates nothing but the ops it
    emits: the generator's state is flat int arrays (live objects in
    reused slots, their remembered references and the scheduled deaths
    as lists in one node pool, deaths keyed by step in a {!Flat_table}),
    and its draws are unboxed. That state grows with the live objects,
    their references and the pending deaths, not with the number of
    steps. *)

type result = {
  benchmark : string;
  scheme : string;
  wall : int;  (** application wall time, cycles *)
  app_busy : int;
  background_busy : int;
  stalled : int;
  cpu_utilisation : float;
  avg_rss : float;  (** time-weighted average resident bytes *)
  peak_rss : int;
  rss_trace : (float * int) array;  (** normalised-time RSS samples *)
  sweeps : int;
  failed_frees : int;
  allocations : int;
  frees : int;
  live_bytes_end : int;
  oom_killed : bool;
      (** the run exceeded its memory budget and was terminated early —
          the fate of the paper's unoptimised gcc/milc runs *)
  metrics : (string * int) list;
      (** the stack's metrics registry ({!Harness.t.obs}) read once at
          the end of the run: every metric under its registry name, in
          name order ({!Obs.Registry.snapshot}); [[]] for stacks that
          keep no registry *)
}

val run :
  ?ops_scale:float ->
  ?rss_limit:int ->
  ?on_build:(Harness.t -> unit) ->
  ?observe:(Harness.t -> Trace.target -> Trace.target) ->
  Profile.t ->
  Harness.scheme ->
  result
(** Run one benchmark under one scheme: stream its program through
    {!Trace.exec} against the stack's serving target ({!Trace.serve},
    charging the profile's [cache_sensitivity] share of the stack's
    cold-reuse penalty after each allocation); after each step's closing
    [Work] the stack ticks and, every [ops / 240] steps, resident memory
    is sampled ({!Harness.sample_rss}). Deterministic for a given
    profile seed. [ops_scale] shortens traces for quick runs; a run
    whose resident set exceeds [rss_limit] (default 768 MiB) is killed
    and returned with [oom_killed] set. [on_build] receives the freshly
    built stack before any operation runs — the hook for capturing its
    metrics registry and trace ring for post-run export.

    [observe] is the referees' seam: after the root regions are mapped
    it receives the stack and its serving target and returns the target
    the program runs against, the referees' layers over the serving
    target. It selects no behaviour: layers that only observe (the
    sweep oracle, the race recorder) leave the result, the metrics and
    the spans as they are without them, so [msweep check -b] judges the
    run [msweep run] reports. *)

val program : ?ops_scale:float -> Profile.t -> Trace.t
(** The ops {!run} streams for this profile and [ops_scale], collected
    as a trace ({!Trace.Op_buffer}): the program the figures run, for the
    lint and the static tools. The program does not depend on the
    scheme. A referee that must judge the figures' run lays itself over
    {!run} through [observe] instead of replaying this trace, whose
    replay ticks after each allocation and charges no cold-reuse
    cycles; {!run} also stops at an out-of-memory kill where the
    program runs on. *)

val slowdown : baseline:result -> result -> float
val memory_overhead : baseline:result -> result -> float
val peak_memory_overhead : baseline:result -> result -> float
val cpu_overhead : baseline:result -> result -> float
