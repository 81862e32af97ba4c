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
    {!program} hands the same ops to the referees. *)

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
  Profile.t ->
  Harness.scheme ->
  result
(** Run one benchmark under one scheme: stream its program through
    {!Trace.exec} against the stack, whose target charges the profile's
    share of the stack's cold-reuse penalty after each allocation; after
    each step's closing [Work] the stack ticks and, every
    [ops / 240] steps, resident memory is sampled. Deterministic
    for a given profile seed. [ops_scale] shortens traces for quick runs; a run whose
    resident set exceeds [rss_limit] (default 768 MiB) is killed and
    returned with [oom_killed] set. [on_build] receives the freshly
    built stack before any operation runs — the hook for capturing its
    metrics registry and trace ring for post-run export. *)

val program : ?ops_scale:float -> Profile.t -> Trace.t
(** The ops {!run} streams for this profile and [ops_scale], as a trace:
    the program the figures run, for the lint, the sweep oracle and the
    race recorder. The program does not depend on the scheme. Its
    replay target differs from {!run}'s (a referee ticks after each
    allocation and charges no cold-reuse cycles), and {!run} stops at
    an out-of-memory kill where the program runs on. *)

val slowdown : baseline:result -> result -> float
val memory_overhead : baseline:result -> result -> float
val peak_memory_overhead : baseline:result -> result -> float
val cpu_overhead : baseline:result -> result -> float
