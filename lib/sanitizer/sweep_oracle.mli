(** Differential soundness/precision oracle for MineSweeper's sweep.

    Referees are layers over the one serving target,
    {!Workloads.Trace.serve}, of a stack a run builds: the oracle
    ({!layer}) is the {!ground_truth}, a {!Ptrtrack.Registry.t} of every
    pointer store and clear the run performs (data stores are not
    recorded — an integer that merely aliases an address is {e not} a
    pointer, which is precisely the information the conservative sweep
    lacks), over a layer that watches the quarantine. It observes the
    stack's MineSweeper instance ({!Workloads.Harness.instance}) and
    builds none: {!over} lays it over any run with an observation seam,
    [Driver.run ~observe] (the figures' run, which [msweep check -b]
    judges) or a trace replay ({!run}).

    Against that ground truth the oracle checks the paper's Section 3.2
    invariant from the outside:

    - {b soundness} ([oracle-unsound], error): a quarantined allocation
      was recycled by the backend while the registry still records a
      live pointer to it. MineSweeper must never do this — the sweep is
      conservative, so every real pointer is also a marked word.
    - {b precision/latency} ([oracle-retention], warning): an allocation
      stayed quarantined for [latency_sweeps] consecutive completed
      sweeps that locked it in although the registry records no pointer
      to it (a sweep already in flight when the entry was freed fixed
      its lock-in set earlier, never observed the entry, and is not
      counted) — memory
      held hostage by unlucky integers or shadow-granule aliasing, the
      conservatism cost the paper accepts but a regression here should
      not grow silently.

    Only a completing sweep releases anything, so both checks run at
    sweep completion, on the instance's post-sweep hook, with the
    registry as the runner's last op left it: wherever the runner ticks
    the stack (after an allocation, a program step or an explorer
    boundary), the oracle judges the release where it happens. A
    finding's op index is the op running when the sweep completed, or
    the next op when it completed between ops. With [audit] set,
    {!Invariants.audit} also runs after every completed sweep and its
    findings are folded into the report. *)

type report = {
  trace_name : string;
  ops : int;
  allocs : int;
  frees : int;
  releases : int;  (** allocations the backend recycled *)
  sweeps : int;  (** sweeps completed during the replay *)
  soundness : Diagnostic.t list;
  precision : Diagnostic.t list;
  audit : Diagnostic.t list;
  unsound_ids : int list;
      (** trace ids behind [oracle-unsound] findings, sorted, deduped *)
  retained_ids : int list;
      (** trace ids behind [oracle-retention] findings, sorted, deduped *)
}

val ground_truth :
  Ptrtrack.Registry.t ->
  usable:(int -> int) ->
  zeroing:bool ->
  Workloads.Trace.target ->
  Workloads.Trace.target
(** Keep a registry in step with the memory a target serves: record
    pointer stores, forget data-stored slots, drop the records inside
    each allocation the target returns (fresh memory is zeroed) and,
    when the backend's free zeroes ([zeroing]), inside each object
    before the target frees it. [usable addr] is the backend's usable
    size of a live allocation. A layer below sees the registry as it
    stood before the op's drops. *)

type t
(** An oracle attached to one instance. *)

val attach :
  ?latency_sweeps:int -> ?audit:bool -> Minesweeper.Instance.t -> t
(** Start observing a fresh instance ([latency_sweeps] defaults to 3,
    [audit] to [true]). Takes the instance's post-sweep hook, where the
    checks and the audit run. *)

val layer : t -> Workloads.Trace.target -> Workloads.Trace.target
(** The oracle over a target serving from the attached instance: the
    {!ground_truth} over a layer that tracks the frees the instance
    quarantines and counts ops. It only reads the instance, so the run
    it observes is the run without it. *)

val finish : t -> trace_name:string -> report
(** Drain the instance and build the report. *)

val over :
  ?latency_sweeps:int ->
  ?audit:bool ->
  trace_name:string ->
  ((Workloads.Harness.t -> Workloads.Trace.target -> Workloads.Trace.target) ->
  unit) ->
  report
(** [over ~trace_name run] calls [run observe] and judges the run it
    performs: [run] builds a [Sweeper] stack and hands it and its
    serving target to [observe] before the first op, as
    [Driver.run ~observe] and {!Workloads.Trace.replay_observed} do;
    [observe] {!attach}es the oracle to the stack's instance and lays
    {!layer} over the target. Then {!finish}.
    @raise Invalid_argument if [run] never calls [observe]. *)

val run :
  ?config:Minesweeper.Config.t ->
  ?latency_sweeps:int ->
  ?audit:bool ->
  Workloads.Trace.t ->
  report
(** {!over} a trace's replay ({!Workloads.Trace.replay_observed}) on a
    MineSweeper stack under [config] (default: the default preset),
    which ticks after each allocation. *)

val findings : report -> Diagnostic.t list
(** All diagnostics of a report: soundness, then precision, then audit. *)

val certify_static :
  predicted_unsound:int list ->
  predicted_retained:int list ->
  report ->
  Diagnostic.t list
(** Cross-check a dynamic oracle report against a static analyzer's
    predictions (plain id lists, so the static side need not live in
    this library). The static analysis is only useful if it is a sound
    over-approximation: every dynamic [oracle-unsound] id must appear in
    [predicted_unsound] and every [oracle-retention] id in
    [predicted_retained]. Each miss yields a [static-miss] error — an
    empty result certifies zero static false negatives on this trace. *)
