(** Bounded schedule exploration of the sweep protocol (DPOR-lite).

    Drives a fixed two-mutator script — including a window where a freed
    object is still reachable from a root — through every (sampled)
    placement of one or two sweep start/finish boundaries. Boundaries
    are only placed at commutativity points (after heap-touching ops):
    placements between pure-compute ops execute identically, so the
    partial-order reduction skips them.

    The script is {!Workloads.Trace.op}s, each tagged with the mutator
    that issues it. A schedule replays it through
    {!Workloads.Trace.exec} on a fresh MineSweeper stack
    ({!Workloads.Harness.fresh}), against its serving target ticked
    after each allocation, as every trace replay is, under the
    {!Sanitizer.Sweep_oracle.layer}, with the {!Recorder} attached. The
    explorer's own layer sits on top: after each op it ticks the
    instance (after [Work]) and places the schedule's boundaries; the
    oracle judges each release when its sweep completes.

    Per schedule, three judgments:
    - {e soundness}: the oracle's [oracle-unsound] findings (an entry
      recycled while the {!Ptrtrack.Registry} ground truth holds a
      pointer to it — the paper's use-after-free reintroduced) and its
      post-sweep invariant audit, the rule every referee replay is
      judged by;
    - {e race freedom}: the recorded event stream must satisfy
      {!Hb.analyze} with zero findings;
    - {e determinism/consistency}: each schedule runs twice and must
      render identically, and schedules with equal executed signatures
      must account equal swept bytes and outcomes.

    Results export through {!Obs}: [rc.*] counters/gauges in
    [registry], one [race]-phase span per schedule in [ring]. *)

type schedule = (int * int) list
(** [(start_after_op, finish_after_op)] per sweep, in op order. *)

val script : (int * Workloads.Trace.op) array
(** The mutator script: (issuing thread, op). Read as a trace of two
    threads, its one dangling free is op 7 (id 0). *)

val points : int list
(** Op indices after which a boundary may be placed. *)

val all_schedules : unit -> schedule list
(** The full bounded space: every single-sweep placement, then every
    non-overlapping two-sweep placement, lexicographic. *)

type outcome = {
  index : int;
  boundaries : schedule;
  signature : string;  (** executed synchronization history *)
  swept_bytes : int;
  released : int;
  requeued : int;
  violations : Sanitizer.Diagnostic.t list;
      (** the oracle's soundness findings, then its audit findings *)
  unsound_ids : int list;  (** script ids behind [oracle-unsound] *)
  races : Sanitizer.Diagnostic.t list;
}

type report = {
  config_name : string;
  space : int;
  outcomes : outcome list;
  deterministic : bool;
  consistent : bool;
  registry : Obs.Registry.t;
  ring : Obs.Trace_ring.t;
}

val run :
  ?config:Minesweeper.Config.t ->
  ?config_name:string ->
  schedules:int ->
  unit ->
  report
(** Explore up to [schedules] placements (stride-sampled from the full
    space when it is larger), each executed twice. Auto-sweep triggers
    are suppressed so sweeps happen exactly at the scheduled
    boundaries. *)

val violations : report -> Sanitizer.Diagnostic.t list
val races : report -> Sanitizer.Diagnostic.t list

val render : report -> string
(** Deterministic text rendering — byte-identical across repeated runs
    of the same exploration (the CLI gate compares two runs with
    [cmp]). *)
