(** Record a live stack's synchronization events and race-check them.

    A {!session} subscribes to all four instrumentation hooks of one
    instance — {!Vmem.set_write_observer} (mutator stores, kept only
    inside the sweep window), {!Minesweeper.Quarantine.set_observer}
    (pushes, flushes, lock-in, per-entry outcomes),
    {!Minesweeper.Instance.set_sync_observer} (sweep boundaries, mark
    completion, the stop-the-world fence) and
    {!Alloc.Jemalloc.set_observer} (serves) — and linearises them into
    one {!Event.t} stream for {!Hb.analyze}. The {!Explorer} drives its
    schedules through the same session type.

    The recorder builds no stack: {!over} lays {!layer} over the
    serving target ({!Workloads.Trace.serve}) of the stack a run builds
    and records that run, [Driver.run ~observe] (the figures' run,
    which [msweep check -b] records) or a trace replay ({!run}); then it
    analyses the stream and returns the findings. It exports nothing.
    A well-behaved program must come back clean under every preset: the
    generators never republish a freed address, so no window write can
    hide a locked-in pointer. *)

type session

val attach : Minesweeper.Instance.t -> threads:int -> session
(** Install the observers (each hook holds at most one subscriber —
    attaching replaces any previous one). *)

val detach : session -> unit
(** Remove all four observers. *)

val events : session -> Event.t list
(** Everything recorded so far, in observed order. *)

val set_thread : session -> int -> unit
(** Declare which mutator issues the ops that follow (events from hooks
    fired on the mutator's behalf are attributed to it; out-of-range ids
    alias mutator 0, mirroring the quarantine). *)

val layer : session -> Workloads.Trace.target -> Workloads.Trace.target
(** Over any target serving from the observed instance: attribute the
    events of each [free] to the freeing mutator, then to mutator 0
    again, and count ops. The session only listens; the target
    serves. *)

type report = {
  trace_name : string;
  config_name : string;
  threads : int;
  ops : int;
  sweeps : int;
  events : int;  (** recorded synchronization events *)
  window_writes : int;  (** mutator stores inside sweep windows *)
  diags : Sanitizer.Diagnostic.t list;
  stream : Event.t list;
      (** the recorded event stream itself, for downstream analyses
          (e.g. static lockset passes) that want the raw schedule *)
}

val over :
  ?config_name:string ->
  trace_name:string ->
  threads:int ->
  ((Workloads.Harness.t -> Workloads.Trace.target -> Workloads.Trace.target) ->
  unit) ->
  report
(** [over ~trace_name ~threads run] calls [run observe] and records the
    run it performs: [run] builds a [Sweeper] stack and hands it and its
    serving target to [observe] before the first op, which {!attach}es
    a session for [threads] mutators and lays {!layer} over the target.
    Then it detaches and analyses.
    @raise Invalid_argument if [run] never calls [observe]. *)

val run :
  ?config:Minesweeper.Config.t ->
  ?config_name:string ->
  Workloads.Trace.t ->
  report
(** {!over} a trace's replay ({!Workloads.Trace.replay_observed}) on a
    MineSweeper stack under [config], which ticks after each
    allocation; deterministic in the trace and config. *)
