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

    {!run} replays a {!Workloads.Trace.t} through {!layer} over
    {!Sanitizer.Sweep_oracle.serve} on a fresh referee instance,
    analyses the stream and returns the findings; it exports nothing
    (the instance is dropped). A well-behaved trace must come back clean
    under every preset: the generator never republishes a freed address,
    so no window write can hide a locked-in pointer. *)

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
    again. The session only listens; the target serves. *)

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

val run :
  ?config:Minesweeper.Config.t ->
  ?config_name:string ->
  Workloads.Trace.t ->
  report
(** Replay under observation and analyse; deterministic in the trace and
    config. *)
