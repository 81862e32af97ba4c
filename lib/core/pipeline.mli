(** The sweep pipeline: typed stage descriptors, plans and outcomes.

    A sweep is no longer a bundle of ad-hoc entry points — it is a
    {!plan} (derived from {!Config.t} in exactly one place,
    {!plan_of_config}) run through the staged pipeline
    mark → merge → release → purge by [Instance.Sweep.run]. Each stage's
    work is reported back as a {!stage_report}; the whole run as an
    {!outcome} carrying both the sequential and the batched-overlap
    (pipelined) cycle projections.

    Determinism contract: the pipelined projection is telemetry only
    ([sweep.stage.*] counters and spans). The simulated clock, the
    shadow set, release decisions and every non-[par.*] /
    non-[sweep.stage.*] export are byte-identical for any [domains]
    value — the same discipline [lib/parsweep] established for the mark
    phase, extended to the whole sweep. *)

type stage =
  | Mark  (** scan readable pages for quarantine hits (modeled parallel) *)
  | Merge  (** canonical chunk-id-order merge into the shadow map *)
  | Release  (** shadow-test each locked-in entry; release or requeue *)
  | Purge  (** decommit retained extents back to the OS *)

val stage_name : stage -> string
(** ["mark"], ["merge"], ["release"], ["purge"] — the spelling used by
    [sweep.stage.*] metric names, span labels and racecheck events. *)

val all_stages : stage list
(** The canonical stage order: [Mark; Merge; Release; Purge]. *)

val stage_index : stage -> int
(** Position in {!all_stages}; the order racecheck's [rc-stage-order]
    rule enforces at stage boundaries. *)

type plan = {
  mode : Config.sweep_mode;  (** marking mode of the Mark stage *)
  domains : int;  (** modeled marker domains available to the pipeline *)
  flush_batch : int;
      (** quarantine flush batch size; also the batch granularity of
          the overlap model *)
  helpers : int;  (** helper threads of the concurrent sweeper (0 = app thread) *)
  stop_the_world : bool;  (** mostly-concurrent dirty-page re-scan *)
  stages : stage list;
      (** stages this configuration actually runs, in canonical order:
          no Mark/Merge when [sweeping = false], no Purge when
          [purging = false] *)
}

val plan_of_config : Config.t -> plan
(** Derive the pipeline plan from a configuration — the only
    construction path, so preset → plan routing has a single source of
    truth ([Config.Sweep.of_preset] picks the sweep knobs, the feature
    toggles pick the stage list). *)

val mark_only : plan -> plan
(** The plan restricted to [Mark; Merge]: marking into the live shadow
    map without lock-in, release or purge. *)

val batches : plan -> entries:int -> int
(** Number of flush batches a sweep over [entries] locked-in entries
    uses: [ceil (entries / flush_batch)], at least 1. *)

type stage_report = {
  stage : stage;
  cycles : int;
      (** modeled single-threaded cycle cost of the stage (for Mark:
          the sequential scan estimate) *)
  items : int;  (** stage-specific unit count: pages, entries, extents *)
  bytes : int;  (** bytes the stage moved or examined *)
}

type outcome = {
  sweep : int;  (** sweep ordinal this outcome describes *)
  plan : plan;
  scanned_bytes : int;  (** bytes the Mark stage actually scanned *)
  replayed_words : int;  (** summary words replayed (incremental mode) *)
  entries : int;  (** locked-in quarantine entries *)
  released : int;  (** entries recycled by the Release stage *)
  requeued : int;  (** entries kept because a mark was found *)
  flush_batches : int;  (** batched quarantine flushes during setup *)
  reports : stage_report list;  (** one per executed stage, in order *)
  sequential_cycles : int;
      (** modeled end-to-end cost with no overlap: sum of stage costs *)
  pipelined_cycles : int;
      (** modeled cost with the parallel mark estimate and batched
          stage overlap; equals [sequential_cycles] at one domain *)
}

val modeled_cycles :
  plan -> batches:int -> mark_pipelined:int -> stage_report list -> int * int
(** [(sequential, pipelined)] projections for a stage-report list:
    sequential is the sum of report cycles; pipelined substitutes
    [mark_pipelined] (the parallel mark critical path) for the Mark
    stage and applies {!Parsweep.pipeline_cycles} over [batches].
    Clamped so pipelined never exceeds sequential. Pure projection —
    never charged to the simulated clock. *)

val speedup : outcome -> float
(** [sequential_cycles /. pipelined_cycles] (1.0 when degenerate). *)

val pp_plan : Format.formatter -> plan -> unit
