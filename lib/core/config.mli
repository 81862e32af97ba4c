(** MineSweeper configuration: operation modes, feature toggles and
    thresholds.

    Besides the two shipping modes (fully and mostly concurrent), the
    toggles expose every intermediate design point evaluated in the
    paper: the cumulative optimisation levels of Section 5.4
    (Figures 15/16) and the partial "source of overheads" versions of
    Section 5.5 (Figure 17). *)

type concurrency =
  | Sequential  (** sweep and recycle in the application thread *)
  | Concurrent of { helpers : int; stop_the_world : bool }
      (** dedicated sweeper thread plus [helpers] helper threads;
          [stop_the_world] adds the mostly-concurrent dirty-page re-scan *)

type sweep_mode =
  | Full_scan
      (** every sweep rescans all readable program memory (the paper's
          baseline marking phase, Section 4.4) *)
  | Incremental
      (** keep soft-dirty-style write tracking live between sweeps and
          cache a per-page pointer summary: only pages written since
          the previous sweep are rescanned, clean pages replay their
          cached summary into the shadow map *)

type t = {
  quarantining : bool;
      (** [false]: frees forward straight to the allocator (partial
          versions 1–2 of Section 5.5) *)
  zeroing : bool;  (** zero-fill freed data (Section 4.1) *)
  unmapping : bool;
      (** release physical pages of page-spanning quarantined
          allocations (Section 4.2) *)
  sweeping : bool;
      (** [false]: "sweeps" recycle everything without scanning memory
          (partial versions 3–4) *)
  keep_failed : bool;
      (** [false]: release allocations even when dangling pointers were
          found (partial version 5) *)
  purging : bool;  (** full allocator purge after each sweep (Section 4.5) *)
  concurrency : concurrency;
  sweep_mode : sweep_mode;  (** marking mode of every sweep *)
  domains : int;
      (** marker domains of the cost model. The mark always runs on the
          calling OCaml domain; [n > 1] assigns its page chunks to [n]
          modeled markers ([lib/parsweep]) and projects the parallel
          critical path and stage overlap from that. Outputs are
          byte-identical for every value — only the [par.*] /
          [sweep.stage.*] telemetry changes *)
  threshold : float;
      (** sweep when pending quarantine exceeds this fraction of the
          heap (paper default 15 %) *)
  threshold_min_bytes : int;
      (** floor below which the quarantine never triggers a sweep *)
  unmap_factor : float;
      (** also sweep when unmapped quarantine exceeds this multiple of
          the resident footprint (paper: 9×) *)
  pause_factor : float;
      (** stall allocation when pending quarantine exceeds this multiple
          of the heap while a sweep is already running (Section 5.7) *)
  shadow_granule : int;
      (** bytes per shadow-map bit (default 16, the smallest allocation
          granule; coarser = smaller map, more aliasing — Section 3.2) *)
}

val default : t
(** The fully concurrent shipping configuration: all optimisations on,
    15 % threshold, 6 helper threads. *)

val mostly_concurrent : t
(** Same but with the brief stop-the-world re-scan (Section 5.3). *)

val incremental : t
(** {!default} with [sweep_mode = Incremental]: marking rescans only
    pages dirtied since the previous sweep and replays cached per-page
    pointer summaries for the rest. Protection guarantees are identical —
    the rebuilt shadow equals a from-scratch full mark (audited by
    [Sanitizer.Invariants]). *)

val incremental_mostly : t
(** {!mostly_concurrent} with the incremental marking phase. *)

(** {1 Cumulative optimisation levels (Figures 15/16)} *)

val unoptimised : t
val plus_zeroing : t
val plus_unmapping : t
val plus_concurrency : t
val plus_purging : t
(** [plus_purging = default]. *)

(** {1 Partial versions (Figure 17)} *)

val partial_base : t
val partial_unmap_zero : t
val partial_quarantine : t
val partial_concurrency : t
val partial_sweep : t
val partial_full : t

(** {1 Construction and presets} *)

val with_sweep_mode : sweep_mode -> t -> t
(** Replace the marking mode. *)

val with_domains : int -> t -> t
(** [with_domains n t] is [t] modeling [max 1 n] marker domains — the
    CLI's [--domains] override, applicable to any preset. *)

val presets : (string * t) list
(** The named configurations the CLI and harness accept:
    [default], [mostly], [incremental], [incremental-mostly],
    [unoptimised], [partial]. *)

val of_preset : string -> (t, string) result
(** Resolve a preset string (including the historical aliases [fully],
    [ms], [ms-inc]); the error carries the accepted names. *)

val preset_name : t -> string option
(** The canonical preset name of a configuration, if it equals one
    ([None] for hand-built variants). *)

val pp : Format.formatter -> t -> unit
