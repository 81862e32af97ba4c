(** Signature of a MineSweeper instance; see {!Instance} for the
    documentation of the layer itself. *)

type error =
  | Unknown_pointer of int
      (** The address is not the base of an allocation the application
          owns: never allocated, already recycled, or interior. *)
  | Double_free of int
      (** The address is currently quarantined: the application already
          freed it. MineSweeper absorbs the free (Section 3). *)
  | Size_overflow
      (** [calloc_result count size] with [count * size] overflowing. *)

let pp_error ppf = function
  | Unknown_pointer addr -> Format.fprintf ppf "unknown pointer %#x" addr
  | Double_free addr -> Format.fprintf ppf "double free of %#x" addr
  | Size_overflow -> Format.fprintf ppf "allocation size overflow"

let error_to_string e = Format.asprintf "%a" pp_error e

(** Synchronization events of the sweep protocol, in the order the
    sweeper/STW logical threads perform them. The race checker
    ({!Racecheck}) reconstructs happens-before edges from this stream:
    [Sweep_locked] is the barrier that joins every mutator's quarantine
    buffer into the sweeper; [Mark_page]/[Rescan_page] are the
    background (resp. stop-the-world) reads of one page; [Stw_fence] is
    the full barrier that opens the dirty-page re-scan; and
    [Sweep_completed] publishes the release decisions back to the
    mutators. *)
type sweep_event =
  | Sweep_locked of { sweep : int; entries : int }
      (** The quarantine working set was locked in; [entries] is its
          size (the per-entry detail arrives via
          {!Quarantine.set_observer}'s [Locked_in]). *)
  | Stage_boundary of { sweep : int; stage : Pipeline.stage; enter : bool }
      (** The sweep pipeline entered ([enter = true]) or exited one of
          its stages. Boundaries are emitted in the canonical
          mark → merge → release → purge order within a sweep; the race
          checker's [rc-stage-order] rule holds every execution to it. *)
  | Mark_page of { sweep : int; base : int }
      (** The marking phase consumed the page at [base] — a fresh read
          under [Full_scan], a read or a generation-checked summary
          replay under [Incremental]. *)
  | Mark_completed of { sweep : int; scanned_bytes : int }
      (** Marking finished; emitted even when [sweeping] is off (with 0
          bytes) so every sweep has a complete event bracket. *)
  | Stw_fence of { sweep : int }
      (** Stop-the-world: all mutators are fenced before the dirty-page
          re-scan (mostly-concurrent mode only). *)
  | Rescan_page of { sweep : int; base : int }
      (** The STW re-scan consumed the soft-dirty page at [base]. *)
  | Sweep_completed of { sweep : int }
      (** Release phase done; quarantine decisions are visible to every
          mutator. *)

module type S = sig
  type t

  type backend
  (** The underlying allocator's handle. *)

  val create :
    ?config:Config.t -> ?threads:int -> ?obs:Obs.Registry.t ->
    Alloc.Machine.t -> t
  (** Builds the layer over a fresh allocator (with the extra-byte
      modification). [threads] sizes the thread-local quarantine
      buffers. [obs] joins an existing metrics registry (the instance
      registers its counters under the [ms.] prefix, the address
      space's under [vmem.] and the allocator's under [alloc.] via
      {!Alloc.Backend.S.attach_obs}, and raises
      {!Obs.Registry.Duplicate} if another instance already claimed
      them); by default a private registry is created. *)

  val malloc : t -> int -> int
  (** Allocate. May stall (allocation pause) when a sweep is struggling
      to keep up with the free rate (Section 5.7). *)

  val free : t -> ?thread:int -> int -> unit
  (** The drop-in [free()]: {!free_result} with a double free absorbed
      silently, as a program linked against the allocator expects, and
      [Unknown_pointer] raised as [Invalid_argument]. *)

  (** {1 Typed result API}

      The primary entry points for the deallocation paths: outcomes a
      drop-in deployment wants to observe (double frees absorbed,
      wild frees rejected) are values, not logs. *)

  val free_result : t -> ?thread:int -> int -> (unit, error) result
  (** Intercepted free: quarantine (zero, maybe unmap) rather than
      recycle. [Error (Double_free _)] reports an absorbed double free
      of a quarantined address (counted, logged — the program keeps
      running); [Error (Unknown_pointer _)] reports a free of an
      address the allocator never handed out (nothing is counted and
      the heap is untouched). *)

  val calloc_result : t -> int -> int -> (int, error) result
  (** [calloc_result t count size]: zero-initialised array allocation;
      [Error Size_overflow] when [count * size] overflows. *)

  val realloc_result : t -> ?thread:int -> int -> int -> (int, error) result
  (** [realloc_result t addr size] allocates, copies the overlapping
      prefix and frees the old block through the quarantine.
      [realloc_result t 0 size] behaves as [malloc]; size 0 behaves as [free]
      and returns [Ok 0]. Quarantined or unknown [addr] is rejected
      with the corresponding error before any allocation happens. *)

  (** {1 The sweep pipeline}

      The redesigned sweep API: one typed entry point over the staged
      mark → merge → release → purge pipeline, replacing the four
      ad-hoc mark entry points of earlier versions. *)

  module Sweep : sig
    val plan : t -> Pipeline.plan
    (** The pipeline plan the instance's configuration derives
        ({!Pipeline.plan_of_config}): mode × domains × batching plus the
        stage list implied by the feature toggles. *)

    val run : t -> Pipeline.plan -> Pipeline.outcome
    (** [run t plan] executes one complete sweep cycle under [plan],
        synchronously, and returns its outcome. With a Release stage in
        the plan this is a full sweep — batched quarantine flush,
        lock-in, mark/merge, release decisions, purge — finished before
        returning even under concurrent configurations (any sweep
        already in flight is finished instead of starting a new one).
        A {!Pipeline.mark_only} plan runs just the Mark/Merge stages
        into the live shadow map: no lock-in, no release decisions, no
        sweep counted and no simulated cost charged. Stage boundaries
        are observable via {!val-set_sync_observer} and the modeled
        per-stage costs via the [sweep.stage.*] metrics; neither feeds
        the simulated clock, so outcomes are byte-identical at any
        domain count. *)

    val last : t -> Pipeline.outcome option
    (** The most recently completed pipeline outcome (from the
        background schedule or from [run]), if any. *)
  end

  val tick : t -> unit
  (** Complete any sweep whose scheduled completion time has passed, and
      run the allocator's decay purging when MineSweeper's post-sweep
      purging is disabled. *)

  val drain : t -> unit
  (** Force-finish the in-flight sweep, if any (end of run). *)

  val is_quarantined : t -> int -> bool
  (** Whether this address is currently held in quarantine — an access
      to it is a use-after-free that MineSweeper has prevented from
      becoming a use-after-reallocate. *)

  val note_prevented_uaf : t -> unit
  (** Record that the application just accessed quarantined memory. *)

  val backend : t -> backend

  val live_bytes : t -> int
  (** Live bytes as seen by the underlying allocator (quarantined
      allocations included: they are not yet freed). *)

  val machine : t -> Alloc.Machine.t
  val config : t -> Config.t

  val stats : t -> Stats.t
  (** A point-in-time snapshot of the instance's counters. The
      underlying values live in {!registry}; call again for fresh
      numbers — the returned record never changes. *)

  val reset_stats : t -> unit
  (** Zero the instance's [ms.] counters (see {!Stats.reset}). *)

  val registry : t -> Obs.Registry.t
  (** The metrics registry the instance publishes through (the one
      passed as [?obs], or the private one). *)

  val trace_ring : t -> Obs.Trace_ring.t
  (** The span ring holding both the lifecycle events — zero-length
      [free], [double-free], [unmap], [sweep-start], [sweep-finish],
      [stw] and [alloc-pause] spans — and the per-sweep phase profiling
      spans ([mark]/[scan]/[purge]/[quarantine]/[alloc_slow]). *)

  val quarantine_bytes : t -> int
  val quarantine_entries : t -> int

  val shadow_resident_bytes : t -> int
  (** Bytes of shadow-map backing currently resident (for memory
      accounting; the paper reports it below 1 % of the heap). *)

  val sweep_in_progress : t -> bool

  (** {1 Audit support}

      Read-only views for the sanitizer's cross-layer invariant audit
      ({!Sanitizer.Invariants}); not part of the drop-in API. *)

  val quarantine : t -> Quarantine.t
  val shadow : t -> Shadow.t

  val reference_full_mark : t -> Shadow.t
  (** A from-scratch full mark of all readable memory into a scratch
      shadow map: no simulated cost is charged and no instance state is
      touched. The ground truth the incremental strategy must match. *)

  val reference_incremental_mark : t -> Shadow.t
  (** The mark set the incremental strategy would produce right now —
      cached summaries replayed for clean pages, dirty pages rescanned —
      into a scratch shadow map, without advancing the scan generation or
      replacing the summary cache. [Sanitizer.Invariants] checks it
      equals {!reference_full_mark}. *)

  val iter_unmapped_pages : t -> (int -> unit) -> unit
  (** Visit the base address of every page whose backing was released
      while its allocation sits in quarantine (Section 4.2). *)

  val set_post_sweep_hook : t -> (unit -> unit) -> unit
  (** [set_post_sweep_hook t f] runs [f] after every completed sweep
      (release phase included) — the debug-mode hook the sanitizer uses
      to audit the stack at its most delicate moment. *)

  (** {1 Race-checker hooks} *)

  val set_sync_observer : t -> (sweep_event -> unit) -> unit
  (** Subscribe to the sweep protocol's synchronization events (see
      {!sweep_event}). At most one observer; emission is synchronous and
      in protocol order. *)

  val clear_sync_observer : t -> unit

  val force_sweep : t -> bool
  (** Start a sweep immediately, regardless of the quarantine trigger —
      the schedule explorer's way of placing sweep boundaries at chosen
      interleaving points. Returns [false] (and does nothing) if a sweep
      is already in flight or quarantining is disabled. Under
      [Sequential] concurrency the sweep also completes before
      returning. *)
end
