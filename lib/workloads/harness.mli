(** Allocator stacks: a uniform face over the schemes under evaluation.

    A stack bundles the scheme's entry points with the accounting the
    driver needs: how much extra metadata it keeps resident and how cold
    its served memory is (delayed reuse causes the cache misses the
    paper identifies as MineSweeper's main run-time cost). The three
    plain allocators share one builder over {!Alloc.Backend.S}, and the
    three MineSweeper stacks one builder over
    {!Minesweeper.Instance.S}. *)

type scheme =
  | Baseline  (** unmodified JeMalloc (the paper's comparison baseline) *)
  | Mine_sweeper of Minesweeper.Config.t
  | Mark_us
  | Ff_malloc
  | Scudo_baseline  (** the Scudo hardened-allocator model, unprotected *)
  | Scudo_sweeper of Minesweeper.Config.t
      (** MineSweeper layered over Scudo (the Section 7 integration) *)
  | Cr_count  (** reference-counting pointer invalidation (CRCount) *)
  | P_sweeper  (** concurrent live-pointer-table sweeping (pSweeper-1s) *)
  | Dang_san  (** log-based pointer nullification (DangSan) *)
  | Dl_baseline
      (** GNU-malloc-style allocator with in-band metadata (exploitable
          free-list links, Section 2's footnote) *)
  | Dl_sweeper of Minesweeper.Config.t
      (** MineSweeper layered over the dlmalloc model *)
  | Pooled of Alloc.Poolalloc.plan option
      (** SeMalloc/CAMP-style site-keyed pooling driven by a flowcheck
          siteflow plan; [None] uses [Poolalloc.identity_plan] over
          {!default_pool_sites} sites (maximum segregation) *)

val scheme_name : scheme -> string

(** {1 Names}

    The one table the CLI and the figures resolve names through. *)

val schemes : scheme list
(** Every scheme a name selects under the name {!scheme_name} prints. *)

val optimisation_levels : (string * string * Minesweeper.Config.t) list
val partial_versions : (string * string * Minesweeper.Config.t) list
(** The ablation ladders of Figures 15/16 (Section 5.4) and Figure 17
    (Section 5.5), a label, scheme name and configuration per rung. Each
    ends at the default, ["minesweeper"]; the other names are aliases. *)

val scheme_aliases : (string * scheme) list
(** Further names: the CLI's short spellings ([ms], [mostly], [ff],
    [scudo-ms], ...) and the ablation rungs' names ([ms-unopt],
    [ms-partial-q], ...), which {!scheme_name} prints as
    ["minesweeper-variant"]. *)

val scheme_names : string list
(** Every accepted scheme name: {!schemes}' names, then the aliases. *)

val scheme_of_name : string -> (scheme, string) result
(** The scheme a name selects; the error lists {!scheme_names}. *)

val suites : (string * Profile.t list) list
(** [spec2006], [spec2017] and [mimalloc], with their profiles. *)

val find_profile : suite:string -> string -> (Profile.t, string) result
(** A suite's benchmark by name; the error lists the valid suites or
    the suite's benchmarks. *)

val default_pool_sites : int
(** Site universe assumed by a plan-free [Pooled None] stack; matches
    the [Profile.make] default. *)

type t = {
  scheme : string;
  machine : Alloc.Machine.t;
  obs : Obs.Registry.t option;
      (** the stack's metrics registry: for the MineSweeper schemes the
          instance's, which holds the [ms.*], [sweep.stage.*] (and, at
          more than one modeled domain, [par.*]) metrics beside the
          [vmem.*] and [alloc.*] read-through metrics that
          {!Minesweeper.Instance.S.create} attaches; for [Pooled] the
          pool allocator's [alloc.*]; [None] for stacks that keep no
          registry *)
  trace : Obs.Trace_ring.t option;
      (** the stack's span ring (events + sweep-phase profiling) *)
  malloc : int -> int;
  malloc_site : site:int -> int -> int;
      (** site-attributed allocation ({!Trace} replay calls this);
          every scheme except [Pooled] ignores the site and behaves
          exactly like [malloc] *)
  free : thread:int -> int -> unit;
  tick : unit -> unit;
  drain : unit -> unit;
  reclaim : unit -> unit;
      (** release memory now, regardless of thresholds: sweeper schemes
          force a sweep cycle and finish it (release + purge stages hand
          pages back), allocators purge their page caches. The lever a
          machine-wide RSS-pressure policy ({!Fleet}) pulls on a tenant;
          a no-op for schemes that retain nothing reclaimable
          (ffmalloc's one-way address consumption). *)
  quarantine_bytes : unit -> int;
      (** bytes currently held back from reuse (quarantine, deferred
          frees, pending invalidations); 0 for schemes with no
          retention. Drives largest-quarantine-first purge ordering and
          per-tenant quarantine budgets. *)
  live_bytes : unit -> int;
  metadata_bytes : unit -> int;
      (** resident metadata beyond the simulated pages (shadow map,
          quarantine entries); added to RSS in reports *)
  cold_penalty : int -> int;
      (** extra application cycles charged when serving an allocation of
          this size, modelling the cache misses of delayed reuse *)
  is_protected_addr : int -> bool;
      (** the address is currently quarantined / permanently retired, so
          a use-after-free cannot become a use-after-reallocate *)
  tolerates_double_free : bool;
      (** whether a second [free] of the same pointer is absorbed
          (quarantine dedup) rather than undefined behaviour *)
  on_pointer_write : slot:int -> old_value:int -> value:int -> unit;
      (** called for every *instrumented* pointer store the program
          performs (compiler-inserted instrumentation in DangSan /
          CRCount / pSweeper; a no-op for uninstrumented schemes).
          Integer writes that merely alias addresses are NOT reported —
          that is precisely the coverage gap of non-conservative
          pointer-tracking schemes. *)
  sweeps : unit -> int;
  failed_frees : unit -> int;
}

val build : scheme -> threads:int -> Alloc.Machine.t -> t

(** {1 Resident set}

    The one RSS rule the batch driver ({!Driver}) and the server
    ({!Server}) report and enforce. *)

val default_rss_limit : int
(** 768 MiB: a run whose resident set exceeds this is killed. *)

exception Out_of_memory_budget

val sample_rss : t -> Sim.Sampler.t -> limit:int -> unit
(** Record the stack's resident set in the sampler at the current
    simulated time, then raise {!Out_of_memory_budget} if it exceeds
    [limit]. The resident set is a constant 3 MiB for the program image,
    plus the committed simulated pages, plus [metadata_bytes]. *)
