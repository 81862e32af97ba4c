(** Simulated virtual memory.

    This is the substrate the whole reproduction runs on: a paged, sparse
    64-bit-style address space with the operations MineSweeper needs from
    the OS — map/unmap, commit/decommit of physical backing, page
    protection, soft-dirty tracking (Linux's [/proc/pid/pagemap] feature
    used by the mostly-concurrent mode) and resident-set accounting.

    Addresses are plain OCaml [int]s. Loads and stores operate on aligned
    8-byte words so that sweeps can interpret every word of memory as a
    potential pointer, exactly as the paper does. Pages live in a
    {!Page_table}, so every mapping lies in [\[0, Layout.heap_limit)] and
    the page walks below visit pages in ascending address order. *)

type t

type prot =
  | No_access
  | Read_only
  | Read_write

type fault_kind =
  | Unmapped_access
  | Protection_violation

exception Fault of fault_kind * int
(** Raised on an access the simulated MMU refuses; carries the faulting
    address. A use-after-free on an unmapped quarantined page surfaces as
    this exception — the "clean termination" of Section 2. *)

val page_size : int
(** 4096 bytes. *)

val word_size : int
(** 8 bytes. *)

val granule : int
(** 16 bytes — the smallest allocation granule, one shadow-map bit each. *)

val create : unit -> t

val set_demand_commit_hook : t -> (pages:int -> unit) -> unit
(** Called whenever an access demand-commits decommitted pages, so the
    caller can charge page-fault costs. *)

val set_write_observer :
  t -> (addr:int -> value:int -> gen:int -> unit) -> unit
(** Observe every word {!store} (address, stored value, and the page's
    resulting write generation). [zero_range] is deliberately not
    observed: it only ever writes zeros, which can never encode a heap
    pointer. Used by the race checker ({!Racecheck}) to attribute
    mutator writes to pages with their dirty-generation ordering edge;
    at most one observer is active. *)

val clear_write_observer : t -> unit

val set_commit_observer : t -> (addr:int -> len:int -> unit) -> unit
(** Observe every transition of pages to the committed (resident) state:
    fresh {!map}s, explicit {!commit}s, and demand-commits triggered by
    access to a decommitted page. The callback fires after the pages are
    resident, so [committed_bytes] already reflects them. The mirror of
    {!set_decommit_observer} — together the two observers see every
    change to the resident set, which is how the fleet layer
    ({!Fleet.Machine}) tracks a machine-wide physical-page budget across
    tenant address spaces; at most one observer is active. *)

val clear_commit_observer : t -> unit

val set_decommit_observer : t -> (addr:int -> len:int -> unit) -> unit
(** Observe every {!decommit} of a page-aligned range, before the backing
    is dropped. Used by the sweep pipeline's Purge stage to account
    decommit work (madvise-equivalent syscalls) without the allocator
    backends needing any extra plumbing; at most one observer is
    active. *)

(** {1 Mapping and physical backing} *)

val map : t -> addr:int -> len:int -> unit
(** Reserve and commit a page-aligned range. Fresh pages are zeroed. *)

val unmap : t -> addr:int -> len:int -> unit
(** Remove the range entirely; later accesses fault. *)

val decommit : t -> addr:int -> len:int -> unit
(** Drop the physical backing (contents are lost) but keep the range
    mapped. A later access demand-commits zeroed pages — unless the range
    is also protected [No_access]. *)

val commit : t -> addr:int -> len:int -> unit
(** Restore physical backing (zeroed) for a decommitted range. *)

val protect : t -> addr:int -> len:int -> prot -> unit

val is_mapped : t -> int -> bool
val is_committed : t -> int -> bool
val protection : t -> int -> prot
(** [protection t addr] — the page must be mapped. *)

(** {1 Word access} *)

val load : t -> int -> int
(** [load t addr] reads the aligned word at [addr]. *)

val store : t -> int -> int -> unit
(** [store t addr w] writes [w] at the aligned address [addr] and marks
    the page soft-dirty. *)

val zero_range : t -> addr:int -> len:int -> unit
(** Zero an arbitrary byte range (must be mapped and writable). *)

(** {1 Accounting} *)

val committed_bytes : t -> int
(** Resident set size of the simulated process. *)

val mapped_bytes : t -> int
(** Bytes of mapped pages, committed or not (a counter, O(1)). *)

(** {1 Sweeping support} *)

val iter_committed_words :
  t -> addr:int -> len:int -> (int -> int -> unit) -> unit
(** [iter_committed_words t ~addr ~len f] calls [f address word] for every
    aligned word in the committed, readable portion of the range.
    Decommitted or [No_access] pages are skipped without faulting — this
    is how sweeps avoid touching purged memory (Section 4.5). *)

val iter_readable_pages : t -> (int -> Bytes.t -> unit) -> unit
(** [iter_readable_pages t f] calls [f page_base bytes] for every
    committed page that is readable. This is the sweep's view of "all
    program memory": decommitted and [No_access] (unmapped-in-quarantine)
    pages are excluded. Pages are visited in ascending address order.
    The [bytes] are the live page frame, not a copy — callers must not
    mutate it. *)

type page = {
  base : int;  (** page base address *)
  bytes : Bytes.t;  (** live page frame (read-only; never copied) *)
  write_gen : int;  (** scan generation of the page's last content change *)
}
(** One readable page as the sweep reads it ([Parsweep.page] is this
    record). *)

val no_page : page
(** A placeholder to fill a page array with before storing pages into
    it. Given a young element, [Array.make] runs a minor collection
    before it builds an array longer than 256 words; this record is
    allocated once, so it is young only until the program's first minor
    collection. *)

val snapshot_readable_pages : t -> page array
(** Zero-copy snapshot of every committed readable page, in ascending
    base order: the page order of the marking phase. One ordered walk of
    the page table fills an array sized by the readable-page count;
    nothing is sorted, and the array is made without a forced minor
    collection. The [bytes] are the live page frames (no copies):
    callers must treat them as read-only and must not interleave stores,
    protection changes or unmaps with reads of the snapshot. *)

(** {1 Scan generations}

    Support for incremental sweeping: the address space carries a
    monotonically increasing {e scan generation}, and every page records
    the generation of its last content change ([store], [zero_range],
    decommit, (re-)commit, demand-commit, protection change, or fresh
    mapping). A per-page summary captured while generation [g] was
    current is still coherent at a later sweep iff the page's
    [write_gen < g]: nothing has touched the page at or after the
    capture. Generations never reset, so soft-dirty clearing (used by the
    stop-the-world re-scan) and summary validity are independent. *)

val generation : t -> int
(** The current scan generation. *)

val advance_generation : t -> int
(** Start a new scan generation (the beginning of an incremental sweep's
    marking phase) and return it. *)

val write_generation : t -> int -> int
(** [write_generation t addr] — generation of the page's last content
    change. The page must be mapped. *)

val iter_readable_pages_gen :
  t -> (int -> Bytes.t -> write_gen:int -> unit) -> unit
(** {!iter_readable_pages}, additionally passing each page's last-write
    generation so callers can decide between a cached summary and a
    rescan. Ascending address order. *)

val readable_bytes : t -> int
(** Total bytes {!iter_readable_pages} would visit (a counter, O(1)). *)

val clear_soft_dirty : t -> unit

val soft_dirty_pages : t -> int
(** Number of pages written since the last {!clear_soft_dirty}
    (readable or not — the raw kernel-style counter). *)

val iter_soft_dirty_pages : t -> (int -> Bytes.t -> unit) -> unit
(** [iter_soft_dirty_pages t f] calls [f page_base bytes] for every
    soft-dirty page that is still committed and readable, in ascending
    address order; [bytes] is the live page frame, as in
    {!iter_readable_pages}. Pages dirtied and then decommitted or
    protected [No_access] (e.g. unmapped-in-quarantine allocations) are
    skipped: a re-scan has nothing to read there, so counting them would
    overstate the stop-the-world pause. *)

val attach_obs : ?prefix:string -> t -> Obs.Registry.t -> unit
(** Register read-through metrics ([vmem.committed_bytes],
    [vmem.mapped_bytes], [vmem.readable_bytes], [vmem.scan_generation])
    in the registry, each name prepended with [prefix] (default [""]).
    Read-through means the gauges consult the live accounting at export
    time — commit and decommit round-trip the gauge back to its prior
    value with no extra bookkeeping on the hot paths. A namespaced
    [prefix] (e.g. ["ms."] for an instance, ["fleet.t3."] for a fleet
    tenant) lets several address spaces publish into one registry.
    Raises {!Obs.Registry.Duplicate} if the prefixed names are already
    claimed there. *)
