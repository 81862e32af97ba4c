(** A JeMalloc-model allocator over the simulated address space.

    Size-classed slabs with a thread cache for small requests, whole-page
    extents for large ones, retained-extent reuse and decay purging. The
    structural properties MineSweeper depends on are reproduced:
    metadata lives out-of-band (in OCaml values, not in the simulated
    memory), freed memory is recycled by address-ordered extent reuse,
    and the extent life-cycle is steerable through {!Extent.hooks}.

    The [extra_byte] option implements the paper's modified JeMalloc that
    serves every request one byte larger, so C/C++ one-past-the-end
    pointers land inside the same allocation's shadow range. *)

type t

val create : ?extra_byte:bool -> Machine.t -> t

val malloc : t -> int -> int
(** [malloc t size] returns the address of a zero-filled allocation of at
    least [size] bytes (plus the extra byte when enabled). *)

val free : t -> int -> unit
(** Return an allocation. The address must be one returned by {!malloc}
    and still live; anything else is a simulation bug and asserts. *)

val usable_size : t -> int -> int
(** Usable bytes backing the allocation at this address. *)

val is_live : t -> int -> bool
(** Whether the address is a currently live allocation (used by tests and
    by the exploit checker; not part of the C API). *)

val allocation_containing : t -> int -> (int * int) option
(** [allocation_containing t addr] resolves an interior pointer to the
    [(base, usable)] of the slab slot or large extent containing it —
    what a conservative collector needs to mark whole allocations. The
    slot need not be live (conservative marking does not know). *)

val live_bytes : t -> int
(** Sum of usable sizes over live allocations — the heap-size measure the
    quarantine threshold compares against. *)

val live_allocations : t -> int

val extent : t -> Extent.t
(** The underlying extent allocator (sanitizer audits only). *)

val extra_byte : t -> bool
(** Whether the +1-byte modification is active on this instance. *)

(** {1 Introspection for the sanitizer's cross-layer audit}

    These expose the internal accounting so {!Sanitizer.Invariants} can
    recompute it independently; they are not part of the allocator API. *)

val iter_slabs :
  t ->
  (base:int -> cls:int -> slots:int -> used:int -> free_slots:int list -> unit) ->
  unit
(** Visit every live slab once. [used] counts slots handed out (slots
    parked in the thread cache included); [free_slots] are the free slot
    indices. *)

val iter_large : t -> (base:int -> pages:int -> unit) -> unit
(** Visit every live large allocation. *)

val tcache_count : t -> int -> int
(** [tcache_count t cls] — entries cached for the size class. *)

val tcache_items : t -> int -> int list
(** The cached addresses themselves. *)

val set_extent_hooks : t -> Extent.hooks -> unit
val purge_tick : t -> unit
val purge_all : t -> unit

val retained_dirty_bytes : t -> int
val machine : t -> Machine.t

val wilderness : t -> int
(** Heap break of the underlying extent allocator: every heap pointer is
    below this, so sweeps can cheaply reject non-heap word values. *)

type stats = {
  mallocs : int;
  frees : int;
  live : int;
  live_bytes : int;
  slab_count : int;
  large_count : int;
}

val stats : t -> stats

val attach_obs : t -> Obs.Registry.t -> unit
(** Register the allocator's accounting as read-through metrics
    ([alloc.mallocs], [alloc.frees], [alloc.live_allocations],
    [alloc.live_bytes], [alloc.retained_dirty_bytes]). Raises
    {!Obs.Registry.Duplicate} if the names are already claimed. *)

(** {1 Allocation life-cycle observation}

    The race checker ({!Racecheck}) subscribes to serve/recycle events
    to detect quarantined memory re-entering circulation: a [Served]
    whose address the quarantine still holds means the interposition
    layer was bypassed. [from_tcache]/[to_tcache] distinguish the
    thread-cache fast path from extent traffic. At most one observer is
    active; emission is synchronous. *)

type event =
  | Served of { addr : int; usable : int; from_tcache : bool }
  | Recycled of { addr : int; to_tcache : bool }

val set_observer : t -> (event -> unit) -> unit
val clear_observer : t -> unit
