(** Shared machinery for the compiler-instrumented pointer-tracking
    schemes (CRCount, pSweeper, DangSan — Sections 6.4/6.6).

    These schemes do not scan memory: the compiler instruments every
    pointer-typed store, so at runtime they know exactly which slots
    hold which pointers. The registry maintains that knowledge:
    slot → target-allocation mappings, the reverse index (who points at
    a given allocation), and the per-holder index needed to drop records
    when the memory containing a slot is itself freed.

    The price of exactness is coverage: integer writes that merely alias
    an address are invisible (no instrumentation fired), which is the
    structural difference from MineSweeper's conservative sweep. *)

type t

val create : Alloc.Jemalloc.t -> t
(** Registry over a jemalloc heap: values resolve through
    [Jemalloc.allocation_containing]. *)

val create_with : resolve:(int -> (int * int) option) -> t
(** Registry over any heap: [resolve value] returns [(base, usable)] of
    the allocation containing [value], or [None]. Lets the same
    ground-truth machinery audit non-jemalloc backends (the pooled
    allocator's differential oracle). *)

val record_write : t -> slot:int -> value:int -> unit
(** The instrumented store: replaces any previous record for [slot];
    records nothing when [value] does not resolve to a live heap
    allocation. *)

val target_of : t -> slot:int -> int option
(** Allocation base currently recorded for this slot. *)

val in_pointer_count : t -> base:int -> int

val drop_slots_in : t -> base:int -> usable:int -> (slot:int -> target:int -> unit) -> unit
(** The memory holding these slots is being freed: remove every record
    whose slot lies in [base, base+usable) and report each removal. *)

val forget_slot : t -> slot:int -> unit

val tracked_slots : t -> int
val metadata_bytes : t -> int
(** Resident cost of the tracking structures. *)

val iter_slots : t -> (slot:int -> target:int -> unit) -> unit
