(** The shadow map: one mark bit per 16-byte granule of heap address
    space (Section 3.2).

    During the marking phase of a sweep, every word of program memory is
    interpreted as a pointer and the granule it targets is marked. The
    release phase then checks, for each quarantined allocation, whether
    any granule in its range carries a mark — if none does, no dangling
    pointer to it exists and it can be recycled.

    The map is sparse: one bitmap of [ceil (4096 / granule / 8)] bytes
    per heap page that holds a mark, kept in a {!Page_table} so a lookup
    is two array loads. At the default granule that is 32 bytes of
    shadow per 4 KiB page, i.e. less than 1 % overhead as in the paper.

    Each bitmap carries the epoch it was last marked in. {!clear} starts
    a new epoch: every bitmap goes stale at once, in O(1) and without
    allocating, and the first mark on a page in the new epoch zeroes and
    restamps its bitmap. Only bitmaps of the current epoch count as
    marked, in every query and in {!shadow_bytes}. *)

type t

val create : ?granule:int -> unit -> t
(** [granule] (default 16, the smallest allocation granule) sets the
    bytes covered per mark bit. A coarser shadow is smaller but aliases
    adjacent allocations, causing spurious failed frees — the trade-off
    Section 3.2 notes and the [ablation-granule] bench measures. *)

val granule : t -> int

val clear : t -> unit
(** Reset all marks (start of a sweep's marking phase): O(1), allocates
    nothing. *)

val mark : t -> int -> unit
(** [mark t p] marks the granule containing address [p]. [p] must lie in
    the heap region. *)

val is_marked : t -> int -> bool
(** Whether the granule containing the address carries a mark. *)

val range_marked : t -> addr:int -> len:int -> bool
(** [range_marked t ~addr ~len] — is any granule intersecting
    [addr, addr+len) marked? This is the release-phase test; [len] must
    cover the allocation's full usable size (which already includes the
    extra byte for past-the-end pointers). Each page the range touches
    is looked up once, and its granules are tested a bitmap byte at a
    time. *)

val iter_marked : t -> (int -> unit) -> unit
(** Visit the start address of every marked granule, in ascending
    address order (audit support). *)

val marked_granules : t -> int
(** Total marks, for stats/tests. *)

val shadow_bytes : t -> int
(** Memory the shadow map accounts for: the pages marked since the last
    {!clear}, times [ceil (4096 / granule / 8)] bytes each (at least one
    byte per page at granules of 1 KiB and more). Stale bitmaps the host
    keeps for reuse are not counted. *)
