(** A GNU-malloc-style boundary-tag allocator with *in-band* metadata.

    Unlike the JeMalloc model (metadata out-of-band, in host structures),
    this allocator keeps chunk headers and free-list links inside the
    simulated memory itself, the way dlmalloc/ptmalloc do. That is the
    design the paper's Section 2 footnote warns about: a use-after-free
    write lands on free-list metadata, and the next unlink turns it into
    an arbitrary memory write (the classic unlink exploit).

    The module exists to demonstrate exactly that failure mode — and
    that MineSweeper layered on top (via {!Backend.S}) defuses it: the
    quarantine defers the free-list insertion until no dangling pointer
    remains, and zero-filling destroys any corrupted links.

    Chunk layout (sizes in bytes, all fields 8-byte words in simulated
    memory):

    {v
      [ size | A-bit ][ payload ... ]                  allocated
      [ size | 0     ][ fd ][ bk ][ ... ]              free, in a bin
    v} *)

type t

val create : ?extra_byte:bool -> Machine.t -> t
val malloc : t -> int -> int
val free : t -> int -> unit
val usable_size : t -> int -> int
val live_bytes : t -> int

val is_live : t -> int -> bool
(** Whether the address's in-band header parses as an allocated chunk
    (false for free chunks and for addresses outside the heap). *)

val wilderness : t -> int
val set_extent_hooks : t -> Extent.hooks -> unit
val purge_tick : t -> unit
val purge_all : t -> unit

val attach_obs : t -> Obs.Registry.t -> unit
(** Register [alloc.live_allocations] and [alloc.live_bytes] as
    read-through metrics. *)

val header_of : t -> int -> int
(** Address of the chunk header for a payload address (tests/attacks). *)

val bin_of_size : int -> int
(** Bin index used for a request size (tests). *)

val check_bin_integrity : t -> bool
(** Walk every free list verifying the doubly-linked invariants
    ([chunk.fd.bk == chunk]); [false] means metadata was corrupted. *)
