(** The allocator interface MineSweeper layers over.

    The quarantine is allocator-agnostic (Section 3): it only needs the
    public allocation entry points plus three integration hooks — a way
    to bound the heap (for cheap pointer filtering during sweeps), the
    extent hooks that let purged memory be protected out of sweeps, and
    explicit purge control for the post-sweep cleanup of Section 4.5.
    [Jemalloc], [Scudo] (the second backend the paper reports, Section 7)
    and [Dlmalloc] implement this signature directly. *)

module type S = sig
  type t

  val create : ?extra_byte:bool -> Machine.t -> t
  (** [extra_byte] enables the +1-byte modification that keeps C/C++
      one-past-the-end pointers inside the same allocation. *)

  val malloc : t -> int -> int
  val free : t -> int -> unit
  val usable_size : t -> int -> int

  val live_bytes : t -> int
  (** The heap-size measure quarantine thresholds compare against. *)

  val is_live : t -> int -> bool
  (** Whether [addr] is the base of an allocation the application
      currently owns — handed out by [malloc] and not yet returned.
      MineSweeper consults it to classify a free of a never-allocated
      pointer ([Unknown_pointer]) apart from a quarantined double free. *)

  val wilderness : t -> int
  (** Upper bound of the heap: sweeps reject word values above it. *)

  val set_extent_hooks : t -> Extent.hooks -> unit
  val purge_tick : t -> unit
  val purge_all : t -> unit

  val attach_obs : t -> Obs.Registry.t -> unit
  (** Register the allocator's accounting in a metrics registry as
      read-through [alloc.*] metrics ([alloc.live_bytes] at least).
      Raises {!Obs.Registry.Duplicate} if the names are already
      claimed. *)
end
