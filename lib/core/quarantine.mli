(** The quarantine: freed allocations awaiting proof of safety.

    Frees are buffered per-thread (to reduce lock contention, Section 1.1
    contribution (c)) and flushed to the global list, which feeds the
    sweep trigger. Entries that fail to free (a mark was found) are kept
    on a separate list so they can be excluded from the trigger
    arithmetic — the paper subtracts failed frees "from both sides" so
    that persistent dangling pointers cannot force a sweep on every
    [free()] (Section 3.2).

    A dedup table keyed by address makes double frees idempotent
    (Section 3): the second [free()] of a quarantined address is a no-op
    (reported in debug mode). *)

type entry = {
  addr : int;
  usable : int;  (** usable size, including the past-the-end byte *)
  mutable unmapped_len : int;
      (** bytes of fully covered pages whose backing was released *)
  mutable failures : int;  (** sweeps that found a mark on this entry *)
}

type t

val create : Alloc.Machine.t -> threads:int -> t

val threads : t -> int
(** Number of per-thread buffers the quarantine was created with. *)

val contains : t -> int -> bool
(** Whether the address is currently quarantined (dedup check). *)

val find : t -> int -> entry option

val push : t -> thread:int -> entry -> unit
(** Quarantine an entry through the thread's local buffer. The address
    must not already be quarantined. A [thread] outside
    [0, threads) aliases buffer 0 (as a hashed-tid cache would):
    correct but contention-prone — {!Sanitizer.Trace_lint}'s
    [free-thread-out-of-range] rule flags traces that do this. *)

val flush_thread : t -> thread:int -> unit
val flush_all : t -> unit

val flush_batch : t -> batch:int -> int
(** Flush every thread buffer to the global list taking the lock once
    per [batch] entries (clamped to at least 1) instead of once per
    entry: the cycle charge is
    [batches * quarantine_flush_lock
     + entries * quarantine_flush_batch_per_entry].
    The resulting fresh-list order, the emitted [Flushed] events and the
    byte accounting are identical to {!flush_all} — only the modeled
    lock cost changes. Returns the number of batches (0 when all
    buffers were empty). *)

val lock_in : t -> entry list
(** Take everything (fresh and previously failed, buffers included) as
    the working set of a starting sweep; subsequent pushes accumulate for
    the next sweep. *)

val requeue_failed : t -> entry -> unit
(** Put a locked-in entry back after its release was blocked. *)

val release : t -> entry -> unit
(** Forget a locked-in entry whose memory was recycled. *)

(** {1 Introspection for the sanitizer's cross-layer audit}

    Visit the entries behind each aggregate counter so the audit can
    recompute {!fresh_mapped_bytes} & co. independently. Read-only. *)

val iter_fresh : t -> (entry -> unit) -> unit
val iter_failed : t -> (entry -> unit) -> unit
val iter_buffered : t -> (entry -> unit) -> unit
(** Entries still sitting in thread-local buffers (not yet flushed, so
    not yet part of the fresh accounting). *)

(** {1 Synchronization-event observation}

    The race checker ({!Racecheck}) subscribes to the quarantine's
    protocol transitions: thread-local pushes (with the raw, pre-clamp
    thread id), buffer flushes, the lock-in barrier that opens a sweep,
    and the per-entry requeue/release outcomes that close it. At most
    one observer is active; emission is synchronous and in program
    order. An event is built only while an observer is attached: without
    one, a push, flush, lock-in or release allocates none. *)

type event =
  | Pushed of { thread : int; raw_thread : int; addr : int; usable : int }
      (** [thread] is the buffer actually written (after clamping),
          [raw_thread] the id the caller passed. *)
  | Flushed of { thread : int; entries : int }
  | Locked_in of { entries : (int * int) list }
      (** [(addr, usable)] of every entry taken by {!lock_in}. *)
  | Requeued of { addr : int }
  | Released of { addr : int }

val set_observer : t -> (event -> unit) -> unit
val clear_observer : t -> unit

val fresh_mapped_bytes : t -> int
(** Trigger numerator: quarantined bytes that are neither failed nor
    unmapped. *)

val failed_bytes : t -> int
val unmapped_bytes : t -> int
val total_bytes : t -> int
val entry_count : t -> int
