(** Cycle-cost model for the simulated machine.

    The paper reports relative overheads (slowdown, CPU utilisation) on an
    Intel i7-7700. We reproduce relative behaviour with a deterministic
    cost model: every action in the simulated system charges a number of
    cycles to the thread performing it. The constants below were
    calibrated against the primitive micro-benchmarks (msbench's
    [micro.*] metrics) and the
    per-benchmark figures of the paper; they are grouped in a record so
    ablation experiments can perturb them. *)

type t = {
  malloc_fast : int;  (** tcache hit on the malloc fast path *)
  malloc_slow : int;  (** slab refill / extent allocation path *)
  free_fast : int;  (** tcache push on the free fast path *)
  free_slow : int;  (** slab bookkeeping on tcache flush *)
  quarantine_push : int;  (** append to a thread-local quarantine buffer *)
  quarantine_flush_per_entry : int;  (** move one entry to the global list *)
  quarantine_flush_lock : int;
      (** acquire/release of the global quarantine lock, paid once per
          batched flush ([Quarantine.flush_batch]) instead of per entry *)
  quarantine_flush_batch_per_entry : int;
      (** per-entry cost under the batched flush: a splice into the
          global list with the lock already held *)
  merge_per_page : int;
      (** merge of one scanned page's hit list into the shadow map
          (the pipeline's Merge stage) *)
  zero_per_byte : float;  (** zero-filling a freed allocation *)
  sweep_per_byte : float;  (** linear streaming sweep (marking phase) *)
  mark_single_per_byte : float;
      (** single marker-thread streaming throughput (~4 B/cycle): the
          per-domain cost the parallel marking projection charges before
          the aggregate hits the DRAM-bandwidth wall *)
  mark_per_byte : float;  (** transitive (pointer-chasing) marking, MarkUs *)
  shadow_test_per_granule : float;  (** checking shadow bits on release *)
  release_per_entry : int;  (** quarantine-list walk per entry *)
  syscall : int;  (** mprotect / madvise / mmap round trip *)
  page_fault : int;  (** demand-commit minor fault *)
  touch_per_byte : float;  (** application writing freshly served memory *)
  cold_alloc_per_byte : float;  (** extra cache misses when reuse is delayed *)
  work_unit : int;  (** one unit of application compute work *)
  stw_signal : int;  (** stopping / restarting the world, fixed part *)
  stw_per_thread : int;  (** per-thread signalling cost *)
}

val default : t
(** The calibrated model used by all headline experiments. *)

val scale_sweep : float -> t -> t
(** Multiply the sweep cost, for sensitivity studies. *)

val bytes_cost : float -> int -> int
(** [bytes_cost per_byte n] is the rounded cycle cost of an [n]-byte
    streaming operation (at least 1 cycle when [n > 0]). *)
