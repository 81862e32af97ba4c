(** A Scudo-model hardened allocator (LLVM's hardened allocator), the
    second backend the paper integrates MineSweeper with (Section 7).

    Differences from the JeMalloc model that matter here:
    - every allocation carries an inline 16-byte header whose checksum is
      computed on [malloc] and verified on [free] (a flat cycle
      surcharge and a size overhead);
    - freed slots pass through a small randomised pool before returning
      to the underlying heap, so reuse order is unpredictable — Scudo's
      probabilistic use-after-free hardening. The {!Attack} spray
      becomes unreliable against plain Scudo but is still possible;
      MineSweeper on top makes it deterministic-impossible. *)

type t

val create : ?extra_byte:bool -> Machine.t -> t
val malloc : t -> int -> int
val free : t -> int -> unit
val usable_size : t -> int -> int
val live_bytes : t -> int

val is_live : t -> int -> bool
(** Live from the application's perspective: allocated and neither freed
    to the randomisation pool nor to the underlying heap. *)

val wilderness : t -> int
val set_extent_hooks : t -> Extent.hooks -> unit
val purge_tick : t -> unit
val purge_all : t -> unit

val pool_size : t -> int
(** Slots currently held in the randomisation pool (tests). *)

val attach_obs : t -> Obs.Registry.t -> unit
(** The underlying heap's [alloc.*] metrics ({!Jemalloc.attach_obs}):
    pooled slots still count as live there. *)
