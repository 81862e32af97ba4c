(** MarkUs baseline (Ainsworth & Jones, S&P 2020), reimplemented on the
    simulated substrate for head-to-head comparison.

    MarkUs quarantines programmer frees like MineSweeper, but decides
    safety with a *transitive* conservative marking pass in the style of
    the Boehm collector: starting from the roots (stack and globals), it
    chases pointers through reachable objects and keeps any reachable
    quarantined allocation. MineSweeper's thesis is that the transitive
    traversal (pointer-chasing, cache-hostile) is the expensive part and
    a flat linear sweep plus zeroing achieves the same protection more
    cheaply — this module is the other side of that comparison.

    Differences from MineSweeper reproduced here:
    - 25 % quarantine/heap sweep threshold (vs 15 %);
    - no zero-filling of freed data (reachability handles cycles);
    - transitive mark cost per visited byte, not linear sweep cost;
    - mostly-concurrent marking with a stop-the-world re-scan;
    - a slower, GC-oriented allocator (flat per-operation surcharge
      standing in for Boehm's allocation path);
    - page unmapping of large quarantined allocations (shared trait). *)

type t

val create : Alloc.Machine.t -> t

val malloc : t -> int -> int
val free : t -> int -> unit
val tick : t -> unit
val drain : t -> unit

val is_quarantined : t -> int -> bool
val jemalloc : t -> Alloc.Jemalloc.t

val sweeps : t -> int
val failed_frees : t -> int
val quarantine_bytes : t -> int
val marked_visited_bytes : t -> int
(** Bytes traversed by marking across the whole run (cost driver). *)
