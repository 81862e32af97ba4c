(** Cross-layer invariant audit over a live MineSweeper stack.

    Recomputes, from first principles and the raw structures, the
    aggregate accounting every layer publishes — and checks the
    structural invariants the sweep's correctness rests on. One
    {!Diagnostic.t} (severity [Error], [op_index = -1]) per violated
    invariant:

    - [inv-extent]: retained-extent map — page alignment, containment in
      [heap_base, wilderness), non-overlap in address order, and the
      retained/dirty byte counters vs the sum over ranges; plus
      address-space conservation (used + retained = wilderness − base).
    - [inv-bin]: size-class accounting — per-slab [used + free = slots],
      free-slot uniqueness and range, thread-cache counts, and the
      allocator's [live_bytes] vs a recount over slabs, caches and large
      allocations.
    - [inv-vmem]: purged retained extents must be decommitted and
      protected [No_access] (the Section 4.5 hook integration), and live
      slab/large bases must be mapped.
    - [inv-quarantine]: {!Minesweeper.Quarantine.fresh_mapped_bytes},
      [failed_bytes] and [unmapped_bytes] vs the sums over the actual
      entry lists; per-entry sanity (usable > 0, unmapped ≤ usable, in
      heap, present in the dedup table, still live in the backend).
    - [inv-unmapped]: every page recorded as unmapped-in-quarantine is
      decommitted and [No_access]; when no sweep is in flight, the page
      total matches the quarantine's unmapped byte count.
    - [inv-shadow]: every shadow mark lies in the heap below the
      wilderness, the granule matches the configuration, and the mark
      count agrees with a recount.
    - [inv-summary] (incremental sweep mode only): the mark set an
      incremental rebuild would produce right now — cached per-page
      pointer summaries replayed for clean pages, dirty pages rescanned —
      equals a from-scratch full mark of all readable memory, granule for
      granule. A miss in either direction means a summary-invalidation
      rule (store, zero, decommit, protection change, remap) was
      violated. *)

val audit : Minesweeper.Instance.t -> Diagnostic.t list
(** Run every check; empty list = all invariants hold. An attached
    {!Sweep_oracle} runs it after every completed sweep — the debug-mode
    backstop for perf work on the sweep path. *)
