(** Static analysis over {!Workloads.Trace.t} programs.

    Walks the op array without executing it, a fold over the events of
    {!Workloads.Absheap} (live id records, which slot statically holds
    which pointer, how each location resolved) created with zeroing, as
    MineSweeper frees, and emits a {!Diagnostic.t} per violation. The
    heap forgets freed ids, so the lint keeps each freed id's last free
    op itself, for the rules that tell a freed id from one never
    allocated. The
    heap mirrors the semantics {!Workloads.Trace.run} gives every replay
    — the same index rule and skip rules — so a clean lint means the
    replay performs no silent no-ops beyond the guarded [Clear_ptr]
    cases, and [unclear-before-free] flags exactly the (free, id) pairs
    the analyzer's [flow-dangling] does.

    Rules (stable ids; E = error, W = warning):
    - [double-free] (E): [Free] of an id already freed.
    - [free-unallocated] (E): [Free] of an id never allocated.
    - [duplicate-alloc] (E): [Alloc] reusing an id seen before.
    - [store-after-free] (E): [Store_ptr]/[Store_data] through a [Field]
      of a freed holder — a use-after-free write. ([Clear_ptr] is exempt:
      it is defined as a guarded no-op and the replay skips it.)
    - [store-unallocated] (E): [Store_ptr]/[Store_data] through a [Field]
      of a never-allocated holder.
    - [dangling-target] (W): [Store_ptr] whose target is dead (freed or
      never allocated) at store time — the store manufactures a dangling
      pointer (and the replay skips it).
    - [unclear-before-free] (W): at [Free id], some live slot outside the
      dying object still holds a pointer to [id] — no [Clear_ptr] (or
      overwrite) intervened since the [Store_ptr]. This is precisely the
      dangling-pointer precondition of the paper's Section 3.2: the sweep
      will find the pointer and the free will fail until it is cleared.
    - [field-out-of-range] (W): a [Field] word index that is negative
      or at or beyond the holder's size (or a [Root] index outside the
      window) — the replay wraps it, so the op touches a different word
      than written; the message names the word it wraps to. *)

val rules : (string * string) list
(** [(rule id, one-line description)] for every rule, in a stable order. *)

val lint : Workloads.Trace.t -> Diagnostic.t list
(** All diagnostics, in op order. *)
