(** Static allocation-site pooling analysis, stage one.

    A single pass over a trace stream that folds the dangling-exposure
    answers of {!Workloads.Absheap} (created without zeroing) onto the
    trace's static allocation sites.
    For every site it computes the demand curve — per-size-class peak
    and total slot counts, in the pooled allocator's own rounding — and
    a three-level exposure summary:

    - {e pointer-exposed}: some object of the site was freed while an
      instrumented pointer to it survived outside the object. Recycling
      such a slot can re-materialise an object under a live dangling
      pointer, so any pool containing the site must retire its memory.
    - {e alias-exposed}: only un-instrumented data words aliasing the
      object survived. Same-site reuse is still type-compatible, so the
      site may recycle — but only in a pool of its own.
    - {e wild-exposed}: a heap-range data word was live somewhere at the
      free; it may alias the object. Treated exactly like an alias.

    Exposure is deliberately conservative: the pooled backend never
    zeroes on free, so edges held inside freed-but-not-yet-reused
    holders persist; the lattice never drops them. Static exposure thus
    over-approximates every state the differential oracle can observe.

    The result is a pure function of the op sequence — identical across
    chunk sizes, runs, and domain counts. {!Poolplan.build} turns it
    into a pool partition. *)

(** Demand unit: one slot of a small size class, or one large page run. *)
type class_key =
  | Small of int  (** size-class index *)
  | Large of int  (** page count *)

val class_key_compare : class_key -> class_key -> int

val class_key_of_size : int -> class_key
(** The class the pooled backend (without the attack extra byte) serves
    a request of [size] from. *)

val usable_of_key : class_key -> int
(** Usable bytes of one slot of the class. *)

type summary = {
  site : int;
  allocs : int;
  frees : int;
  peak_live_bytes : int;  (** peak concurrent usable bytes, pooled rounding *)
  total_freed_bytes : int;  (** usable bytes ever freed *)
  ptr_exposed : bool;
  alias_exposed : bool;
  wild_exposed : bool;
  exposed_frees : int;  (** frees with any surviving outside edge *)
  demand : (class_key * (int * int)) list;
      (** per class: (peak concurrent slots, total slots ever), sorted
          by {!class_key_compare} *)
}

type t = {
  trace_name : string;
  sites : int;  (** declared site count (>= 1) *)
  ops : int;
  allocs : int;
  frees : int;
  out_of_range : int;  (** allocs whose site id was clamped to 0 *)
  summaries : summary array;  (** length [sites], indexed by site *)
}

val analyze : Workloads.Trace.stream -> t
(** One pass; consumes the stream. *)

val analyze_trace : Workloads.Trace.t -> t
