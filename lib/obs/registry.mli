(** Typed metrics registry: the one place every layer of the stack
    publishes its accounting through.

    A registry holds named metrics of four kinds:

    - {e counters} — monotonically increasing integers (events, bytes);
    - {e gauges} — instantaneous levels (cache footprints, peaks);
    - {e histograms} — distributions over fixed log2 buckets;
    - {e derived} metrics — read-through callbacks onto state another
      module already maintains (resident bytes, live allocations), so
      existing accounting can join the registry without duplicating it.

    Metric names are unique per registry ({!Duplicate} otherwise) and
    conventionally dot-separated with a layer prefix: [ms.sweeps],
    [vmem.committed_bytes], [alloc.mallocs]. All values are plain
    integers — the export layer never has to format a float, which is
    what keeps metric exports byte-identical across identical runs. *)

type counter
type gauge
type histogram

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Derived_counter of (unit -> int)
  | Derived_gauge of (unit -> int)

type t

exception Duplicate of string
(** Raised when registering a name the registry already holds. *)

exception Kind_mismatch of string
(** Raised by {!merge_into} when a source metric collides with an
    existing destination metric of a different kind (or with a derived
    metric, which has no cell to merge into); carries the destination
    name. *)

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val derive_counter : t -> string -> (unit -> int) -> unit
(** Register a read-through counter: the callback is consulted at
    read/export time. Not affected by {!reset}. *)

val derive_gauge : t -> string -> (unit -> int) -> unit

val metrics : t -> (string * metric) list
(** All registered metrics, sorted by name (the deterministic export
    order). *)

val names : t -> string list
val mem : t -> string -> bool
val find : t -> string -> metric option

val read : t -> string -> int option
(** Current scalar value: counter/gauge value, a histogram's observation
    count, or the callback's result for derived metrics. *)

val snapshot : t -> (string * int) list
(** Every metric's {!read} value, sorted by name. *)

val reset : t -> unit
(** Zero every stored counter, gauge and histogram. Derived metrics
    read through to live state and are unaffected. *)

val merge_into : ?prefix:string -> t -> into:t -> unit
(** [merge_into ~prefix src ~into] folds every metric of [src] into
    [into] under the name [prefix ^ name] (default prefix [""]) — the
    fleet aggregator's building block. Merging is {e additive union}:

    - counters (and sampled derived counters) add their value into a
      plain counter, created if absent;
    - gauges (and sampled derived gauges) add into a plain gauge —
      levels sum across processes; note a high-watermark gauge's sum
      over-approximates the true union watermark;
    - histograms add {e bucket-wise}, including observation count and
      sum, so quantiles over the merged histogram are exact at bucket
      granularity.

    Derived metrics are sampled once at merge time and materialise as
    plain cells in [into]; [src] is never mutated. Name collisions with
    a same-kind destination metric aggregate as above (merging several
    sources under one prefix is how cross-tenant quantiles are built);
    collisions with a different kind — or with any derived destination —
    raise {!Kind_mismatch}. Source metrics are processed in sorted name
    order, so the result is deterministic. *)

module Counter : sig
  val incr : counter -> int -> unit
  (** [incr c n] adds [n] (≥ 0) to the counter. *)

  val reset : counter -> unit
  val value : counter -> int
  val name : counter -> string
end

module Gauge : sig
  val set : gauge -> int -> unit

  val set_max : gauge -> int -> unit
  (** Keep the maximum of the current level and the new sample —
      high-watermark gauges (peak quarantine, peak RSS). *)

  val value : gauge -> int
  val name : gauge -> string
end

module Histogram : sig
  val bucket_count : int
  (** Number of fixed log2 buckets (63: every non-negative OCaml [int]
      maps to one). *)

  val bucket_of : int -> int
  (** [bucket_of v] — the bucket index for an observation: 0 for
      [v <= 1], otherwise [floor (log2 v)]. Bucket [i] therefore counts
      observations in [[2^i, 2^(i+1))]. *)

  val lower_bound : int -> int
  (** Smallest observation value the bucket covers (0 for bucket 0). *)

  val upper_bound : int -> int
  (** Exclusive upper edge of the bucket: 2 for bucket 0, [2^(i+1)]
      otherwise; the open-ended last bucket reports [max_int]. *)

  val observe : histogram -> int -> unit
  (** Record one observation. Negative values clamp to 0. *)

  val count : histogram -> int
  val sum : histogram -> int

  val buckets : histogram -> (int * int) list
  (** Non-empty buckets as [(lower_bound, count)] pairs, ascending. *)

  val quantile : histogram -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.], clamped)
      with {e within-bucket linear interpolation}: the target rank
      [q * count] is located in its bucket and interpolated between the
      bucket's edges assuming observations are uniform inside it. This
      replaces the raw-upper-bound readout, which overstated tails by up
      to 2x: the error is now bounded by the bucket width, i.e. a
      worst-case relative error of [(hi-lo)/lo] (< 100% for buckets
      >= 1, typically far smaller — see DESIGN §8 for the derivation).
      [q <= 0] reads the first non-empty bucket's lower edge; [q >= 1]
      the last non-empty bucket's upper edge (the open-ended last bucket
      interpolates against a synthetic [2*lower_bound] edge). Empty
      histograms read 0. *)

  val name : histogram -> string
end
