(** Random-variate distributions used by the workload generators.

    A distribution is a value of type {!t}; sampling always goes through a
    {!Rng.t} so results stay deterministic.

    {2 Degenerate-parameter semantics}

    The arrival processes ({!Arrival}) build distributions from
    user-tunable rates, so out-of-range numeric parameters are clamped
    rather than rejected, with the semantics documented per constructor
    below. Two invariants hold for every constructor:

    - parameters that were already in range produce bit-identical sample
      streams (CI compares metric exports byte-for-byte);
    - [sample] never divides by zero, never evaluates [log 0.], and never
      converts an out-of-range float to int (which is unspecified in
      OCaml) — unbounded variates are clamped to [max_int] first. *)

type t

val constant : int -> t
(** Always returns the same value. *)

val uniform : lo:int -> hi:int -> t
(** Uniform over the inclusive range [\[lo, hi\]]. Reversed bounds are
    swapped: [uniform ~lo:9 ~hi:3] means [uniform ~lo:3 ~hi:9]. *)

val exponential : mean:float -> t
(** Exponential with the given mean, rounded to int, minimum 1.
    Sampling draws u in (0, 1] — u = 0 cannot reach [log] — and a
    non-positive or NaN [mean] degenerates to the constant minimum 1.
    Astronomically large means saturate at [max_int] instead of
    overflowing the float->int conversion. *)

val pareto : shape:float -> scale:int -> cap:int -> t
(** Bounded Pareto: heavy-tailed sizes/lifetimes, truncated at [cap].
    [scale] is clamped to [>= 1] and [cap] to [>= scale]; a non-positive
    or NaN [shape] (arbitrarily heavy tail) puts all mass on [cap].
    Overflowing variates (tiny u at small shape) also land on [cap]. *)

val choice : (float * t) list -> t
(** Mixture distribution: pick a branch with the given weights (weights
    need not sum to one; they are normalised). Negative or NaN weights
    are clamped to 0; if the total weight is 0 the last branch is always
    picked (the RNG is still advanced, keeping streams aligned).
    An empty list raises [Invalid_argument]. *)

val shifted : int -> t -> t
(** [shifted k d] samples [d] and adds [k]. *)

val sample : t -> Rng.t -> int
(** Draw one variate. Results are always [>= 0] for the built-in
    constructors with non-negative parameters. A draw allocates
    nothing. *)

val mean_estimate : t -> float
(** Analytic or approximate mean, used for sizing simulations a priori.
    Respects the minimum-1 floor of {!exponential}. *)
