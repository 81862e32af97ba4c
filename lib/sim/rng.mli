(** Deterministic pseudo-random number generation for the simulator.

    All randomness in the reproduction flows through this SplitMix64
    generator so that every experiment is exactly reproducible from its
    seed.

    The 64-bit state is kept unboxed, so {!next}, {!int}, {!word},
    {!bits53} and {!bool} allocate nothing (the program generators draw
    a dozen values a step). The stream is SplitMix64's and must not
    move: every pinned trace, program and figure is drawn from it, and
    [test sim.rng] holds the first values of every kind of draw for
    three seeds. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created from
    the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each benchmark / thread its own stream. *)

val split_seed : seed:int -> index:int -> int
(** [split_seed ~seed ~index] deterministically derives the [index]-th
    child seed of a top-level [seed] without mutating any generator.
    Distinct indices yield statistically independent streams; repeat [i]
    of an experiment uses [split_seed ~seed ~index:i] so that
    median-of-N estimates are not biased by correlated replicas while
    the whole family stays reproducible from the one top-level seed. *)

val next : t -> int
(** [next t] returns a uniformly distributed non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in [\[0, bound)]. [bound] must
    be positive. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [\[0, bound)]: [bound *.
    (float_of_int (bits53 t) /. 2{^53})]. *)

val bits53 : t -> int
(** [bits53 t] is the uniform 53-bit integer a {!float} draw scales.
    For callers in other modules that build the float themselves: a
    float returned from a call is boxed, an [int] is not. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val word : t -> int
(** [word t] returns a full 63-bit pattern (may be "negative" when viewed
    as an OCaml int); used to synthesise arbitrary non-pointer data. *)
