(** Open-loop arrival processes for the server workload family.

    A generator emits a strictly increasing sequence of absolute cycle
    timestamps at which requests enter the system. The sequence is a pure
    function of the process parameters and the RNG seed: it never
    observes service completions, which is what makes the load
    {e open-loop} — when the allocator stalls, arrivals keep coming and
    queueing delay accumulates instead of being absorbed by a
    slowed-down client (the closed-loop fallacy).

    Rates are in arrivals per million cycles (aMc). Degenerate
    parameters are clamped, never raised on: a non-positive or NaN rate
    generates no arrivals ({!next} returns [None]), dwell times and
    periods are clamped to [>= 1], diurnal depth to [\[0, 1\]], and the
    spike multiplier to [>= 0]. Inter-arrival gaps are floored at one
    cycle and capped at 1e15 cycles, so the float->int conversion is
    always defined and timestamps are strictly monotone. *)

type process =
  | Poisson of { rate : float }
      (** Memoryless arrivals at a constant rate — the steady profile. *)
  | Mmpp of { rate_lo : float; rate_hi : float; dwell_lo : int; dwell_hi : int }
      (** Markov-modulated Poisson process: alternates between a quiet
          phase ([rate_lo] for [dwell_lo] cycles) and a burst phase
          ([rate_hi] for [dwell_hi] cycles). Draws crossing a phase
          boundary restart from the boundary (memoryless). *)
  | Diurnal of { rate : float; period : int; depth : float }
      (** Sinusoidally modulated Poisson process via Lewis-Shedler
          thinning: instantaneous rate
          [rate * (1 + depth * sin (2 pi t / period))]. *)
  | Spike of { rate : float; spike_at : int; spike_len : int; spike_mult : float }
      (** Piecewise-constant rate: [rate] outside
          [\[spike_at, spike_at + spike_len)], [rate * spike_mult]
          inside — a flash crowd. *)

type t
(** A generator: process + RNG + cursor. *)

val make : process -> Rng.t -> t
(** [make process rng] positions the generator at cycle 0. The generator
    owns [rng] from here on. *)

val next : t -> int option
(** Next absolute arrival timestamp, strictly greater than the previous
    one. [None] once the process can produce no further arrivals (zero
    rate, a zero-rate tail segment, or an MMPP in which no phase with a
    positive rate lasts at least 2 cycles). *)

val take : t -> int -> int array
(** [take t n] collects up to [n] arrivals ([< n] only if the process
    runs dry). *)

val mean_rate : process -> float
(** Long-run average rate in aMc, for sizing runs a priori. *)

val peak_rate : process -> float
(** Largest instantaneous rate the process can reach, in aMc. *)

val describe : process -> string
(** One-line human-readable description, used by [msweep serve]. *)
