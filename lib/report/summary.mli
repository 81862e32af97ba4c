(** Small statistics helpers shared by the benchmark reports. *)

val geomean : float list -> float
(** Geometric mean; the paper's headline aggregations. Empty list = 1. *)

val mean : float list -> float

val worst : float list -> float
(** Maximum (worst-case overhead). 1.0 on empty input. *)

val percent_overhead : float -> float
(** [percent_overhead 1.054] is [5.4]. *)
