(** Shared simulation context: memory + clock + cost model.

    Every component charges cycles through the machine; the [sink]
    selects which thread pays. The application thread pays [`App] costs
    as wall time, sweeper threads pay [`Background] costs that overlap
    the application, and [`Stall] charges wall time without busy time
    (stop-the-world pauses, allocation pauses). *)

type sink =
  | App
  | Background
  | Stall

type t = {
  mem : Vmem.t;
  cost : Sim.Cost.t;
  clock : Sim.Clock.t;
  mutable sink : sink;
}

val create : unit -> t
(** Builds the machine over the default cost model ({!Sim.Cost.default})
    and installs a demand-commit hook that charges page-fault costs to
    the current sink. *)

val map_roots : t -> unit
(** Map the root regions ({!Layout.root_regions}: globals and stack), as
    a program's would be. Regions already mapped are left as they are. *)

val charge : t -> int -> unit

val charge_bytes : t -> float -> int -> unit
(** [charge_bytes t per_byte n] charges a streaming cost. *)

val with_sink : t -> sink -> (unit -> 'a) -> 'a
(** Run a closure with a temporarily switched sink.

    Nesting- and exception-safe: the previous sink (whatever it was,
    including one set by an enclosing [with_sink]) is restored both on
    normal return and when the closure raises, so nested switches unwind
    in LIFO order. The sink is {e per-machine} mutable state: when
    closures over two machines interleave — the fleet scheduler runs one
    tenant's reclaim inside another tenant's scheduling quantum, each
    tenant owning its own machine — the save/restore pairs are
    independent, and an exception unwinding through both leaves each
    machine at its own pre-entry sink. *)

val now : t -> int
(** Wall-clock position in cycles. *)
