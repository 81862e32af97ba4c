(** A MineSweeper instance: the drop-in layer between the application and
    the allocator (Figure 3).

    [malloc]/[free] replace the allocator's entry points. Frees are
    intercepted and quarantined; periodic linear sweeps of all program
    memory mark the targets of potential pointers in a shadow map, and
    quarantined allocations without marks are recycled through the real
    allocator. See {!Config} for the operation modes.

    The layer is allocator-agnostic: {!Make} builds it over any
    {!Alloc.Backend.S} (the paper reports both JeMalloc and Scudo
    integrations). The default instance included at the top level runs
    over the JeMalloc model.

    The instance is driven by simulated time: sweeps scheduled on the
    background sweeper threads complete when the application's clock
    reaches their completion time. Callers should invoke [tick]
    periodically (every [malloc]/[free] does so implicitly). *)

module type S = Instance_intf.S

type error = Instance_intf.error =
  | Unknown_pointer of int
  | Double_free of int
  | Size_overflow
      (** Outcomes of the typed deallocation API ([free_result],
          [realloc_result], [calloc_result]); see {!Instance_intf.error}. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type sweep_event = Instance_intf.sweep_event =
  | Sweep_locked of { sweep : int; entries : int }
  | Stage_boundary of { sweep : int; stage : Pipeline.stage; enter : bool }
  | Mark_completed of { sweep : int; scanned_bytes : int }
  | Stw_fence of { sweep : int }
  | Sweep_completed of { sweep : int }
      (** Synchronization events of the sweep protocol, consumed by the
          race checker via [set_sync_observer]; see
          {!Instance_intf.sweep_event}. *)

module Make (B : Alloc.Backend.S) : S with type backend = B.t

include S with type backend = Alloc.Jemalloc.t

val jemalloc : t -> Alloc.Jemalloc.t
(** Alias of {!backend} for the default JeMalloc instantiation. *)
