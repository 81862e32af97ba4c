(** Site-keyed pooled allocator: UAF prevention by static segregation.

    The SeMalloc/CAMP-style comparison point to MineSweeper's dynamic
    quarantine: allocations are segregated into pools keyed by their
    static allocation site, following a {!plan} computed by the
    flowcheck siteflow analysis. A pool either recycles freed slots
    among its own sites or retires them forever; address space is drawn
    from the shared {!Extent} allocator but never returned to it, so no
    freed range can ever be re-issued to a different pool. With a sound
    plan, no freed object can re-materialise under a live dangling
    pointer — no quarantine, no sweeps, fragmentation instead of scan
    cost. *)

type plan = {
  sites : int;  (** allocation sites the plan covers (>= 1) *)
  pools : int;  (** pools the sites are partitioned into (>= 1) *)
  pool_of_site : int array;  (** length [sites]; values in [0, pools) *)
  recycles : bool array;
      (** length [pools]; [false] means the pool retires every free —
          the analysis found a live dangling alias that could otherwise
          be re-materialised *)
}

val identity_plan : sites:int -> plan
(** One pool per site, all recycling — the plan-free fallback used when
    no analysis has run (maximum segregation, no retirement). *)

val validate_plan : plan -> unit
(** @raise Invalid_argument if lengths or pool ids are inconsistent. *)

type t

val create : ?extra_byte:bool -> ?plan:plan -> Machine.t -> t
(** Default plan is [identity_plan ~sites:1] (one recycling pool). *)

val malloc_site : t -> site:int -> int -> int
(** Allocate from the pool owning [site]. Site ids outside
    [0, plan.sites) alias site 0, matching {!Workloads.Trace} replay. *)

val malloc : t -> int -> int
(** [malloc t size] is [malloc_site t ~site:0 size]. *)

val free : t -> int -> unit
val usable_size : t -> int -> int
val is_live : t -> int -> bool
val live_bytes : t -> int
val live_allocations : t -> int

val allocation_containing : t -> int -> (int * int) option
(** Conservative lookup: [(base, usable)] of the allocation whose range
    contains the address, interior pointers included. *)

val pool_of_addr : t -> int -> int option
(** The pool owning the page behind [addr], if any. *)

val plan : t -> plan
val machine : t -> Machine.t
val extra_byte : t -> bool
val wilderness : t -> int
val set_extent_hooks : t -> Extent.hooks -> unit
val purge_tick : t -> unit
val purge_all : t -> unit

type pool_stats = {
  pool : int;
  recycling : bool;
  footprint_bytes : int;  (** address space owned by the pool *)
  live_now_bytes : int;
  peak_live_bytes : int;
  retired_bytes : int;  (** freed bytes the pool will never reuse *)
}

val pool_stats : t -> pool_stats array
val footprint_bytes : t -> int
val retired_bytes : t -> int

val attach_obs : t -> Obs.Registry.t -> unit
(** Registers [alloc.*] and the [pool.*] gauges ([pool.pools],
    [pool.footprint_bytes], [pool.retired_bytes]). *)
