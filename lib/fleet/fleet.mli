(** Multi-tenant fleet simulation: N protected server instances on one
    simulated machine with a shared physical-page budget.

    The paper evaluates MineSweeper per process; deployment runs many
    protected processes on one box, where quarantine retention in one
    tenant inflates RSS pressure on all the others. This layer runs each
    tenant as a full stack — its own {!Alloc.Machine} (address space +
    clock), any {!Workloads.Harness.scheme} backend, driven by its own
    open-loop {!Workloads.Server} traffic stream — and couples them
    through three machine-level mechanisms:

    - a {e deterministic scheduler} (round-robin or weighted priority)
      that interleaves tenant steps, one served request per quantum;
    - {e interference propagation}: stall cycles (STW rescans,
      allocation pauses) and a bandwidth share of background sweep
      cycles incurred by one tenant are charged as stall inside every
      neighbour's next request window, so one tenant's sweep shows up in
      its neighbours' [srv.*] tail quantiles;
    - a {e shared physical budget}: the summed committed bytes of all
      tenant address spaces are held under [budget] by a reactive
      pressure policy — reclaim (forced sweep + purge) in a configurable
      cross-tenant order, then OOM-kill the largest tenant as the last
      resort, running tenants first and finished ones once none is
      running — plus per-tenant quarantine budgets trimmed as they
      overrun.

    Everything is deterministic: tenant seeds derive from the fleet seed
    via {!Sim.Rng.split_seed}, scheduling and purge orders break ties on
    tenant index, and interference arithmetic is integer-only — two runs
    with the same inputs export byte-identical metrics. See DESIGN §15. *)

type scheduler =
  | Round_robin  (** one step per alive tenant, cyclic in spec order *)
  | Priority
      (** heaviest-weight tenants first, [weight] consecutive steps per
          quantum *)

type purge_order =
  | Largest_quarantine
      (** reclaim tenants holding the most quarantined bytes first —
          pressure goes where the reclaimable memory is *)
  | Round_robin_purge
      (** rotate a cursor so reclaim cost is spread evenly across
          tenants regardless of who caused the pressure *)

val scheduler_name : scheduler -> string
val scheduler_of_string : string -> scheduler option
val purge_order_name : purge_order -> string
val purge_order_of_string : string -> purge_order option

type tenant_spec = {
  tname : string;
  profile : Workloads.Server.profile;
  scheme : Workloads.Harness.scheme;
  weight : int;  (** consecutive steps per {!Priority} quantum, >= 1 *)
  quarantine_budget : int;
      (** bytes of quarantine this tenant may retain; exceeding it after
          a step forces an immediate reclaim. 0 = unlimited. *)
}

val tenant :
  ?weight:int ->
  ?quarantine_budget:int ->
  ?name:string ->
  Workloads.Server.profile ->
  Workloads.Harness.scheme ->
  tenant_spec
(** [name] defaults to the profile's name. *)

val default_budget : int
(** 192 MiB — comfortably holds five default-scale tenants while letting
    a leaking one build real pressure. *)

type config = {
  budget : int;  (** machine physical-page budget, bytes *)
  scheduler : scheduler;
  purge_order : purge_order;
}
(** Interference is fixed: after each step, every neighbour is charged
    all of the tenant's new stall cycles (an STW pause fences the shared
    machine) plus a quarter of its new background sweep cycles (marking
    saturates a share of DRAM bandwidth). *)

val config :
  ?budget:int ->
  ?scheduler:scheduler ->
  ?purge_order:purge_order ->
  unit ->
  config

type tenant_result = {
  name : string;
  scheme : string;
  server : Workloads.Server.result;
  injected_stall_cycles : int;
      (** neighbour interference this tenant absorbed *)
  reclaims : int;  (** times the pressure policy forced it to reclaim *)
  quarantine_trims : int;
      (** reclaims caused by its own quarantine budget *)
  killed : bool;  (** OOM-killed by the machine (budget unreclaimable) *)
}

type result = {
  budget : int;
  scheduler : scheduler;
  purge_order : purge_order;
  tenants : tenant_result list;
  steps : int;
  committed_peak : int;
      (** highest post-enforcement committed-bytes sum observed at a
          step boundary; never exceeds [budget] (OOM kill is the
          enforcement backstop) *)
  committed_peak_raw : int;
      (** highest within-step watermark, tracked by per-tenant
          {!Vmem.set_commit_observer} hooks — transient overshoot before
          enforcement runs is visible here *)
  overshoot : int;  (** [max 0 (committed_peak_raw - budget)] *)
  pressure_events : int;
  total_reclaims : int;
  oom_kills : int;
  agg_latency : Workloads.Server.quantiles;
      (** request latency across every tenant's requests (bucket-wise
          merged histograms) *)
  agg_stall : Workloads.Server.quantiles;
  agg_pause : Workloads.Server.quantiles;
      (** sweep-pause distribution across tenants (zeros when no tenant
          registers [ms.sweep_pause_cycles]) *)
  registry : Obs.Registry.t;
      (** the fleet registry: live [fleet.*] metrics, every tenant's
          registry merged under [fleet.t<i>.*], and the cross-tenant
          aggregation under [fleet.agg.*] — ready for
          {!Obs.Export.write_file} *)
}

(** The machine layer itself; {!run} below is the one-shot wrapper. *)
module Machine : sig
  type t

  val create : ?seed:int -> config -> tenant_spec list -> t
  (** Build every tenant stack (tenant [i]'s session seed is
      [Sim.Rng.split_seed ~seed ~index:i], default fleet seed 9100),
      install the interference feeds and per-tenant commit observers.
      Raises [Invalid_argument] on an empty tenant list. *)

  val committed_bytes : t -> int
  (** Current machine-wide resident set: summed committed bytes of every
      non-killed tenant address space. *)

  val registry : t -> Obs.Registry.t

  val run : t -> result
  (** Drive the fleet to completion (every tenant finished, OOMed or
      killed), then merge per-tenant registries into the fleet registry.
      Single-shot: a second call raises [Invalid_argument]. *)
end

val run : ?scale:float -> ?seed:int -> config -> tenant_spec list -> result
(** Scale every tenant profile by [scale] (default 1.0), then create and
    run a machine. *)

val run_repeats :
  ?scale:float ->
  ?seed:int ->
  repeats:int ->
  config ->
  tenant_spec list ->
  result list
(** Repeat [i > 0] reruns the fleet under
    [Sim.Rng.split_seed ~seed ~index:i] — independent arrival and
    workload streams per repeat, same convention as
    {!Workloads.Server.run_repeats}. *)

val noisy_neighbour :
  ?steady:int -> Workloads.Harness.scheme -> tenant_spec list
(** The acceptance scenario: one ["slow-leak"] tenant (["leaker"]) plus
    [steady] (default 4) well-behaved ["steady"] tenants, all on the
    given scheme. *)
