(** Server-traffic workload family: request/response churn under an
    open-loop load generator, with tail-latency accounting.

    The batch driver ({!Driver}) measures total cycles; a serving system
    cares about the {e tail} of per-request latency, where sweep pauses
    and allocation stalls surface as queueing delay. This family models a
    single-worker server:

    - requests arrive at absolute cycle timestamps drawn from an
      {!Sim.Arrival.process} — {e open-loop}: the generator never
      observes the service side, so when the allocator stalls the backlog
      grows instead of the offered load politely slowing down;
    - each request allocates a per-request arena (a handful of objects),
      writes into them, performs service work, and frees the arena on
      completion — allocator-heavy churn with occasional leaks and
      dangling pointers. A request is a run of {!Trace.op}s streamed
      through {!Trace.exec}, so the server writes no memory itself and
      {!program} records exactly what it runs;
    - connections churn in the background: every N-th request opens a
      connection (longer-lived buffers) and the oldest connection closes
      once a cap is reached.

    Latency is decomposed with a coupled pair of Lindley recursions: the
    real FIFO queue uses the measured per-request service time [s] (which
    includes allocation/sweep stalls [st]); a shadow stall-free queue
    replays the {e same arrivals} with service [s - st]. The difference
    of the two sojourn times is the {b stall-induced latency} — it counts
    both the stall itself and the queueing it inflicts on later requests,
    and is provably [>= 0]. Quantiles are read from [srv.*] histograms
    via {!Obs.Registry.Histogram.quantile} (within-bucket interpolation).

    Metrics are registered into the stack's own registry when it has one
    (MineSweeper schemes), so one export carries [ms.*] and [srv.*]
    side by side; slow requests additionally emit [Request] spans. *)

type profile = {
  name : string;
  description : string;
  arrival : Sim.Arrival.process;
  requests : int;  (** arrivals to generate (open-loop offered load) *)
  allocs_per_request : Sim.Dist.t;  (** arena objects per request *)
  request_size : Sim.Dist.t;  (** bytes per arena object *)
  service_work : Sim.Dist.t;  (** application cycles per request *)
  connection_every : int;  (** open a connection every N requests *)
  connection_buffers : int;  (** buffers allocated per connection *)
  connection_size : Sim.Dist.t;  (** bytes per connection buffer *)
  max_connections : int;  (** oldest connection closes beyond this *)
  leak_rate : float;  (** P(request leaks one arena object) *)
  dangling_rate : float;
      (** P(request frees an object but leaves a root pointer dangling) *)
  cache_sensitivity : float;  (** scales the stack's cold-reuse penalty *)
  seed : int;
}

val profiles : profile list
(** The built-in family: [steady] (Poisson), [bursty] (MMPP), [diurnal]
    (sinusoidal modulation), [spike] (flash crowd) and [slow-leak]
    (steady traffic with elevated leak/dangling rates). *)

val names : string list
val find : string -> profile option

val scale : float -> profile -> profile
(** Scale the offered load for smoke runs: multiplies [requests] and the
    time-anchored arrival parameters (spike window, diurnal period) by
    the factor, keeping the process shape at a shorter horizon. *)

type quantiles = { p50 : float; p99 : float; p999 : float }

type result = {
  profile : string;
  scheme : string;
  requests : int;  (** arrivals offered (= generated timestamps) *)
  completed : int;  (** requests fully served *)
  wall : int;
  app_busy : int;
  stalled : int;
  latency : quantiles;  (** total sojourn time (queue + service) *)
  stall_latency : quantiles;
      (** stall-induced share of the sojourn time (see above) *)
  queue_wait : quantiles;
  service : quantiles;
  max_queue_depth : int;
  peak_rss : int;
  avg_rss : float;
  sweeps : int;
  failed_frees : int;
  leaked : int;
  dangling_left : int;
  arrivals : int array;
      (** the offered arrival timestamps, strictly increasing — a pure
          function of (profile, seed), identical across schemes (the
          open-loop property; asserted by tests) *)
  oom_killed : bool;
}

(** {1 Session API}

    The step-wise interface lets a caller (the attack scenarios)
    interleave its own allocator traffic with live requests. *)

type session

val start : ?rss_limit:int -> ?seed:int -> profile -> Harness.t -> session
(** Maps the root regions, pre-generates the open-loop arrival timeline
    and starts the session's interpreter against the stack's serving
    target ({!Trace.serve}, charging the profile's [cache_sensitivity]
    share of its cold-reuse penalty). The session serves every request
    from one site: the interpreter declares one, so the connection site
    aliases the request site. The stack ticks after each request.
    [seed] overrides the profile's seed (used by repeat derivation).
    Registers the [srv.*] metrics into the stack's registry when it has
    one. *)

val total_requests : session -> int
val served : session -> int

val registry : session -> Obs.Registry.t
(** The registry the [srv.*] metrics live in: the stack's own registry
    when it has one, otherwise the private one the session created. The
    fleet aggregator merges these across tenants. *)

val set_external_stall : session -> (unit -> int) -> unit
(** Install a machine-interference feed: before serving each request the
    session asks the callback for stall cycles to charge (sink [Stall])
    {e inside} the request's measurement window, so they surface in the
    [srv.latency] and [srv.stall_latency] quantiles and compound through
    the queueing recursion like any other stall. The fleet scheduler uses
    this to make one tenant's STW sweep visible in its neighbours'
    tails; the callback must be deterministic for exports to stay
    byte-identical. *)

val step : session -> bool
(** Serve the next request; [false] once the timeline is exhausted (or
    the memory budget was exceeded — never raises). *)

val finish : session -> result
(** Drain the stack and assemble the result. *)

(** {1 One-shot runs} *)

val run :
  ?scale:float ->
  ?seed:int ->
  ?rss_limit:int ->
  ?on_build:(Harness.t -> unit) ->
  profile ->
  Harness.scheme ->
  result

val run_repeats :
  ?scale:float -> repeats:int -> profile -> Harness.scheme -> result list
(** [run_repeats ~repeats profile scheme] runs the profile [repeats]
    times. Repeat 0 uses the profile's own seed; repeat [i > 0] uses
    [Sim.Rng.split_seed ~seed:profile.seed ~index:i] — independent
    streams per repeat (correlated replicas bias median-of-N tail
    estimates), deterministic given the top-level seed. *)

val median : float list -> float
(** Median of a non-empty list (mean of the middle pair for even
    lengths); 0. for the empty list. Used for median-of-N reporting. *)

val program : ?seed:int -> profile -> Trace.t
(** The ops [serve] streams for this profile and seed, recorded as a
    trace: per-request arenas as alloc/payload-store/work/free runs,
    connection churn as longer-lived objects (site 1; request arenas are
    site 0), dangling pointers as stores into the globals window above
    its first KiB. A session runs exactly these ops through
    {!Trace.exec}, request by request; the program does not depend on
    the scheme. Open-loop timestamps have no place in a trace and are
    left out, so the program is what a referee or the trace tooling
    (serialisation, lint, replay against any scheme) reads. *)
