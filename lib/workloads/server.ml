(* Server-traffic workload family. See server.mli for the model.

   The core accounting trick is the coupled Lindley recursion pair: with
   arrival timestamps a_k and measured per-request service s_k (wall
   cycles, stalls included) the real FIFO queue evolves as

     start_k  = max (finish_{k-1}, a_k)      finish_k = start_k + s_k

   and a shadow stall-free queue replays the same arrivals with service
   s_k - st_k (st_k = stall cycles measured inside request k):

     start0_k = max (finish0_{k-1}, a_k)     finish0_k = start0_k + s_k - st_k

   stall_latency_k = (finish_k - a_k) - (finish0_k - a_k)
                   = finish_k - finish0_k  >= 0   (by induction: s >= s - st
                     and max is monotone), so the metric captures both the
   stall itself and the queueing it inflicts on every later request —
   which is exactly what an open-loop client observes. *)

type profile = {
  name : string;
  description : string;
  arrival : Sim.Arrival.process;
  requests : int;
  allocs_per_request : Sim.Dist.t;
  request_size : Sim.Dist.t;
  service_work : Sim.Dist.t;
  connection_every : int;
  connection_buffers : int;
  connection_size : Sim.Dist.t;
  max_connections : int;
  leak_rate : float;
  dangling_rate : float;
  cache_sensitivity : float;
  seed : int;
}

(* A benign word servers write into request buffers: below the heap base,
   distinct from the attack module's vtable constants, so reused memory
   is visibly overwritten by legitimate traffic. *)
let payload_word = 0x000B_EEF0

let word = Vmem.word_size

let p ~name ~description ~arrival ?(requests = 30_000)
    ?(allocs_per_request = Sim.Dist.uniform ~lo:4 ~hi:12)
    ?(request_size = Sim.Dist.pareto ~shape:1.3 ~scale:64 ~cap:8192)
    ?(service_work = Sim.Dist.exponential ~mean:1600.)
    ?(connection_every = 64) ?(connection_buffers = 4)
    ?(connection_size = Sim.Dist.uniform ~lo:512 ~hi:4096)
    ?(max_connections = 256) ?(leak_rate = 0.0) ?(dangling_rate = 0.002)
    ?(cache_sensitivity = 0.3) ~seed () =
  {
    name;
    description;
    arrival;
    requests;
    allocs_per_request;
    request_size;
    service_work;
    connection_every;
    connection_buffers;
    connection_size;
    max_connections;
    leak_rate;
    dangling_rate;
    cache_sensitivity;
    seed;
  }

let profiles =
  [
    p ~name:"steady" ~description:"constant-rate Poisson traffic"
      ~arrival:(Sim.Arrival.Poisson { rate = 320. })
      ~seed:7001 ();
    p ~name:"bursty" ~description:"MMPP on/off bursts (quiet vs storm)"
      ~arrival:
        (Sim.Arrival.Mmpp
           { rate_lo = 150.; rate_hi = 700.; dwell_lo = 400_000; dwell_hi = 150_000 })
      ~seed:7002 ();
    p ~name:"diurnal" ~description:"sinusoidally modulated day/night load"
      ~arrival:
        (Sim.Arrival.Diurnal { rate = 280.; period = 2_000_000; depth = 0.6 })
      ~seed:7003 ();
    p ~name:"spike" ~description:"flash crowd: 4x rate for a window"
      ~arrival:
        (Sim.Arrival.Spike
           { rate = 240.; spike_at = 20_000_000; spike_len = 8_000_000; spike_mult = 4.0 })
      ~seed:7004 ();
    p ~name:"slow-leak"
      ~description:"steady traffic with leaking handlers and dangling pointers"
      ~arrival:(Sim.Arrival.Poisson { rate = 300. })
      ~leak_rate:0.02 ~dangling_rate:0.01 ~seed:7005 ();
  ]

let names = List.map (fun pr -> pr.name) profiles
let find name = List.find_opt (fun pr -> pr.name = name) profiles

let scale factor pr =
  if factor = 1.0 then pr
  else begin
    let s n = max 1 (int_of_float (float_of_int n *. factor)) in
    let arrival =
      match pr.arrival with
      | Sim.Arrival.Spike { rate; spike_at; spike_len; spike_mult } ->
        Sim.Arrival.Spike
          { rate; spike_at = s spike_at; spike_len = s spike_len; spike_mult }
      | Sim.Arrival.Diurnal { rate; period; depth } ->
        Sim.Arrival.Diurnal { rate; period = s period; depth }
      | (Sim.Arrival.Poisson _ | Sim.Arrival.Mmpp _) as a -> a
    in
    { pr with requests = s pr.requests; arrival }
  end

type quantiles = { p50 : float; p99 : float; p999 : float }

type result = {
  profile : string;
  scheme : string;
  requests : int;
  completed : int;
  wall : int;
  app_busy : int;
  stalled : int;
  latency : quantiles;
  stall_latency : quantiles;
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
  oom_killed : bool;
}

(* The request program: the ops each request emits, drawn from the
   profile and the seed alone (never from an address), so [program] can
   record what [serve] runs under any scheme.

   Sites are semantic, not size-derived: site 1 is the connection-buffer
   arena, site 0 the per-request arena — the two genuinely distinct
   allocation sites of the server loop. *)
let trace_sites = 2
let connection_site = 1
let request_site = 0

type requests = {
  rp : profile;
  rng : Sim.Rng.t;  (* leak/dangling coin flips, dangling slot choice *)
  size_rng : Sim.Rng.t;
  work_rng : Sim.Rng.t;
  connections : int array Queue.t;  (* buffer ids, oldest first *)
  mutable next_id : int;
  mutable leaked : int;
  mutable dangling : int;
}

(* The request program's streams, after the arrival stream split off. *)
let requests sp ~seed =
  let rng = Sim.Rng.create seed in
  let arrival_rng = Sim.Rng.split rng in
  let size_rng = Sim.Rng.split rng in
  let work_rng = Sim.Rng.split rng in
  ( Sim.Arrival.take (Sim.Arrival.make sp.arrival arrival_rng) sp.requests,
    {
      rp = sp;
      rng;
      size_rng;
      work_rng;
      connections = Queue.create ();
      next_id = 0;
      leaked = 0;
      dangling = 0;
    } )

(* Root slots for deliberately-dangling pointers live above the first KiB
   of the globals window, which the attack scenarios use for their own
   victim/credential slots. *)
let dangling_word g =
  let lo = 1024 / word in
  lo + Sim.Rng.int g.rng (Trace.globals_window_words - lo)

(* Request [k]'s ops, in [emit] order: connection churn every N-th
   request, the request's arena (each object stamped with a payload
   word), perhaps a dangling root pointer, the service work, and the
   arena's teardown, which a leaking handler cuts one object short. *)
let emit_request g k emit =
  let sp = g.rp in
  let alloc site dist =
    let id = g.next_id in
    g.next_id <- id + 1;
    emit (Trace.Alloc { id; size = Sim.Dist.sample dist g.size_rng; site });
    emit (Trace.Store_data { loc = Trace.Field (id, 0); value = payload_word });
    id
  in
  let free id = emit (Trace.Free { id; thread = 0 }) in
  if sp.connection_every > 0 && k mod sp.connection_every = 0 then begin
    Queue.push
      (Array.init sp.connection_buffers (fun _ ->
           alloc connection_site sp.connection_size))
      g.connections;
    if Queue.length g.connections > sp.max_connections then
      Array.iter free (Queue.pop g.connections)
  end;
  let n = max 1 (Sim.Dist.sample sp.allocs_per_request g.size_rng) in
  let arena = Array.init n (fun _ -> alloc request_site sp.request_size) in
  (* A buggy handler publishes a root pointer it will never clear. *)
  if Sim.Rng.bool g.rng sp.dangling_rate then begin
    let loc = Trace.Global (dangling_word g) in
    emit (Trace.Store_ptr { loc; target = arena.(0) });
    g.dangling <- g.dangling + 1
  end;
  emit (Trace.Work (Sim.Dist.sample sp.service_work g.work_rng));
  let leak = Sim.Rng.bool g.rng sp.leak_rate in
  for i = 0 to (if leak then n - 2 else n - 1) do
    free arena.(i)
  done;
  if leak then g.leaked <- g.leaked + 1

type session = {
  sp : profile;
  stack : Harness.t;
  reg : Obs.Registry.t;
  ring : Obs.Trace_ring.t;
  arrivals : int array;
  gen : requests;
  exec : Trace.op -> unit;
  sampler : Sim.Sampler.t;
  h_latency : Obs.Registry.histogram;
  h_stall : Obs.Registry.histogram;
  h_queue : Obs.Registry.histogram;
  h_service : Obs.Registry.histogram;
  c_requests : Obs.Registry.counter;
  c_completed : Obs.Registry.counter;
  c_leaked : Obs.Registry.counter;
  c_dangling : Obs.Registry.counter;
  g_depth : Obs.Registry.gauge;
  g_connections : Obs.Registry.gauge;
  slow_span : int;  (* latency above which a Request span is emitted *)
  sample_every : int;
  rss_limit : int;
  mutable next_req : int;
  mutable arrival_ptr : int;  (* arrivals.(0..ptr-1) are <= current start *)
  mutable server_time : int;  (* finish_{k-1} of the real queue *)
  mutable ideal_time : int;  (* finish0_{k-1} of the stall-free queue *)
  mutable oom : bool;
  mutable external_stall : (unit -> int) option;
      (* machine-level interference: cycles of stall to charge inside the
         next request's measurement window (fleet neighbour pressure) *)
}

let machine (s : session) = s.stack.Harness.machine
let clock s = (machine s).Alloc.Machine.clock

let start ?(rss_limit = Harness.default_rss_limit) ?seed sp (stack : Harness.t) =
  let seed = Option.value seed ~default:sp.seed in
  let machine = stack.Harness.machine in
  Alloc.Machine.map_roots machine;
  let arrivals, gen = requests sp ~seed in
  let exec =
    Trace.exec ~sites:trace_sites machine
      {
        Trace.alloc =
          (fun ~id:_ ~site:_ size ->
            let addr = stack.Harness.malloc size in
            Alloc.Machine.charge machine
              (int_of_float
                 (sp.cache_sensitivity
                 *. float_of_int (stack.Harness.cold_penalty size)));
            addr);
        free = (fun ~id:_ ~thread addr -> stack.Harness.free ~thread addr);
        pointer_store = stack.Harness.on_pointer_write;
        data_store = (fun ~slot:_ -> ());
        after_op = ignore;
      }
  in
  let reg =
    match stack.Harness.obs with Some r -> r | None -> Obs.Registry.create ()
  in
  let ring =
    match stack.Harness.trace with
    | Some r -> r
    | None -> Obs.Trace_ring.create ()
  in
  let slow_span =
    let per_alloc = 60. in
    4
    * int_of_float
        (Sim.Dist.mean_estimate sp.service_work
        +. (per_alloc *. Sim.Dist.mean_estimate sp.allocs_per_request))
  in
  {
    sp;
    stack;
    reg;
    ring;
    arrivals;
    gen;
    exec;
    sampler = Sim.Sampler.create ();
    h_latency = Obs.Registry.histogram reg "srv.latency";
    h_stall = Obs.Registry.histogram reg "srv.stall_latency";
    h_queue = Obs.Registry.histogram reg "srv.queue_wait";
    h_service = Obs.Registry.histogram reg "srv.service";
    c_requests = Obs.Registry.counter reg "srv.requests";
    c_completed = Obs.Registry.counter reg "srv.completed";
    c_leaked = Obs.Registry.counter reg "srv.leaked_objects";
    c_dangling = Obs.Registry.counter reg "srv.dangling_ptrs";
    g_depth = Obs.Registry.gauge reg "srv.queue_depth_max";
    g_connections = Obs.Registry.gauge reg "srv.connections";
    slow_span;
    sample_every = max 1 (Array.length arrivals / 240);
    rss_limit;
    next_req = 0;
    arrival_ptr = 0;
    server_time = 0;
    ideal_time = 0;
    oom = false;
    external_stall = None;
  }

let set_external_stall s f = s.external_stall <- Some f

let total_requests s = Array.length s.arrivals
let served s = Obs.Registry.Counter.value s.c_completed
let registry s = s.reg

let record_rss s = Harness.sample_rss s.stack s.sampler ~limit:s.rss_limit

let serve_one s k =
  let a = s.arrivals.(k) in
  let w0 = Sim.Clock.wall (clock s) in
  let st0 = Sim.Clock.stalled (clock s) in
  Obs.Registry.Counter.incr s.c_requests 1;
  (* Neighbour interference lands inside the measurement window (after
     w0/st0 are read) so it flows into sv and st below, and from there
     into the latency and stall-latency Lindley recursions — an open-loop
     client cannot tell whose sweep delayed its request. *)
  (match s.external_stall with
  | None -> ()
  | Some f ->
    let n = f () in
    if n > 0 then
      Alloc.Machine.with_sink (machine s) Alloc.Machine.Stall (fun () ->
          Alloc.Machine.charge (machine s) n));
  let dangling = s.gen.dangling and leaked = s.gen.leaked in
  emit_request s.gen k s.exec;
  Obs.Registry.Gauge.set s.g_connections (Queue.length s.gen.connections);
  Obs.Registry.Counter.incr s.c_dangling (s.gen.dangling - dangling);
  Obs.Registry.Counter.incr s.c_leaked (s.gen.leaked - leaked);
  s.stack.Harness.tick ();
  (* Latency accounting (see the header comment). *)
  let sv = Sim.Clock.wall (clock s) - w0 in
  let st = Sim.Clock.stalled (clock s) - st0 in
  let begins = max s.server_time a in
  s.server_time <- begins + sv;
  let begins0 = max s.ideal_time a in
  s.ideal_time <- begins0 + (sv - st);
  let latency = s.server_time - a in
  let stall_latency = s.server_time - s.ideal_time in
  let queue_wait = begins - a in
  Obs.Registry.Histogram.observe s.h_latency latency;
  Obs.Registry.Histogram.observe s.h_stall stall_latency;
  Obs.Registry.Histogram.observe s.h_queue queue_wait;
  Obs.Registry.Histogram.observe s.h_service sv;
  (* Backlog when this request started: arrived minus completed. *)
  while
    s.arrival_ptr < Array.length s.arrivals
    && s.arrivals.(s.arrival_ptr) <= begins
  do
    s.arrival_ptr <- s.arrival_ptr + 1
  done;
  let depth = s.arrival_ptr - k in
  Obs.Registry.Gauge.set_max s.g_depth depth;
  if stall_latency > 0 || latency >= s.slow_span then
    Obs.Trace_ring.emit s.ring ~phase:Obs.Trace_ring.Request ~label:s.sp.name
      ~t_start:a ~t_end:(a + latency)
      ~attrs:
        [ ("latency", latency); ("stall", stall_latency); ("queue", queue_wait) ]
      ();
  Obs.Registry.Counter.incr s.c_completed 1;
  if k mod s.sample_every = 0 then record_rss s

let step s =
  if s.oom || s.next_req >= Array.length s.arrivals then false
  else begin
    let k = s.next_req in
    s.next_req <- k + 1;
    (try serve_one s k with Harness.Out_of_memory_budget -> s.oom <- true);
    (not s.oom) && s.next_req < Array.length s.arrivals
  end

let quantiles_of h =
  {
    p50 = Obs.Registry.Histogram.quantile h 0.5;
    p99 = Obs.Registry.Histogram.quantile h 0.99;
    p999 = Obs.Registry.Histogram.quantile h 0.999;
  }

let finish s =
  if not s.oom then begin
    s.stack.Harness.drain ();
    try record_rss s with Harness.Out_of_memory_budget -> s.oom <- true
  end;
  let clk = clock s in
  {
    profile = s.sp.name;
    scheme = s.stack.Harness.scheme;
    requests = Array.length s.arrivals;
    completed = served s;
    wall = Sim.Clock.wall clk;
    app_busy = Sim.Clock.app_busy clk;
    stalled = Sim.Clock.stalled clk;
    latency = quantiles_of s.h_latency;
    stall_latency = quantiles_of s.h_stall;
    queue_wait = quantiles_of s.h_queue;
    service = quantiles_of s.h_service;
    max_queue_depth = Obs.Registry.Gauge.value s.g_depth;
    peak_rss = Sim.Sampler.peak s.sampler;
    avg_rss = Sim.Sampler.average s.sampler;
    sweeps = s.stack.Harness.sweeps ();
    failed_frees = s.stack.Harness.failed_frees ();
    leaked = s.gen.leaked;
    dangling_left = s.gen.dangling;
    arrivals = s.arrivals;
    oom_killed = s.oom;
  }

let scale_profile = scale

let run ?(scale = 1.0) ?seed ?rss_limit ?on_build sp scheme =
  let sp = scale_profile scale sp in
  let machine = Alloc.Machine.create () in
  let stack = Harness.build scheme ~threads:1 machine in
  (match on_build with Some f -> f stack | None -> ());
  let s = start ?rss_limit ?seed sp stack in
  while step s do
    ()
  done;
  finish s

let run_repeats ?(scale = 1.0) ~repeats sp scheme =
  List.init (max 1 repeats) (fun i ->
      let seed =
        if i = 0 then sp.seed else Sim.Rng.split_seed ~seed:sp.seed ~index:i
      in
      run ~scale ~seed sp scheme)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    if n land 1 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let program ?seed sp =
  let arrivals, gen = requests sp ~seed:(Option.value seed ~default:sp.seed) in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  for k = 0 to Array.length arrivals - 1 do
    emit_request gen k emit
  done;
  {
    Trace.name = sp.name;
    threads = 1;
    sites = trace_sites;
    ops = Array.of_list (List.rev !ops);
  }
