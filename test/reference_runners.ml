(* Reference runners: [Driver.run]'s loop and [Server]'s request loop in
   their direct-write form, which writes simulated memory itself instead
   of emitting [Trace] ops. [test_runners.ml] checks that the runners,
   which stream their programs through [Trace.exec], return exactly what
   these return. *)

(* -- Driver ---------------------------------------------------------- *)

type obj = {
  id : int;
  addr : int;
  size : int;
  mutable refs : (int * int) list; (* slot address, holder id (-1 = root) *)
}

(* Growable array of live objects with O(1) random pick and removal. *)
module Live = struct
  type t = {
    mutable items : obj array;
    mutable len : int;
    pos : (int, int) Hashtbl.t; (* object id -> index *)
  }

  let dummy = { id = -1; addr = 0; size = 0; refs = [] }
  let create () = { items = Array.make 4096 dummy; len = 0; pos = Hashtbl.create 4096 }

  let add t o =
    if t.len = Array.length t.items then
      t.items <- Array.append t.items (Array.make t.len dummy);
    t.items.(t.len) <- o;
    Hashtbl.replace t.pos o.id t.len;
    t.len <- t.len + 1

  let remove t o =
    match Hashtbl.find_opt t.pos o.id with
    | None -> ()
    | Some i ->
      Hashtbl.remove t.pos o.id;
      let last = t.len - 1 in
      if i <> last then begin
        t.items.(i) <- t.items.(last);
        Hashtbl.replace t.pos t.items.(i).id i
      end;
      t.items.(last) <- dummy;
      t.len <- last

  let pick t rng = if t.len = 0 then None else Some t.items.(Sim.Rng.int rng t.len)
  let mem t o = Hashtbl.mem t.pos o.id
  let mem_id t id = id = -1 || Hashtbl.mem t.pos id

  let to_list t =
    let rec go i acc = if i < 0 then acc else go (i - 1) (t.items.(i) :: acc) in
    go (t.len - 1) []
end

let word = Vmem.word_size
let stack_window = 64 * 1024 (* actively churned stack bytes *)

let driver_run ?(trace_points = 240) ?(ops_scale = 1.0)
    ?(rss_limit = Workloads.Harness.default_rss_limit) ?on_build profile scheme =
  let profile =
    if ops_scale = 1.0 then profile else Workloads.Profile.scale_ops ops_scale profile
  in
  let machine = Alloc.Machine.create () in
  let mem = machine.Alloc.Machine.mem in
  let stack = Workloads.Harness.build scheme ~threads:profile.Workloads.Profile.threads machine in
  (match on_build with Some f -> f stack | None -> ());
  List.iter
    (fun (base, size) -> Vmem.map mem ~addr:base ~len:size)
    Layout.root_regions;
  let rng = Sim.Rng.create profile.Workloads.Profile.seed in
  let size_rng = Sim.Rng.split rng in
  let life_rng = Sim.Rng.split rng in
  let live = Live.create () in
  let deaths : (int, obj list) Hashtbl.t = Hashtbl.create 4096 in
  let sampler = Sim.Sampler.create () in
  let frees = ref 0 in
  let next_id = ref 0 in

  (* Instrumented pointer store: compiler-inserted tracking sees the old
     and new value of every pointer-typed write. *)
  let store_ptr slot value =
    let old_value = Vmem.load mem slot in
    Vmem.store mem slot value;
    stack.Workloads.Harness.on_pointer_write ~slot ~old_value ~value
  in

  let pick_root_slot () =
    if Sim.Rng.bool rng 0.85 then
      Layout.stack_base + (word * Sim.Rng.int rng (stack_window / word))
    else
      Layout.globals_base + (word * Sim.Rng.int rng (Layout.globals_size / word))
  in

  (* Store [o]'s address somewhere and remember where, so the free path
     can clear it (or deliberately leave it dangling). *)
  let add_tracked_ref o =
    let holder =
      if Sim.Rng.bool rng profile.Workloads.Profile.root_fraction then None
      else
        match Live.pick live rng with
        | Some h when h.size >= word && h.id <> o.id -> Some h
        | Some _ | None -> None
    in
    (match holder with
    | None ->
      let slot = pick_root_slot () in
      store_ptr slot o.addr;
      o.refs <- (slot, -1) :: o.refs
    | Some h ->
      let slot = h.addr + (word * Sim.Rng.int rng (h.size / word)) in
      store_ptr slot o.addr;
      o.refs <- (slot, h.id) :: o.refs;
      (* Parent / prev pointer: the new object points back at its
         holder, forming the doubly-linked shapes whose cycles only
         zeroing can break once both ends are in quarantine. *)
      if
        o.size >= word
        && Sim.Rng.bool rng profile.Workloads.Profile.back_pointer_rate
      then begin
        let back = o.addr + (word * Sim.Rng.int rng (o.size / word)) in
        if back <> slot then begin
          store_ptr back h.addr;
          h.refs <- (back, o.id) :: h.refs
        end
      end)
  in

  (* "Unlucky data": an untracked word that happens to equal a live heap
     address (interior pointers included). Nothing will ever clear it
     except reuse of its holder or stack churn. *)
  let write_false_pointer () =
    match Live.pick live rng with
    | None -> ()
    | Some target ->
      let value =
        target.addr + (word * Sim.Rng.int rng (max 1 (target.size / word)))
      in
      let slot =
        match Live.pick live rng with
        | Some holder when holder.size >= word ->
          holder.addr + (word * Sim.Rng.int rng (holder.size / word))
        | Some _ | None -> pick_root_slot ()
      in
      Vmem.store mem slot value
  in

  let slot_writable slot =
    Vmem.is_mapped mem slot
    && Vmem.is_committed mem slot
    && Vmem.protection mem slot = Vmem.Read_write
  in

  let kill o =
    (* An object can be claimed both by a phase teardown and by its
       scheduled death; only the first free is real. *)
    if Live.mem live o then begin
      Live.remove live o;
    (* A well-behaved program clears its pointers before freeing; a buggy
       one leaves some dangling. Clearing only happens when the slot
       still holds our address (it may have been overwritten or its
       holder recycled since). *)
    List.iter
      (fun (slot, holder) ->
        (* The program only clears pointers it still owns: slots inside
           already-freed holders are not touched (writing there would be
           a use-after-free of its own). *)
        if
          Live.mem_id live holder
          && not (Sim.Rng.bool rng profile.Workloads.Profile.dangling_rate)
          && slot_writable slot
          && Vmem.load mem slot = o.addr
        then store_ptr slot 0)
      o.refs;
    let thread =
      if profile.Workloads.Profile.threads > 1 then Sim.Rng.int rng profile.Workloads.Profile.threads
      else 0
    in
      stack.Workloads.Harness.free ~thread o.addr;
      incr frees
    end
  in

  let schedule_death o ~at =
    Hashtbl.replace deaths at
      (o :: Option.value ~default:[] (Hashtbl.find_opt deaths at))
  in

  let churn_stack () =
    (* Stack frames dying: pointer-typed locals are "overwritten"; the
       instrumentation sees those too. *)
    for _ = 1 to 2 do
      let slot =
        Layout.stack_base + (word * Sim.Rng.int rng (stack_window / word))
      in
      if Layout.in_heap (Vmem.load mem slot) then store_ptr slot 0
      else Vmem.store mem slot 0
    done
  in

  let ops = profile.Workloads.Profile.ops in
  let sample_every = max 1 (ops / trace_points) in
  let oom = ref false in
  let record () = Workloads.Harness.sample_rss stack sampler ~limit:rss_limit in

  (try
  for i = 0 to ops - 1 do
    (match Hashtbl.find_opt deaths i with
    | Some dead ->
      Hashtbl.remove deaths i;
      List.iter kill dead
    | None -> ());
    (match profile.Workloads.Profile.phase_ops with
    | Some phase when i > 0 && i mod phase = 0 ->
      (* Phase boundary: the program tears down most of its structures
         (gcc between functions, xalancbmk between documents). *)
      let victims =
        List.filter
          (fun _ -> Sim.Rng.bool rng profile.Workloads.Profile.phase_kill)
          (Live.to_list live)
      in
      List.iter kill victims
    | Some _ | None -> ());
    let size = Sim.Dist.sample profile.Workloads.Profile.size size_rng in
    let site = Workloads.Trace.site_of_size ~sites:profile.Workloads.Profile.sites size in
    let addr =
      match stack.Workloads.Harness.malloc_site with
      | Some malloc_site -> malloc_site ~site size
      | None -> stack.Workloads.Harness.malloc size
    in
    Alloc.Machine.charge machine
      (int_of_float
         (profile.Workloads.Profile.cache_sensitivity
          *. float_of_int (stack.Workloads.Harness.cold_penalty size)));
    let o = { id = !next_id; addr; size; refs = [] } in
    incr next_id;
    Live.add live o;
    if Sim.Rng.bool rng profile.Workloads.Profile.pointer_density then add_tracked_ref o;
    if Sim.Rng.bool rng profile.Workloads.Profile.false_pointer_rate then
      write_false_pointer ();
    if not (Sim.Rng.bool rng profile.Workloads.Profile.leak_rate) then begin
      let lifetime_dist =
        match profile.Workloads.Profile.lifetime_large with
        | Some d when size >= 16384 -> d
        | Some _ | None -> profile.Workloads.Profile.lifetime
      in
      let lifetime = Sim.Dist.sample lifetime_dist life_rng in
      let at = i + 1 + lifetime in
      if at < ops then schedule_death o ~at
    end;
    churn_stack ();
    Alloc.Machine.charge machine profile.Workloads.Profile.work_per_op;
    stack.Workloads.Harness.tick ();
    if i mod sample_every = 0 then record ()
  done;
  stack.Workloads.Harness.drain ();
  record ()
  with Workloads.Harness.Out_of_memory_budget -> oom := true);

  let clock = machine.Alloc.Machine.clock in
  (* On heavily threaded runs (the paper's i7-7700 has 4 cores / 8 SMT
     threads) the sweeper and helper threads compete with the application
     for cores: a share of background work surfaces as application
     time. *)
  let contention =
    let threads = profile.Workloads.Profile.threads in
    if threads >= 4 then Float.min 0.4 (float_of_int (threads - 2) /. 12.0)
    else 0.0
  in
  if contention > 0.0 then
    Sim.Clock.stall clock
      (int_of_float (contention *. float_of_int (Sim.Clock.background_busy clock)));
  {
    Workloads.Driver.benchmark = profile.Workloads.Profile.name;
    scheme = stack.Workloads.Harness.scheme;
    wall = Sim.Clock.wall clock;
    app_busy = Sim.Clock.app_busy clock;
    background_busy = Sim.Clock.background_busy clock;
    stalled = Sim.Clock.stalled clock;
    cpu_utilisation = Sim.Clock.cpu_utilisation clock;
    avg_rss = Sim.Sampler.average sampler;
    peak_rss = Sim.Sampler.peak sampler;
    rss_trace = Sim.Sampler.normalised sampler ~points:trace_points;
    sweeps = stack.Workloads.Harness.sweeps ();
    failed_frees = stack.Workloads.Harness.failed_frees ();
    allocations = ops;
    frees = !frees;
    live_bytes_end = stack.Workloads.Harness.live_bytes ();
    oom_killed = !oom;
    metrics =
      (match stack.Workloads.Harness.obs with
      | Some reg -> Obs.Registry.snapshot reg
      | None -> []);
  }


(* -- Server ---------------------------------------------------------- *)

open Workloads.Server

let payload_word = 0x000B_EEF0

type session = {
  sp : Workloads.Server.profile;
  stack : Workloads.Harness.t;
  reg : Obs.Registry.t;
  ring : Obs.Trace_ring.t;
  arrivals : int array;
  rng : Sim.Rng.t;  (* leak/dangling coin flips, dangling slot choice *)
  size_rng : Sim.Rng.t;
  work_rng : Sim.Rng.t;
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
  connections : int array Queue.t;
  slow_span : int;  (* latency above which a Request span is emitted *)
  sample_every : int;
  rss_limit : int;
  mutable next_req : int;
  mutable arrival_ptr : int;  (* arrivals.(0..ptr-1) are <= current start *)
  mutable server_time : int;  (* finish_{k-1} of the real queue *)
  mutable ideal_time : int;  (* finish0_{k-1} of the stall-free queue *)
  mutable completed : int;
  mutable leaked : int;
  mutable dangling : int;
  mutable max_depth : int;
  mutable oom : bool;
  mutable external_stall : (unit -> int) option;
      (* machine-level interference: cycles of stall to charge inside the
         next request's measurement window (fleet neighbour pressure) *)
}

let machine (s : session) = s.stack.Workloads.Harness.machine
let mem s = (machine s).Alloc.Machine.mem
let clock s = (machine s).Alloc.Machine.clock

let start ?(rss_limit = Workloads.Harness.default_rss_limit) ?seed sp (stack : Workloads.Harness.t) =
  let seed = Option.value seed ~default:sp.seed in
  List.iter
    (fun (base, size) ->
      if not (Vmem.is_mapped stack.Workloads.Harness.machine.Alloc.Machine.mem base) then
        Vmem.map stack.Workloads.Harness.machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  let rng = Sim.Rng.create seed in
  let arrival_rng = Sim.Rng.split rng in
  let size_rng = Sim.Rng.split rng in
  let work_rng = Sim.Rng.split rng in
  let gen = Sim.Arrival.make sp.arrival arrival_rng in
  let arrivals = Sim.Arrival.take gen sp.requests in
  let reg =
    match stack.Workloads.Harness.obs with Some r -> r | None -> Obs.Registry.create ()
  in
  let ring =
    match stack.Workloads.Harness.trace with
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
    rng;
    size_rng;
    work_rng;
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
    connections = Queue.create ();
    slow_span;
    sample_every = max 1 (Array.length arrivals / 240);
    rss_limit;
    next_req = 0;
    arrival_ptr = 0;
    server_time = 0;
    ideal_time = 0;
    completed = 0;
    leaked = 0;
    dangling = 0;
    max_depth = 0;
    oom = false;
    external_stall = None;
  }

let record_rss s = Workloads.Harness.sample_rss s.stack s.sampler ~limit:s.rss_limit

(* An instrumented pointer store, as the compiler pass would emit. *)
let store_ptr s slot value =
  let old_value = Vmem.load (mem s) slot in
  Vmem.store (mem s) slot value;
  s.stack.Workloads.Harness.on_pointer_write ~slot ~old_value ~value

(* Root slots for deliberately-dangling pointers live above the first KiB
   of the globals window, which the attack scenarios use for their own
   victim/credential slots. *)
let dangling_root_slot s =
  let lo = 1024 in
  Layout.globals_base + lo
  + word * Sim.Rng.int s.rng ((Layout.globals_size - lo) / word)

let open_connection s =
  let bufs =
    Array.init s.sp.connection_buffers (fun _ ->
        let size = Sim.Dist.sample s.sp.connection_size s.size_rng in
        let addr = s.stack.Workloads.Harness.malloc size in
        Alloc.Machine.charge (machine s)
          (int_of_float
             (s.sp.cache_sensitivity
             *. float_of_int (s.stack.Workloads.Harness.cold_penalty size)));
        Vmem.store (mem s) addr payload_word;
        addr)
  in
  Queue.push bufs s.connections;
  if Queue.length s.connections > s.sp.max_connections then begin
    let old = Queue.pop s.connections in
    Array.iter (fun addr -> s.stack.Workloads.Harness.free ~thread:0 addr) old
  end;
  Obs.Registry.Gauge.set s.g_connections (Queue.length s.connections)

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
  if s.sp.connection_every > 0 && k mod s.sp.connection_every = 0 then
    open_connection s;
  (* Per-request arena. *)
  let n = max 1 (Sim.Dist.sample s.sp.allocs_per_request s.size_rng) in
  let arena =
    Array.init n (fun _ ->
        let size = Sim.Dist.sample s.sp.request_size s.size_rng in
        let addr = s.stack.Workloads.Harness.malloc size in
        Alloc.Machine.charge (machine s)
          (int_of_float
             (s.sp.cache_sensitivity
             *. float_of_int (s.stack.Workloads.Harness.cold_penalty size)));
        Vmem.store (mem s) addr payload_word;
        addr)
  in
  (* A buggy handler publishes a root pointer it will never clear. *)
  if Sim.Rng.bool s.rng s.sp.dangling_rate then begin
    store_ptr s (dangling_root_slot s) arena.(0);
    s.dangling <- s.dangling + 1;
    Obs.Registry.Counter.incr s.c_dangling 1
  end;
  Alloc.Machine.charge (machine s) (Sim.Dist.sample s.sp.service_work s.work_rng);
  (* Tear the arena down; a leaking handler forgets its last object. *)
  let leak = Sim.Rng.bool s.rng s.sp.leak_rate in
  let keep = if leak then n - 1 else n in
  for i = 0 to keep - 1 do
    s.stack.Workloads.Harness.free ~thread:0 arena.(i)
  done;
  if leak then begin
    s.leaked <- s.leaked + 1;
    Obs.Registry.Counter.incr s.c_leaked 1
  end;
  s.stack.Workloads.Harness.tick ();
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
  if depth > s.max_depth then s.max_depth <- depth;
  Obs.Registry.Gauge.set_max s.g_depth depth;
  if stall_latency > 0 || latency >= s.slow_span then
    Obs.Trace_ring.emit s.ring ~phase:Obs.Trace_ring.Request ~label:s.sp.name
      ~t_start:a ~t_end:(a + latency)
      ~attrs:
        [ ("latency", latency); ("stall", stall_latency); ("queue", queue_wait) ]
      ();
  s.completed <- s.completed + 1;
  Obs.Registry.Counter.incr s.c_completed 1;
  if k mod s.sample_every = 0 then record_rss s

let step s =
  if s.oom || s.next_req >= Array.length s.arrivals then false
  else begin
    let k = s.next_req in
    s.next_req <- k + 1;
    (try serve_one s k with Workloads.Harness.Out_of_memory_budget -> s.oom <- true);
    (not s.oom) && s.next_req < Array.length s.arrivals
  end

let quantiles_of h =
  {
    Workloads.Server.p50 = Obs.Registry.Histogram.quantile h 0.5;
    p99 = Obs.Registry.Histogram.quantile h 0.99;
    p999 = Obs.Registry.Histogram.quantile h 0.999;
  }

let finish s =
  if not s.oom then begin
    s.stack.Workloads.Harness.drain ();
    try record_rss s with Workloads.Harness.Out_of_memory_budget -> s.oom <- true
  end;
  let clk = clock s in
  {
    Workloads.Server.profile = s.sp.Workloads.Server.name;
    scheme = s.stack.Workloads.Harness.scheme;
    requests = Array.length s.arrivals;
    completed = s.completed;
    wall = Sim.Clock.wall clk;
    app_busy = Sim.Clock.app_busy clk;
    stalled = Sim.Clock.stalled clk;
    latency = quantiles_of s.h_latency;
    stall_latency = quantiles_of s.h_stall;
    queue_wait = quantiles_of s.h_queue;
    service = quantiles_of s.h_service;
    max_queue_depth = s.max_depth;
    peak_rss = Sim.Sampler.peak s.sampler;
    avg_rss = Sim.Sampler.average s.sampler;
    sweeps = s.stack.Workloads.Harness.sweeps ();
    failed_frees = s.stack.Workloads.Harness.failed_frees ();
    leaked = s.leaked;
    dangling_left = s.dangling;
    arrivals = s.arrivals;
    oom_killed = s.oom;
  }

let server_run ?(scale = 1.0) ?seed ?rss_limit ?on_build sp scheme =
  let sp = Workloads.Server.scale scale sp in
  let machine = Alloc.Machine.create () in
  let stack = Workloads.Harness.build scheme ~threads:1 machine in
  (match on_build with Some f -> f stack | None -> ());
  let s = start ?rss_limit ?seed sp stack in
  while step s do
    ()
  done;
  finish s

