type result = {
  benchmark : string;
  scheme : string;
  wall : int;
  app_busy : int;
  background_busy : int;
  stalled : int;
  cpu_utilisation : float;
  avg_rss : float;
  peak_rss : int;
  rss_trace : (float * int) array;
  sweeps : int;
  failed_frees : int;
  allocations : int;
  frees : int;
  live_bytes_end : int;
  oom_killed : bool;
      (* exceeded the memory budget and was terminated early, like the
         paper's unoptimised gcc/milc runs (Figure 16's ">" entries) *)
  metrics : (string * int) list;
}

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

let run ?(trace_points = 240) ?(ops_scale = 1.0)
    ?(rss_limit = Harness.default_rss_limit) ?on_build profile scheme =
  let profile =
    if ops_scale = 1.0 then profile else Profile.scale_ops ops_scale profile
  in
  let machine = Alloc.Machine.create () in
  let mem = machine.Alloc.Machine.mem in
  let stack = Harness.build scheme ~threads:profile.Profile.threads machine in
  (match on_build with Some f -> f stack | None -> ());
  List.iter
    (fun (base, size) -> Vmem.map mem ~addr:base ~len:size)
    Layout.root_regions;
  let rng = Sim.Rng.create profile.Profile.seed in
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
    stack.Harness.on_pointer_write ~slot ~old_value ~value
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
      if Sim.Rng.bool rng profile.Profile.root_fraction then None
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
        && Sim.Rng.bool rng profile.Profile.back_pointer_rate
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
          && not (Sim.Rng.bool rng profile.Profile.dangling_rate)
          && slot_writable slot
          && Vmem.load mem slot = o.addr
        then store_ptr slot 0)
      o.refs;
    let thread =
      if profile.Profile.threads > 1 then Sim.Rng.int rng profile.Profile.threads
      else 0
    in
      stack.Harness.free ~thread o.addr;
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

  let ops = profile.Profile.ops in
  let sample_every = max 1 (ops / trace_points) in
  let oom = ref false in
  let record () = Harness.sample_rss stack sampler ~limit:rss_limit in

  (try
  for i = 0 to ops - 1 do
    (match Hashtbl.find_opt deaths i with
    | Some dead ->
      Hashtbl.remove deaths i;
      List.iter kill dead
    | None -> ());
    (match profile.Profile.phase_ops with
    | Some phase when i > 0 && i mod phase = 0 ->
      (* Phase boundary: the program tears down most of its structures
         (gcc between functions, xalancbmk between documents). *)
      let victims =
        List.filter
          (fun _ -> Sim.Rng.bool rng profile.Profile.phase_kill)
          (Live.to_list live)
      in
      List.iter kill victims
    | Some _ | None -> ());
    let size = Sim.Dist.sample profile.Profile.size size_rng in
    let site = Trace.site_of_size ~sites:profile.Profile.sites size in
    let addr = stack.Harness.malloc_site ~site size in
    Alloc.Machine.charge machine
      (int_of_float
         (profile.Profile.cache_sensitivity
          *. float_of_int (stack.Harness.cold_penalty size)));
    let o = { id = !next_id; addr; size; refs = [] } in
    incr next_id;
    Live.add live o;
    if Sim.Rng.bool rng profile.Profile.pointer_density then add_tracked_ref o;
    if Sim.Rng.bool rng profile.Profile.false_pointer_rate then
      write_false_pointer ();
    if not (Sim.Rng.bool rng profile.Profile.leak_rate) then begin
      let lifetime_dist =
        match profile.Profile.lifetime_large with
        | Some d when size >= 16384 -> d
        | Some _ | None -> profile.Profile.lifetime
      in
      let lifetime = Sim.Dist.sample lifetime_dist life_rng in
      let at = i + 1 + lifetime in
      if at < ops then schedule_death o ~at
    end;
    churn_stack ();
    Alloc.Machine.charge machine profile.Profile.work_per_op;
    stack.Harness.tick ();
    if i mod sample_every = 0 then record ()
  done;
  stack.Harness.drain ();
  record ()
  with Harness.Out_of_memory_budget -> oom := true);

  let clock = machine.Alloc.Machine.clock in
  (* On heavily threaded runs (the paper's i7-7700 has 4 cores / 8 SMT
     threads) the sweeper and helper threads compete with the application
     for cores: a share of background work surfaces as application
     time. *)
  let contention =
    let threads = profile.Profile.threads in
    if threads >= 4 then Float.min 0.4 (float_of_int (threads - 2) /. 12.0)
    else 0.0
  in
  if contention > 0.0 then
    Sim.Clock.stall clock
      (int_of_float (contention *. float_of_int (Sim.Clock.background_busy clock)));
  {
    benchmark = profile.Profile.name;
    scheme = stack.Harness.scheme;
    wall = Sim.Clock.wall clock;
    app_busy = Sim.Clock.app_busy clock;
    background_busy = Sim.Clock.background_busy clock;
    stalled = Sim.Clock.stalled clock;
    cpu_utilisation = Sim.Clock.cpu_utilisation clock;
    avg_rss = Sim.Sampler.average sampler;
    peak_rss = Sim.Sampler.peak sampler;
    rss_trace = Sim.Sampler.normalised sampler ~points:trace_points;
    sweeps = stack.Harness.sweeps ();
    failed_frees = stack.Harness.failed_frees ();
    allocations = ops;
    frees = !frees;
    live_bytes_end = stack.Harness.live_bytes ();
    oom_killed = !oom;
    metrics =
      (match stack.Harness.obs with
      | Some reg -> Obs.Registry.snapshot reg
      | None -> []);
  }

let slowdown ~baseline r = float_of_int r.wall /. float_of_int baseline.wall

let memory_overhead ~baseline r = r.avg_rss /. baseline.avg_rss

let peak_memory_overhead ~baseline r =
  float_of_int r.peak_rss /. float_of_int baseline.peak_rss

let cpu_overhead ~baseline r = r.cpu_utilisation /. baseline.cpu_utilisation
