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

let word = Vmem.word_size
let stack_window = 64 * 1024 (* actively churned stack bytes *)

(* The generator's state is flat ints, so a step allocates nothing but
   the ops it emits, and the state grows with the live objects and the
   pending deaths, not with the program's length.

   A live object sits in a reused slot of [objs], four ints: its id,
   size, index in [live] and the head of its refs list (where tracked
   pointers to it were stored). A free slot holds id [-1] and links the
   free list through its index field. Every remembered reference to an
   object, a pointer's holder or a scheduled death, is a (slot, id)
   pair: it names the object only while that slot still holds that id,
   so once the object is freed it reads as dead, even after the slot
   is reused. Refs and each step's deaths are newest-first lists in one
   pool of four-int nodes: (holder slot, holder id, word, next) for a
   ref, whose holder is [-1] for a root slot, with the root code (see
   [root_loc]) as its word; (slot, id, unused, next) for a death. *)
type state = {
  mutable objs : int array;
  mutable slots : int;  (* slots ever used *)
  mutable free_slot : int;  (* head of the free slots, or -1 *)
  mutable live : int array;  (* live objects' slots: O(1) pick and removal *)
  mutable live_len : int;
  mutable nodes : int array;
  mutable node_count : int;  (* nodes ever used *)
  mutable free_node : int;  (* head of the free nodes, or -1 *)
  deaths : Flat_table.t;  (* step -> head node of its deaths *)
  mutable victims : int array;  (* a phase teardown's picks *)
}

let create_state () =
  {
    objs = Array.make (4 * 1024) 0;
    slots = 0;
    free_slot = -1;
    live = Array.make 1024 0;
    live_len = 0;
    nodes = Array.make (4 * 1024) 0;
    node_count = 0;
    free_node = -1;
    deaths = Flat_table.create ~width:1;
    victims = Array.make 1024 0;
  }

let doubled a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] obj_id st o = st.objs.(4 * o)
let[@inline] obj_size st o = st.objs.((4 * o) + 1)
let[@inline] obj_refs st o = st.objs.((4 * o) + 3)

(* A fresh slot for object [id], appended to [live]. *)
let add_obj st ~id ~size =
  let o =
    if st.free_slot >= 0 then begin
      let o = st.free_slot in
      st.free_slot <- st.objs.((4 * o) + 2);
      o
    end
    else begin
      let o = st.slots in
      if 4 * (o + 1) > Array.length st.objs then st.objs <- doubled st.objs;
      st.slots <- o + 1;
      o
    end
  in
  if st.live_len = Array.length st.live then st.live <- doubled st.live;
  let objs = st.objs in
  objs.(4 * o) <- id;
  objs.((4 * o) + 1) <- size;
  objs.((4 * o) + 2) <- st.live_len;
  objs.((4 * o) + 3) <- -1;
  st.live.(st.live_len) <- o;
  st.live_len <- st.live_len + 1;
  o

(* Take slot [o] out of [live] (the last live object fills its place)
   and free it. *)
let remove_obj st o =
  let objs = st.objs in
  let i = objs.((4 * o) + 2) in
  let last = st.live_len - 1 in
  if i <> last then begin
    let moved = st.live.(last) in
    st.live.(i) <- moved;
    objs.((4 * moved) + 2) <- i
  end;
  st.live_len <- last;
  objs.(4 * o) <- -1;
  objs.((4 * o) + 2) <- st.free_slot;
  st.free_slot <- o

(* A uniformly drawn live object's slot, or -1 without a draw when
   nothing is live. *)
let pick st rng =
  if st.live_len = 0 then -1 else st.live.(Sim.Rng.int rng st.live_len)

let new_node st a b c next =
  let n =
    if st.free_node >= 0 then begin
      let n = st.free_node in
      st.free_node <- st.nodes.((4 * n) + 3);
      n
    end
    else begin
      let n = st.node_count in
      if 4 * (n + 1) > Array.length st.nodes then st.nodes <- doubled st.nodes;
      st.node_count <- n + 1;
      n
    end
  in
  let nodes = st.nodes in
  nodes.(4 * n) <- a;
  nodes.((4 * n) + 1) <- b;
  nodes.((4 * n) + 2) <- c;
  nodes.((4 * n) + 3) <- next;
  n

let free_node st n =
  st.nodes.((4 * n) + 3) <- st.free_node;
  st.free_node <- n

(* Remember that a pointer to slot [o]'s object was stored at [word] of
   the object [holder_id] in slot [holder], or at a root ([holder] -1,
   [word] the root code). *)
let add_ref st o ~holder ~holder_id ~word =
  st.objs.((4 * o) + 3) <- new_node st holder holder_id word (obj_refs st o)

let schedule_death st ~at o =
  let id = obj_id st o in
  let e = Flat_table.find st.deaths at 0 in
  if e >= 0 then
    Flat_table.set st.deaths e 0
      (new_node st o id 0 st.deaths.Flat_table.rows.(e))
  else
    let n = new_node st o id 0 (-1) in
    Flat_table.set st.deaths (Flat_table.add st.deaths at 0) 0 n

(* A root slot is coded as one int: a stack word [w] as [w], a globals
   word [w] as [-1 - w]. *)
let root_loc code =
  if code >= 0 then Trace.Root code else Trace.Global (-1 - code)

(* The program a profile runs, streamed op by op into [emit]: object
   [i] is allocated in step [i], and [step_done i] runs after the step's
   closing [Work]. Every draw depends only on the profile, never on an
   address, so the program is the same under every scheme. *)
let emit_program (profile : Profile.t) ~emit ~step_done =
  let rng = Sim.Rng.create profile.Profile.seed in
  let size_rng = Sim.Rng.split rng in
  let life_rng = Sim.Rng.split rng in
  let st = create_state () in

  (* A root slot: mostly the live top of the stack, else a global. *)
  let pick_root_code () =
    if Sim.Rng.bool rng 0.85 then Sim.Rng.int rng (stack_window / word)
    else -1 - Sim.Rng.int rng (Layout.globals_size / word)
  in

  (* Store [o]'s address somewhere and remember where, so the free path
     can clear it (or deliberately leave it dangling). *)
  let add_tracked_ref o =
    let id = obj_id st o in
    let h =
      if Sim.Rng.bool rng profile.Profile.root_fraction then -1
      else
        let h = pick st rng in
        if h >= 0 && obj_size st h >= word && obj_id st h <> id then h else -1
    in
    if h < 0 then begin
      let code = pick_root_code () in
      emit (Trace.Store_ptr { loc = root_loc code; target = id });
      add_ref st o ~holder:(-1) ~holder_id:0 ~word:code
    end
    else begin
      let h_id = obj_id st h in
      let w = Sim.Rng.int rng (obj_size st h / word) in
      emit (Trace.Store_ptr { loc = Trace.Field (h_id, w); target = id });
      add_ref st o ~holder:h ~holder_id:h_id ~word:w;
      (* Parent / prev pointer: the new object points back at its
         holder, forming the doubly-linked shapes whose cycles only
         zeroing can break once both ends are in quarantine. *)
      let size = obj_size st o in
      if size >= word && Sim.Rng.bool rng profile.Profile.back_pointer_rate
      then begin
        let back = Sim.Rng.int rng (size / word) in
        emit (Trace.Store_ptr { loc = Trace.Field (id, back); target = h_id });
        add_ref st h ~holder:o ~holder_id:id ~word:back
      end
    end
  in

  (* "Unlucky data": an untracked word that happens to equal a live heap
     address (interior pointers included). Nothing will ever clear it
     except reuse of its holder or stack churn. *)
  let write_false_pointer () =
    let target = pick st rng in
    if target >= 0 then begin
      let w = Sim.Rng.int rng (max 1 (obj_size st target / word)) in
      let holder = pick st rng in
      let loc =
        if holder >= 0 && obj_size st holder >= word then
          Trace.Field
            (obj_id st holder, Sim.Rng.int rng (obj_size st holder / word))
        else root_loc (pick_root_code ())
      in
      emit
        (Trace.Store_interior { loc; target = obj_id st target; word = w })
    end
  in

  let kill o id =
    (* An object can be claimed both by a phase teardown and by its
       scheduled death; only the first free is real. *)
    if obj_id st o = id then begin
      let refs = obj_refs st o in
      remove_obj st o;
      (* A well-behaved program clears its pointers before freeing; a
         buggy one leaves some dangling. It only clears pointers it
         still owns: slots inside already-freed holders are not touched
         (writing there would be a use-after-free of its own). The
         clear itself writes only when the slot still holds [o]'s
         address: it may have been overwritten or its holder recycled
         since. Its refs go back to the pool, so a holder outliving it
         does not keep a chain of dead records. *)
      let n = ref refs in
      while !n >= 0 do
        let nodes = st.nodes and b = 4 * !n in
        let h = nodes.(b) and h_id = nodes.(b + 1) and w = nodes.(b + 2) in
        let next = nodes.(b + 3) in
        if h < 0 then begin
          if not (Sim.Rng.bool rng profile.Profile.dangling_rate) then
            emit (Trace.Clear_ptr { loc = root_loc w; target = id })
        end
        else if
          obj_id st h = h_id
          && not (Sim.Rng.bool rng profile.Profile.dangling_rate)
        then
          emit (Trace.Clear_ptr { loc = Trace.Field (h_id, w); target = id });
        free_node st !n;
        n := next
      done;
      let thread =
        if profile.Profile.threads > 1 then
          Sim.Rng.int rng profile.Profile.threads
        else 0
      in
      emit (Trace.Free { id; thread })
    end
  in

  (* Step [i]'s scheduled deaths, newest first. *)
  let kill_due i =
    let e = Flat_table.find st.deaths i 0 in
    if e >= 0 then begin
      let n = ref st.deaths.Flat_table.rows.(e) in
      Flat_table.remove st.deaths e;
      while !n >= 0 do
        let b = 4 * !n in
        let o = st.nodes.(b) and id = st.nodes.(b + 1) in
        let next = st.nodes.(b + 3) in
        free_node st !n;
        kill o id;
        n := next
      done
    end
  in

  (* Phase boundary: the program tears down most of its structures (gcc
     between functions, xalancbmk between documents). Every live object
     is drawn for in [live] order before the first is freed. *)
  let teardown () =
    if Array.length st.victims < st.live_len then
      st.victims <- Array.make (Array.length st.live) 0;
    let victims = st.victims in
    let count = ref 0 in
    for k = 0 to st.live_len - 1 do
      if Sim.Rng.bool rng profile.Profile.phase_kill then begin
        victims.(!count) <- st.live.(k);
        incr count
      end
    done;
    for k = 0 to !count - 1 do
      let o = victims.(k) in
      kill o (obj_id st o)
    done
  in

  let ops = profile.Profile.ops in
  for i = 0 to ops - 1 do
    kill_due i;
    (match profile.Profile.phase_ops with
    | Some phase when i > 0 && i mod phase = 0 -> teardown ()
    | Some _ | None -> ());
    let size = Sim.Dist.sample profile.Profile.size size_rng in
    let site = Trace.site_of_size ~sites:profile.Profile.sites size in
    emit (Trace.Alloc { id = i; size; site });
    let o = add_obj st ~id:i ~size in
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
      if at < ops then schedule_death st ~at o
    end;
    (* Stack frames dying: pointer-typed locals are "overwritten"; the
       instrumentation sees those too. *)
    for _ = 1 to 2 do
      emit (Trace.Zero (Trace.Root (Sim.Rng.int rng (stack_window / word))))
    done;
    emit (Trace.Work profile.Profile.work_per_op);
    step_done i
  done

let scaled ops_scale profile =
  if ops_scale = 1.0 then profile else Profile.scale_ops ops_scale profile

let program ?(ops_scale = 1.0) profile =
  let profile = scaled ops_scale profile in
  let ops = Trace.Op_buffer.create () in
  emit_program profile ~emit:(Trace.Op_buffer.add ops) ~step_done:ignore;
  {
    Trace.name = profile.Profile.name;
    threads = max 1 profile.Profile.threads;
    sites = max 1 profile.Profile.sites;
    ops = Trace.Op_buffer.contents ops;
  }

(* Resident memory is sampled this many times a run. *)
let trace_points = 240

let run ?(ops_scale = 1.0)
    ?(rss_limit = Harness.default_rss_limit) ?on_build ?observe profile scheme =
  let profile = scaled ops_scale profile in
  let machine = Alloc.Machine.create () in
  let stack = Harness.build scheme ~threads:profile.Profile.threads machine in
  (match on_build with Some f -> f stack | None -> ());
  Alloc.Machine.map_roots machine;
  let sampler = Sim.Sampler.create () in
  let frees = ref 0 in
  let served =
    Trace.serve ~sensitivity:profile.Profile.cache_sensitivity stack
  in
  let counted =
    {
      served with
      Trace.free =
        (fun ~id ~thread addr ->
          served.Trace.free ~id ~thread addr;
          incr frees);
    }
  in
  let exec =
    Trace.exec ~sites:(max 1 profile.Profile.sites) machine
      (match observe with Some f -> f stack counted | None -> counted)
  in
  let ops = profile.Profile.ops in
  let sample_every = max 1 (ops / trace_points) in
  let oom = ref false in
  let record () = Harness.sample_rss stack sampler ~limit:rss_limit in
  (try
     emit_program profile ~emit:exec ~step_done:(fun i ->
         stack.Harness.tick ();
         if i mod sample_every = 0 then record ());
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
