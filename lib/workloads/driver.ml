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
  size : int;
  mutable refs : held list;  (* where tracked pointers to it were stored *)
  mutable pos : int;  (* index in [Live.items]; -1 once freed *)
}

(* A tracked pointer's slot: in the root windows, or inside a holder
   that may die first. *)
and held =
  | In_root of Trace.location
  | In_field of obj * int  (* holder, word index *)

(* Growable array of live objects with O(1) random pick and removal. *)
module Live = struct
  type t = { mutable items : obj array; mutable len : int }

  let dummy = { id = -1; size = 0; refs = []; pos = -1 }
  let create () = { items = Array.make 4096 dummy; len = 0 }

  let add t o =
    if t.len = Array.length t.items then
      t.items <- Array.append t.items (Array.make t.len dummy);
    t.items.(t.len) <- o;
    o.pos <- t.len;
    t.len <- t.len + 1

  let remove t o =
    let i = o.pos in
    o.pos <- -1;
    let last = t.len - 1 in
    if i <> last then begin
      t.items.(i) <- t.items.(last);
      t.items.(i).pos <- i
    end;
    t.items.(last) <- dummy;
    t.len <- last

  let pick t rng = if t.len = 0 then None else Some t.items.(Sim.Rng.int rng t.len)
  let mem o = o.pos >= 0

  let to_list t =
    let rec go i acc = if i < 0 then acc else go (i - 1) (t.items.(i) :: acc) in
    go (t.len - 1) []
end

let word = Vmem.word_size
let stack_window = 64 * 1024 (* actively churned stack bytes *)

(* The program a profile runs, streamed op by op into [emit]: object
   [i] is allocated in step [i], and [step_done i] runs after the step's
   closing [Work]. Every draw depends only on the profile, never on an
   address, so the program is the same under every scheme. *)
let emit_program (profile : Profile.t) ~emit ~step_done =
  let rng = Sim.Rng.create profile.Profile.seed in
  let size_rng = Sim.Rng.split rng in
  let life_rng = Sim.Rng.split rng in
  let live = Live.create () in
  let deaths : (int, obj list) Hashtbl.t = Hashtbl.create 4096 in

  (* A root slot: mostly the live top of the stack, else a global. *)
  let pick_root_slot () =
    if Sim.Rng.bool rng 0.85 then
      Trace.Root (Sim.Rng.int rng (stack_window / word))
    else Trace.Global (Sim.Rng.int rng (Layout.globals_size / word))
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
    match holder with
    | None ->
      let loc = pick_root_slot () in
      emit (Trace.Store_ptr { loc; target = o.id });
      o.refs <- In_root loc :: o.refs
    | Some h ->
      let w = Sim.Rng.int rng (h.size / word) in
      emit (Trace.Store_ptr { loc = Trace.Field (h.id, w); target = o.id });
      o.refs <- In_field (h, w) :: o.refs;
      (* Parent / prev pointer: the new object points back at its
         holder, forming the doubly-linked shapes whose cycles only
         zeroing can break once both ends are in quarantine. *)
      if
        o.size >= word
        && Sim.Rng.bool rng profile.Profile.back_pointer_rate
      then begin
        let back = Sim.Rng.int rng (o.size / word) in
        emit
          (Trace.Store_ptr { loc = Trace.Field (o.id, back); target = h.id });
        h.refs <- In_field (o, back) :: h.refs
      end
  in

  (* "Unlucky data": an untracked word that happens to equal a live heap
     address (interior pointers included). Nothing will ever clear it
     except reuse of its holder or stack churn. *)
  let write_false_pointer () =
    match Live.pick live rng with
    | None -> ()
    | Some target ->
      let w = Sim.Rng.int rng (max 1 (target.size / word)) in
      let loc =
        match Live.pick live rng with
        | Some holder when holder.size >= word ->
          Trace.Field (holder.id, Sim.Rng.int rng (holder.size / word))
        | Some _ | None -> pick_root_slot ()
      in
      emit (Trace.Store_interior { loc; target = target.id; word = w })
  in

  let kill o =
    (* An object can be claimed both by a phase teardown and by its
       scheduled death; only the first free is real. *)
    if Live.mem o then begin
      Live.remove live o;
      (* A well-behaved program clears its pointers before freeing; a
         buggy one leaves some dangling. It only clears pointers it
         still owns: slots inside already-freed holders are not touched
         (writing there would be a use-after-free of its own). The
         clear itself writes only when the slot still holds [o]'s
         address: it may have been overwritten or its holder recycled
         since. *)
      List.iter
        (fun held ->
          let loc =
            match held with
            | In_root loc -> Some loc
            | In_field (h, w) when Live.mem h -> Some (Trace.Field (h.id, w))
            | In_field _ -> None
          in
          match loc with
          | Some loc
            when not (Sim.Rng.bool rng profile.Profile.dangling_rate) ->
            emit (Trace.Clear_ptr { loc; target = o.id })
          | Some _ | None -> ())
        o.refs;
      (* Its holders' records are dead weight now: drop them, so a
         holder outliving it does not keep a chain of dead records. *)
      o.refs <- [];
      let thread =
        if profile.Profile.threads > 1 then
          Sim.Rng.int rng profile.Profile.threads
        else 0
      in
      emit (Trace.Free { id = o.id; thread })
    end
  in

  let schedule_death o ~at =
    Hashtbl.replace deaths at
      (o :: Option.value ~default:[] (Hashtbl.find_opt deaths at))
  in

  let ops = profile.Profile.ops in
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
    emit (Trace.Alloc { id = i; size; site });
    let o = { id = i; size; refs = []; pos = -1 } in
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
  let ops = ref [] in
  emit_program profile ~emit:(fun op -> ops := op :: !ops) ~step_done:ignore;
  {
    Trace.name = profile.Profile.name;
    threads = max 1 profile.Profile.threads;
    sites = max 1 profile.Profile.sites;
    ops = Array.of_list (List.rev !ops);
  }

(* Resident memory is sampled this many times a run. *)
let trace_points = 240

let run ?(ops_scale = 1.0)
    ?(rss_limit = Harness.default_rss_limit) ?on_build profile scheme =
  let profile = scaled ops_scale profile in
  let machine = Alloc.Machine.create () in
  let stack = Harness.build scheme ~threads:profile.Profile.threads machine in
  (match on_build with Some f -> f stack | None -> ());
  Alloc.Machine.map_roots machine;
  let sampler = Sim.Sampler.create () in
  let frees = ref 0 in
  let exec =
    Trace.exec ~sites:(max 1 profile.Profile.sites) machine
      {
        Trace.alloc =
          (fun ~id:_ ~site size ->
            let addr = stack.Harness.malloc_site ~site size in
            Alloc.Machine.charge machine
              (int_of_float
                 (profile.Profile.cache_sensitivity
                 *. float_of_int (stack.Harness.cold_penalty size)));
            addr);
        free =
          (fun ~id:_ ~thread addr ->
            stack.Harness.free ~thread addr;
            incr frees);
        pointer_store = stack.Harness.on_pointer_write;
        data_store = (fun ~slot:_ -> ());
        after_op = ignore;
      }
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
