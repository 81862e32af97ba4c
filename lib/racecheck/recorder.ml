module Instance = Minesweeper.Instance
module Quarantine = Minesweeper.Quarantine
module Trace = Workloads.Trace
module Diagnostic = Sanitizer.Diagnostic

(* ------------------------------------------------------------------ *)
(* Observer session: subscribes to every instrumentation hook of one
   instance and linearises what they report into an Event.t stream.    *)

type session = {
  ms : Instance.t;
  threads : int;
  mutable events_rev : Event.t list;
  mutable seq : int;
  mutable current : int;  (** mutator issuing the op being replayed *)
  mutable cur_sweep : int;
  mutable pending_lock : (int * int) list;
  mutable window_writes : int;
  on_event : (Event.t -> unit) option;
}

let mutator s = Event.Mutator (if s.current >= 0 && s.current < s.threads then s.current else 0)

let emit s tid kind =
  let e = { Event.seq = s.seq; tid; kind } in
  s.events_rev <- e :: s.events_rev;
  s.seq <- s.seq + 1;
  match s.on_event with
  | Some f -> f e
  | None -> ()

let attach ?on_event ms ~threads =
  let s =
    {
      ms;
      threads;
      events_rev = [];
      seq = 0;
      current = 0;
      cur_sweep = 0;
      pending_lock = [];
      window_writes = 0;
      on_event;
    }
  in
  let machine = Instance.machine ms in
  let mem = machine.Alloc.Machine.mem in
  (* Mutator writes matter only inside the sweep window: before lock-in
     the frozen set reflects them (acquire edge), after completion the
     release decision is already made. *)
  Vmem.set_write_observer mem (fun ~addr ~value ~gen ->
      if Instance.sweep_in_progress ms then begin
        s.window_writes <- s.window_writes + 1;
        emit s (mutator s) (Event.Write { addr; value; gen })
      end);
  Quarantine.set_observer (Instance.quarantine ms) (function
    | Quarantine.Pushed { thread = _; raw_thread; addr; usable } ->
      emit s (mutator s) (Event.Push { raw_thread; addr; usable })
    | Quarantine.Flushed { thread; entries = _ } ->
      emit s (mutator s) (Event.Flush { thread })
    | Quarantine.Locked_in { entries } ->
      (* Instance confirms with Sweep_locked right after; combine there
         so the event carries the sweep number. *)
      s.pending_lock <- entries
    | Quarantine.Requeued { addr } ->
      emit s Event.Sweeper (Event.Requeue { sweep = s.cur_sweep; addr })
    | Quarantine.Released { addr } ->
      emit s Event.Sweeper (Event.Release { sweep = s.cur_sweep; addr }));
  Instance.set_sync_observer ms (function
    | Instance.Sweep_locked { sweep; entries = _ } ->
      s.cur_sweep <- sweep;
      emit s Event.Sweeper (Event.Lock_in { sweep; entries = s.pending_lock });
      s.pending_lock <- []
    | Instance.Mark_page _ | Instance.Rescan_page _ ->
      (* The sim's marking runs atomically w.r.t. mutator ops, so the
         per-page reads carry no ordering information here; dropping
         them bounds the stream (Protocol streams keep them). *)
      ()
    | Instance.Mark_completed { sweep; scanned_bytes = _ } ->
      emit s Event.Sweeper (Event.Mark_done { sweep })
    | Instance.Stw_fence { sweep } -> emit s Event.Stw (Event.Fence { sweep })
    | Instance.Stage_boundary { sweep; stage; enter } ->
      emit s Event.Sweeper
        (Event.Stage
           { sweep; stage = Minesweeper.Pipeline.stage_name stage; enter })
    | Instance.Sweep_completed { sweep } ->
      emit s Event.Sweeper (Event.Sweep_done { sweep }));
  Alloc.Jemalloc.set_observer (Instance.jemalloc ms) (function
    | Alloc.Jemalloc.Served { addr; usable; from_tcache = _ } ->
      emit s (mutator s) (Event.Serve { addr; usable })
    | Alloc.Jemalloc.Recycled _ -> ());
  s

let detach s =
  let machine = Instance.machine s.ms in
  Vmem.clear_write_observer machine.Alloc.Machine.mem;
  Quarantine.clear_observer (Instance.quarantine s.ms);
  Instance.clear_sync_observer s.ms;
  Alloc.Jemalloc.clear_observer (Instance.jemalloc s.ms)

let events s = List.rev s.events_rev
let set_thread s t = s.current <- t

(* ------------------------------------------------------------------ *)
(* Trace replay under observation                                      *)

type report = {
  trace_name : string;
  config_name : string;
  threads : int;
  ops : int;
  sweeps : int;
  events : int;
  window_writes : int;
  diags : Diagnostic.t list;
  stream : Event.t list;
}

let run ?(config = Minesweeper.Config.default) ?(config_name = "?")
    (trace : Trace.t) =
  let threads = max 1 trace.Trace.threads in
  let machine = Alloc.Machine.create () in
  let mem = machine.Alloc.Machine.mem in
  List.iter
    (fun (base, size) -> Vmem.map mem ~addr:base ~len:size)
    Layout.root_regions;
  let ms = Instance.create ~config ~threads machine in
  let je = Instance.jemalloc ms in
  let s = attach ms ~threads in
  let addr_of = Hashtbl.create 4096 in
  let resolve_loc = function
    | Trace.Root w ->
      Some (Layout.stack_base + (8 * (w mod Trace.root_window_words)))
    | Trace.Field (id, w) -> (
      match Hashtbl.find_opt addr_of id with
      | Some (addr, size) when size >= 8 -> Some (addr + (8 * (w mod (size / 8))))
      | Some _ | None -> None)
  in
  let writable slot =
    Vmem.is_mapped mem slot
    && Vmem.is_committed mem slot
    && Vmem.protection mem slot = Vmem.Read_write
  in
  Array.iter
    (fun op ->
      match op with
      | Trace.Alloc { id; size; site = _ } ->
        s.current <- 0;
        let addr = Instance.malloc ms size in
        Hashtbl.replace addr_of id (addr, size);
        Instance.tick ms
      | Trace.Free { id; thread } -> (
        match Hashtbl.find_opt addr_of id with
        | Some (addr, _) ->
          Hashtbl.remove addr_of id;
          s.current <- (if thread >= 0 && thread < threads then thread else 0);
          Instance.free ms ~thread addr;
          s.current <- 0
        | None -> ())
      | Trace.Store_ptr { loc; target } -> (
        match (resolve_loc loc, Hashtbl.find_opt addr_of target) with
        | Some slot, Some (taddr, _) when writable slot ->
          Vmem.store mem slot taddr
        | _ -> ())
      | Trace.Clear_ptr { loc; target } -> (
        match (resolve_loc loc, Hashtbl.find_opt addr_of target) with
        | Some slot, Some (taddr, _) when writable slot ->
          if Vmem.load mem slot = taddr then Vmem.store mem slot 0
        | _ -> ())
      | Trace.Store_data { loc; value } -> (
        match resolve_loc loc with
        | Some slot when writable slot ->
          let concrete =
            if value >= 0 then value
            else
              match Hashtbl.find_opt addr_of (-value - 1) with
              | Some (addr, _) -> addr
              | None -> 0
          in
          Vmem.store mem slot concrete
        | _ -> ())
      | Trace.Work cycles -> Alloc.Machine.charge machine cycles)
    trace.Trace.ops;
  Instance.drain ms;
  detach s;
  ignore je;
  let evs = events s in
  let diags = Hb.analyze ~threads evs in
  (* Export through the instance's own observability: rc.* counters next
     to the ms.* ones, race spans in the trace ring. *)
  let reg = Instance.registry ms in
  let count name v = Obs.Registry.Counter.incr (Obs.Registry.counter reg name) v in
  count "rc.events" (List.length evs);
  count "rc.window_writes" s.window_writes;
  count "rc.races" (List.length diags);
  let ring = Instance.trace_ring ms in
  let now = Alloc.Machine.now machine in
  List.iter
    (fun (d : Diagnostic.t) ->
      let p = Obs.Trace_ring.enter ~now Obs.Trace_ring.Race d.Diagnostic.rule in
      Obs.Trace_ring.exit ring p ~now
        ~attrs:[ ("event", d.Diagnostic.op_index) ]
        ())
    diags;
  {
    trace_name = trace.Trace.name;
    config_name;
    threads;
    ops = Array.length trace.Trace.ops;
    sweeps = (Instance.stats ms).Minesweeper.Stats.sweeps;
    events = List.length evs;
    window_writes = s.window_writes;
    diags;
    stream = evs;
  }
