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
}

let mutator s = Event.Mutator (if s.current >= 0 && s.current < s.threads then s.current else 0)

let emit s tid kind =
  s.events_rev <- { Event.seq = s.seq; tid; kind } :: s.events_rev;
  s.seq <- s.seq + 1

let attach ms ~threads =
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

let layer s (on : Trace.target) =
  {
    on with
    Trace.free =
      (fun ~id ~thread addr ->
        set_thread s thread;
        on.free ~id ~thread addr;
        set_thread s 0);
  }

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
  let ms = Sanitizer.Sweep_oracle.fresh_instance ~config ~threads in
  let s = attach ms ~threads in
  Trace.run trace (Instance.machine ms)
    (layer s (Sanitizer.Sweep_oracle.serve ms));
  Instance.drain ms;
  detach s;
  let evs = events s in
  let diags = Hb.analyze ~threads evs in
  {
    trace_name = trace.Trace.name;
    config_name;
    threads;
    ops = Array.length trace.Trace.ops;
    sweeps = Option.get (Obs.Registry.read (Instance.registry ms) "ms.sweeps");
    events = List.length evs;
    window_writes = s.window_writes;
    diags;
    stream = evs;
  }
