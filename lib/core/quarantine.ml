type entry = {
  addr : int;
  usable : int;
  mutable unmapped_len : int;
  mutable failures : int;
}

let buffer_flush_threshold = 64

(* Synchronization events for the race checker: every protocol-relevant
   transition of the quarantine is observable, so a happens-before
   analysis can reconstruct the push -> flush -> lock_in -> requeue/
   release lifecycle of each entry. Each emission site matches on
   [observer] itself, so without one no event is built. *)
type event =
  | Pushed of { thread : int; raw_thread : int; addr : int; usable : int }
  | Flushed of { thread : int; entries : int }
  | Locked_in of { entries : (int * int) list }  (* (addr, usable) *)
  | Requeued of { addr : int }
  | Released of { addr : int }

type t = {
  machine : Alloc.Machine.t;
  mutable fresh : entry list;
  mutable failed : entry list;
  mutable fresh_mapped : int;
  mutable failed_total : int;
  mutable unmapped : int;
  dedup : (int, entry) Hashtbl.t;
  buffers : entry list array;
  buffer_lens : int array;
  mutable observer : (event -> unit) option;
}

let create machine ~threads =
  assert (threads >= 1);
  {
    machine;
    fresh = [];
    failed = [];
    fresh_mapped = 0;
    failed_total = 0;
    unmapped = 0;
    dedup = Hashtbl.create 4096;
    buffers = Array.make threads [];
    buffer_lens = Array.make threads 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

let threads t = Array.length t.buffers

(* Out-of-range thread ids alias buffer 0 (a real per-thread cache keyed
   by a hashed tid would do the same): correctness is unaffected — the
   entry still reaches the global list at the next flush — but the
   aliasing silently serialises what was meant to be contention-free,
   which is why {!Sanitizer.Trace_lint} flags traces that do this. *)
let clamp_thread t thread =
  if thread >= 0 && thread < Array.length t.buffers then thread else 0

let contains t addr = Hashtbl.mem t.dedup addr
let find t addr = Hashtbl.find_opt t.dedup addr

let account_fresh t e =
  t.fresh_mapped <- t.fresh_mapped + (e.usable - e.unmapped_len);
  t.unmapped <- t.unmapped + e.unmapped_len

let flush_thread t ~thread =
  let thread = clamp_thread t thread in
  let buffered = t.buffers.(thread) in
  if buffered <> [] then begin
    let cost = t.machine.Alloc.Machine.cost in
    Alloc.Machine.charge t.machine
      (t.buffer_lens.(thread) * cost.Sim.Cost.quarantine_flush_per_entry);
    (match t.observer with
    | Some f -> f (Flushed { thread; entries = t.buffer_lens.(thread) })
    | None -> ());
    t.fresh <- List.rev_append buffered t.fresh;
    List.iter (fun e -> account_fresh t e) buffered;
    t.buffers.(thread) <- [];
    t.buffer_lens.(thread) <- 0
  end

let flush_all t =
  for thread = 0 to Array.length t.buffers - 1 do
    flush_thread t ~thread
  done

(* Batched flush for sweep setup: the global-list lock is taken once per
   [batch] entries instead of once per entry, so the per-entry cost drops
   from [quarantine_flush_per_entry] to [quarantine_flush_batch_per_entry]
   plus an amortised [quarantine_flush_lock]. The resulting fresh-list
   order, events and accounting are identical to {!flush_all}. *)
let flush_batch t ~batch =
  let batch = max 1 batch in
  let total = Array.fold_left ( + ) 0 t.buffer_lens in
  if total = 0 then 0
  else begin
    let cost = t.machine.Alloc.Machine.cost in
    let batches = (total + batch - 1) / batch in
    Alloc.Machine.charge t.machine
      ((batches * cost.Sim.Cost.quarantine_flush_lock)
      + (total * cost.Sim.Cost.quarantine_flush_batch_per_entry));
    for thread = 0 to Array.length t.buffers - 1 do
      let buffered = t.buffers.(thread) in
      if buffered <> [] then begin
        (match t.observer with
        | Some f -> f (Flushed { thread; entries = t.buffer_lens.(thread) })
        | None -> ());
        t.fresh <- List.rev_append buffered t.fresh;
        List.iter (fun e -> account_fresh t e) buffered;
        t.buffers.(thread) <- [];
        t.buffer_lens.(thread) <- 0
      end
    done;
    batches
  end

let push t ~thread e =
  assert (not (contains t e.addr));
  let raw_thread = thread in
  let thread = clamp_thread t thread in
  let cost = t.machine.Alloc.Machine.cost in
  Alloc.Machine.charge t.machine cost.Sim.Cost.quarantine_push;
  (match t.observer with
  | Some f -> f (Pushed { thread; raw_thread; addr = e.addr; usable = e.usable })
  | None -> ());
  Hashtbl.replace t.dedup e.addr e;
  t.buffers.(thread) <- e :: t.buffers.(thread);
  t.buffer_lens.(thread) <- t.buffer_lens.(thread) + 1;
  if t.buffer_lens.(thread) >= buffer_flush_threshold then flush_thread t ~thread

let lock_in t =
  flush_all t;
  let locked = List.rev_append t.failed t.fresh in
  t.fresh <- [];
  t.failed <- [];
  t.fresh_mapped <- 0;
  t.failed_total <- 0;
  t.unmapped <- 0;
  (match t.observer with
  | Some f ->
    f (Locked_in { entries = List.map (fun e -> (e.addr, e.usable)) locked })
  | None -> ());
  locked

let requeue_failed t e =
  e.failures <- e.failures + 1;
  t.failed <- e :: t.failed;
  t.failed_total <- t.failed_total + (e.usable - e.unmapped_len);
  t.unmapped <- t.unmapped + e.unmapped_len;
  match t.observer with Some f -> f (Requeued { addr = e.addr }) | None -> ()

let release t e =
  Hashtbl.remove t.dedup e.addr;
  match t.observer with Some f -> f (Released { addr = e.addr }) | None -> ()

let iter_fresh t f = List.iter f t.fresh
let iter_failed t f = List.iter f t.failed

let iter_buffered t f =
  Array.iter (fun buffered -> List.iter f buffered) t.buffers

let fresh_mapped_bytes t = t.fresh_mapped
let failed_bytes t = t.failed_total
let unmapped_bytes t = t.unmapped
let total_bytes t = t.fresh_mapped + t.failed_total + t.unmapped

let entry_count t =
  List.length t.fresh + List.length t.failed
  + Array.fold_left (fun acc l -> acc + List.length l) 0 t.buffers
