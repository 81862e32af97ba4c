let page = Vmem.page_size

module Quarantine = Minesweeper.Quarantine

(* Stand-in for the Boehm-style allocation path MarkUs ships with: a flat
   surcharge over our JeMalloc model's fast path. *)
let boehm_malloc_surcharge = 70
let boehm_free_surcharge = 35

type sweep_state = {
  entries : Quarantine.entry list;
  visited : (int, unit) Hashtbl.t; (* allocation bases proven reachable *)
  completion : int;
}

type t = {
  machine : Alloc.Machine.t;
  je : Alloc.Jemalloc.t;
  quarantine : Quarantine.t;
  mutable sweep : sweep_state option;
  mutable sweeps : int;
  mutable failed : int;
  mutable visited_bytes : int;
  mutable last_decay_tick : int;
}

(* MarkUs sweeps once quarantine reaches 25 % of the heap, with three
   helper threads beside the sweeper. *)
let threshold = 0.25
let helpers = 3
let threshold_min_bytes = 128 * 1024
let decay_tick_interval = 1_000_000

let cost t = t.machine.Alloc.Machine.cost
let mem t = t.machine.Alloc.Machine.mem
let now t = Alloc.Machine.now t.machine

let create machine =
  {
    machine;
    je = Alloc.Jemalloc.create ~extra_byte:false machine;
    quarantine = Quarantine.create machine ~threads:1;
    sweep = None;
    sweeps = 0;
    failed = 0;
    visited_bytes = 0;
    last_decay_tick = 0;
  }

(* ------------------------------------------------------------------ *)
(* Transitive conservative marking (the Boehm-GC style pass)           *)

let mark_transitive t =
  let visited = Hashtbl.create 4096 in
  let worklist = Stack.create () in
  let visited_bytes = ref 0 in
  let object_visits = ref 0 in
  let consider w =
    if Layout.in_heap w then
      match Alloc.Jemalloc.allocation_containing t.je w with
      | Some (base, usable) when not (Hashtbl.mem visited base) ->
        Hashtbl.replace visited base ();
        Stack.push (base, usable) worklist
      | Some _ | None -> ()
  in
  let root_bytes = ref 0 in
  List.iter
    (fun (base, size) ->
      root_bytes := !root_bytes + size;
      Vmem.iter_committed_words (mem t) ~addr:base ~len:size (fun _ w ->
          consider w))
    Layout.root_regions;
  while not (Stack.is_empty worklist) do
    let base, usable = Stack.pop worklist in
    incr object_visits;
    visited_bytes := !visited_bytes + usable;
    (* Unmapped (quarantined-and-released) pages are skipped by the
       committed-words iterator, as Boehm skips inaccessible memory. *)
    Vmem.iter_committed_words (mem t) ~addr:base ~len:usable (fun _ w ->
        consider w)
  done;
  t.visited_bytes <- t.visited_bytes + !visited_bytes;
  (* The synthetic traces under-connect the live object graph compared to
     a real program, where essentially the whole live heap is reachable;
     charge marking for the larger of the two so the cost comparison
     against the linear sweep stays honest. *)
  let traversed = max !visited_bytes
      (int_of_float (0.85 *. float_of_int (Alloc.Jemalloc.live_bytes t.je))) in
  let c = cost t in
  let busy =
    Sim.Cost.bytes_cost c.Sim.Cost.sweep_per_byte !root_bytes
    + Sim.Cost.bytes_cost c.Sim.Cost.mark_per_byte traversed
    + (!object_visits * 12)
  in
  (visited, busy)

(* ------------------------------------------------------------------ *)
(* Quarantine plumbing (shared shape with MineSweeper, no zeroing)     *)

let unmap_min_bytes = 16384

let covered_pages ~addr ~len =
  if len < unmap_min_bytes then None
  else
    let lo = (addr + page - 1) / page * page in
    let hi = (addr + len) / page * page in
    if hi - lo >= page then Some (lo, hi - lo) else None

let restore_unmapped t (e : Quarantine.entry) =
  if e.Quarantine.unmapped_len > 0 then begin
    match covered_pages ~addr:e.Quarantine.addr ~len:e.Quarantine.usable with
    | None -> assert false
    | Some (lo, len) ->
      Vmem.protect (mem t) ~addr:lo ~len Vmem.Read_write;
      Alloc.Machine.charge t.machine (cost t).Sim.Cost.syscall;
      e.Quarantine.unmapped_len <- 0
  end

let release_all t state =
  let c = cost t in
  List.iter
    (fun (e : Quarantine.entry) ->
      Alloc.Machine.charge t.machine c.Sim.Cost.release_per_entry;
      if Hashtbl.mem state.visited e.Quarantine.addr then begin
        t.failed <- t.failed + 1;
        Quarantine.requeue_failed t.quarantine e
      end
      else begin
        restore_unmapped t e;
        Quarantine.release t.quarantine e;
        Alloc.Jemalloc.free t.je e.Quarantine.addr
      end)
    state.entries

let finish_sweep t state =
  let c = cost t in
  (* Boehm's mostly-parallel collection ends with a stop-the-world pass
     over pages dirtied during concurrent marking. *)
  let dirty_pages = Vmem.soft_dirty_pages (mem t) in
  let rescan =
    Sim.Cost.bytes_cost c.Sim.Cost.mark_per_byte (dirty_pages * page)
  in
  let pause = c.Sim.Cost.stw_signal + (rescan / (helpers + 1)) in
  Sim.Clock.stall t.machine.Alloc.Machine.clock pause;
  Sim.Clock.background t.machine.Alloc.Machine.clock rescan;
  Alloc.Machine.with_sink t.machine Alloc.Machine.Background (fun () ->
      release_all t state);
  t.sweep <- None

let start_sweep t =
  t.sweeps <- t.sweeps + 1;
  let entries = Quarantine.lock_in t.quarantine in
  Vmem.clear_soft_dirty (mem t);
  let visited, busy =
    Alloc.Machine.with_sink t.machine Alloc.Machine.Background (fun () ->
        mark_transitive t)
  in
  Sim.Clock.background t.machine.Alloc.Machine.clock busy;
  (* Marking is latency- not bandwidth-bound, but the same floor applies
     to its linear root scan; the traversal rarely parallelises all the
     way, so keep a conservative floor of the heap at DRAM speed. *)
  let floor_cycles =
    Sim.Cost.bytes_cost 0.0625 (Alloc.Jemalloc.live_bytes t.je)
  in
  let duration = max (busy / (helpers + 1)) floor_cycles in
  t.sweep <- Some { entries; visited; completion = now t + duration }

let trigger_due t =
  let q = t.quarantine in
  let fresh = Quarantine.fresh_mapped_bytes q in
  let heap =
    Alloc.Jemalloc.live_bytes t.je
    - Quarantine.failed_bytes q
    - Quarantine.unmapped_bytes q
  in
  fresh >= threshold_min_bytes
  && float_of_int fresh >= threshold *. float_of_int (max heap 1)

let maybe_sweep t = if t.sweep = None && trigger_due t then start_sweep t

let tick t =
  (match t.sweep with
  | Some state when now t >= state.completion ->
    finish_sweep t state;
    maybe_sweep t
  | Some _ | None -> ());
  let n = now t in
  if n - t.last_decay_tick >= decay_tick_interval then begin
    t.last_decay_tick <- n;
    Alloc.Machine.with_sink t.machine Alloc.Machine.Background (fun () ->
        Alloc.Jemalloc.purge_tick t.je)
  end

let drain t =
  Quarantine.flush_all t.quarantine;
  match t.sweep with
  | Some state -> finish_sweep t state
  | None -> ()

(* MarkUs limits worst-case overheads under extreme allocation rates by
   falling back to stop-the-world collection; model that as an
   allocation pause identical in shape to MineSweeper's. *)
let maybe_pause t =
  match t.sweep with
  | Some state ->
    let heap = max 1 (Alloc.Jemalloc.live_bytes t.je) in
    if
      float_of_int (Quarantine.fresh_mapped_bytes t.quarantine)
      >= 2.0 *. float_of_int heap
    then begin
      let wait = max 0 (state.completion - now t) in
      Sim.Clock.stall t.machine.Alloc.Machine.clock wait;
      tick t
    end
  | None -> ()

let malloc t size =
  tick t;
  maybe_pause t;
  Alloc.Machine.charge t.machine boehm_malloc_surcharge;
  Alloc.Jemalloc.malloc t.je size

let free t addr =
  tick t;
  Alloc.Machine.charge t.machine boehm_free_surcharge;
  if not (Quarantine.contains t.quarantine addr) then begin
    let usable = Alloc.Jemalloc.usable_size t.je addr in
    let e = { Quarantine.addr; usable; unmapped_len = 0; failures = 0 } in
    (match covered_pages ~addr ~len:usable with
    | Some (lo, len) ->
      Vmem.decommit (mem t) ~addr:lo ~len;
      Vmem.protect (mem t) ~addr:lo ~len Vmem.No_access;
      Alloc.Machine.charge t.machine (2 * (cost t).Sim.Cost.syscall);
      e.Quarantine.unmapped_len <- len
    | None -> ());
    Quarantine.push t.quarantine ~thread:0 e;
    maybe_sweep t
  end

let is_quarantined t addr = Quarantine.contains t.quarantine addr
let jemalloc t = t.je
let sweeps t = t.sweeps
let failed_frees t = t.failed
let quarantine_bytes t = Quarantine.total_bytes t.quarantine
let marked_visited_bytes t = t.visited_bytes
