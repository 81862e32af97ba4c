let page = Vmem.page_size
let tcache_cap = 16

type stats = {
  mallocs : int;
  frees : int;
  live : int;
  live_bytes : int;
  slab_count : int;
  large_count : int;
}

type slab = {
  base : int;
  cls : int;
  slots : int;
  mutable free : int list; (* free slot indices *)
  mutable used : int; (* slots handed out (including tcache-held) *)
  mutable in_nonfull : bool;
}

type bin = { mutable nonfull : slab list }

type tcache_bin = { mutable items : int list; mutable count : int }

(* Allocation life-cycle events for the race checker: a chunk is
   [Recycled] the moment [free] takes it back (into the thread cache for
   small classes) and [Served] when [malloc] hands it (or fresh memory)
   out. Reuse of quarantined memory would surface as a [Served] of an
   address the quarantine still holds. *)
type event =
  | Served of { addr : int; usable : int; from_tcache : bool }
  | Recycled of { addr : int; to_tcache : bool }

type t = {
  machine : Machine.t;
  extent : Extent.t;
  bins : bin array;
  tcache : tcache_bin array;
  slab_of_page : (int, slab) Hashtbl.t;
  large : (int, int) Hashtbl.t; (* base address -> pages *)
  large_page_index : (int, int) Hashtbl.t; (* page index -> base address *)
  extra_byte : bool;
  mutable live_bytes : int;
  mutable live_allocs : int;
  mutable slab_count : int;
  mutable mallocs : int;
  mutable frees : int;
  mutable observer : (event -> unit) option;
}

let create ?(extra_byte = false) machine =
  {
    machine;
    extent = Extent.create machine;
    bins = Array.init Size_class.count (fun _ -> { nonfull = [] });
    tcache = Array.init Size_class.count (fun _ -> { items = []; count = 0 });
    slab_of_page = Hashtbl.create 1024;
    large = Hashtbl.create 256;
    large_page_index = Hashtbl.create 256;
    extra_byte;
    live_bytes = 0;
    live_allocs = 0;
    slab_count = 0;
    mallocs = 0;
    frees = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

let observe t ev =
  match t.observer with None -> () | Some f -> f ev

let cost t = t.machine.Machine.cost
let charge t n = Machine.charge t.machine n

let new_slab t cls =
  let pages = Size_class.slab_pages cls in
  let base = Extent.alloc t.extent ~pages in
  let slots = Size_class.slab_slots cls in
  let slab =
    { base; cls; slots; free = List.init slots Fun.id; used = 0; in_nonfull = true }
  in
  for i = 0 to pages - 1 do
    Hashtbl.replace t.slab_of_page ((base / page) + i) slab
  done;
  t.slab_count <- t.slab_count + 1;
  slab

let release_slab t slab =
  let pages = Size_class.slab_pages slab.cls in
  for i = 0 to pages - 1 do
    Hashtbl.remove t.slab_of_page ((slab.base / page) + i)
  done;
  t.slab_count <- t.slab_count - 1;
  Extent.dalloc t.extent ~addr:slab.base ~pages

(* Pop one slot from the bin, creating a slab if needed. *)
let bin_pop t cls =
  let bin = t.bins.(cls) in
  let slab =
    match bin.nonfull with
    | s :: _ -> s
    | [] ->
      let s = new_slab t cls in
      bin.nonfull <- [ s ];
      s
  in
  match slab.free with
  | [] -> assert false
  | slot :: rest ->
    slab.free <- rest;
    slab.used <- slab.used + 1;
    if rest = [] then begin
      (* Slab is now full: retire it from the bin. *)
      (match bin.nonfull with
      | s :: tl when s == slab -> bin.nonfull <- tl
      | _ -> bin.nonfull <- List.filter (fun s -> s != slab) bin.nonfull);
      slab.in_nonfull <- false
    end;
    slab.base + (slot * Size_class.size_of_class cls)

let bin_push t slab addr =
  let cls = slab.cls in
  let size = Size_class.size_of_class cls in
  let slot = (addr - slab.base) / size in
  assert (addr = slab.base + (slot * size));
  slab.free <- slot :: slab.free;
  slab.used <- slab.used - 1;
  assert (slab.used >= 0);
  if slab.used = 0 then begin
    if slab.in_nonfull then
      t.bins.(cls).nonfull <- List.filter (fun s -> s != slab) t.bins.(cls).nonfull;
    release_slab t slab
  end
  else if not slab.in_nonfull then begin
    slab.in_nonfull <- true;
    t.bins.(cls).nonfull <- slab :: t.bins.(cls).nonfull
  end

let malloc_small t cls =
  let tc = t.tcache.(cls) in
  (match tc.items with
  | [] ->
    (* Refill half the cache in one batched slow-path trip. *)
    charge t (cost t).Sim.Cost.malloc_slow;
    let batch = tcache_cap / 2 in
    for _ = 1 to batch do
      tc.items <- bin_pop t cls :: tc.items;
      tc.count <- tc.count + 1
    done
  | _ :: _ -> ());
  charge t (cost t).Sim.Cost.malloc_fast;
  match tc.items with
  | [] -> assert false
  | addr :: rest ->
    tc.items <- rest;
    tc.count <- tc.count - 1;
    addr

let free_small t slab addr =
  let cls = slab.cls in
  let tc = t.tcache.(cls) in
  charge t (cost t).Sim.Cost.free_fast;
  tc.items <- addr :: tc.items;
  tc.count <- tc.count + 1;
  if tc.count > tcache_cap then begin
    (* Flush the older half back to the slabs. *)
    charge t (cost t).Sim.Cost.free_slow;
    let keep = tcache_cap / 2 in
    let rec split i = function
      | kept when i = 0 -> ([], kept)
      | [] -> ([], [])
      | x :: tl ->
        let front, back = split (i - 1) tl in
        (x :: front, back)
    in
    let front, back = split keep tc.items in
    tc.items <- front;
    tc.count <- List.length front;
    List.iter
      (fun a ->
        match Hashtbl.find_opt t.slab_of_page (a / page) with
        | Some s -> bin_push t s a
        | None -> assert false)
      back
  end

let malloc t size =
  assert (size >= 0);
  let size = max 1 size + if t.extra_byte then 1 else 0 in
  t.mallocs <- t.mallocs + 1;
  let addr, usable, from_tcache =
    if Size_class.is_small size then begin
      let cls = Size_class.class_of_size size in
      (malloc_small t cls, Size_class.size_of_class cls, true)
    end
    else begin
      charge t (cost t).Sim.Cost.malloc_slow;
      let pages = Size_class.large_pages size in
      let addr = Extent.alloc t.extent ~pages in
      Hashtbl.replace t.large addr pages;
      for i = 0 to pages - 1 do
        Hashtbl.replace t.large_page_index ((addr / page) + i) addr
      done;
      (addr, pages * page, false)
    end
  in
  observe t (Served { addr; usable; from_tcache });
  (* Applications initialise what they allocate; model that by zeroing the
     usable range and charging the streaming writes. *)
  Vmem.zero_range t.machine.Machine.mem ~addr ~len:usable;
  Machine.charge_bytes t.machine (cost t).Sim.Cost.touch_per_byte usable;
  t.live_bytes <- t.live_bytes + usable;
  t.live_allocs <- t.live_allocs + 1;
  addr

let lookup_usable t addr =
  match Hashtbl.find_opt t.large addr with
  | Some pages -> pages * page
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | Some slab -> Size_class.size_of_class slab.cls
    | None -> invalid_arg "Jemalloc.usable_size: not an allocation")

let usable_size = lookup_usable

let free t addr =
  t.frees <- t.frees + 1;
  (match Hashtbl.find_opt t.large addr with
  | Some pages ->
    charge t (cost t).Sim.Cost.free_slow;
    observe t (Recycled { addr; to_tcache = false });
    Hashtbl.remove t.large addr;
    for i = 0 to pages - 1 do
      Hashtbl.remove t.large_page_index ((addr / page) + i)
    done;
    Extent.dalloc t.extent ~addr ~pages;
    t.live_bytes <- t.live_bytes - (pages * page)
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | Some slab ->
      observe t (Recycled { addr; to_tcache = true });
      t.live_bytes <- t.live_bytes - Size_class.size_of_class slab.cls;
      free_small t slab addr
    | None -> invalid_arg "Jemalloc.free: not an allocation"));
  t.live_allocs <- t.live_allocs - 1

let is_live t addr =
  Hashtbl.mem t.large addr
  ||
  match Hashtbl.find_opt t.slab_of_page (addr / page) with
  | None -> false
  | Some slab ->
    let size = Size_class.size_of_class slab.cls in
    let slot = (addr - slab.base) / size in
    addr = slab.base + (slot * size)
    && (not (List.mem slot slab.free))
    && not (List.mem addr t.tcache.(slab.cls).items)

(* Conservative-GC style lookup: the allocation whose usable range
   contains [addr], if any. Interior pointers resolve to the base. *)
let allocation_containing t addr =
  match Hashtbl.find_opt t.large_page_index (addr / page) with
  | Some base ->
    let pages = Hashtbl.find t.large base in
    Some (base, pages * page)
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | None -> None
    | Some slab ->
      let size = Size_class.size_of_class slab.cls in
      let offset = addr - slab.base in
      if offset < 0 || offset >= slab.slots * size then None
      else Some (slab.base + (offset / size * size), size))

let live_bytes t = t.live_bytes
let live_allocations t = t.live_allocs
let extent t = t.extent
let extra_byte t = t.extra_byte

let iter_slabs t f =
  (* slab_of_page has one entry per page of each slab; dedup by base. *)
  let seen = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ slab ->
      if not (Hashtbl.mem seen slab.base) then begin
        Hashtbl.replace seen slab.base ();
        f ~base:slab.base ~cls:slab.cls ~slots:slab.slots ~used:slab.used
          ~free_slots:slab.free
      end)
    t.slab_of_page

let iter_large t f = Hashtbl.iter (fun base pages -> f ~base ~pages) t.large

let tcache_count t cls =
  assert (cls >= 0 && cls < Size_class.count);
  t.tcache.(cls).count

let tcache_items t cls =
  assert (cls >= 0 && cls < Size_class.count);
  t.tcache.(cls).items
let set_extent_hooks t hooks = Extent.set_hooks t.extent hooks
let purge_tick t = Extent.purge_tick t.extent
let purge_all t = Extent.purge_all t.extent
let retained_dirty_bytes t = Extent.retained_dirty_bytes t.extent
let machine t = t.machine
let wilderness t = Extent.wilderness t.extent

let stats t =
  {
    mallocs = t.mallocs;
    frees = t.frees;
    live = t.live_allocs;
    live_bytes = t.live_bytes;
    slab_count = t.slab_count;
    large_count = Hashtbl.length t.large;
  }

let attach_obs t reg =
  Obs.Registry.derive_counter reg "alloc.mallocs" (fun () -> t.mallocs);
  Obs.Registry.derive_counter reg "alloc.frees" (fun () -> t.frees);
  Obs.Registry.derive_gauge reg "alloc.live_allocations" (fun () ->
      t.live_allocs);
  Obs.Registry.derive_gauge reg "alloc.live_bytes" (fun () -> t.live_bytes);
  Obs.Registry.derive_gauge reg "alloc.retained_dirty_bytes" (fun () ->
      retained_dirty_bytes t)
