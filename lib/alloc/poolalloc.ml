let page = Vmem.page_size

(* ------------------------------------------------------------------ *)
(* The pooling plan: the runtime-neutral product of the static siteflow
   analysis (lib/flowcheck computes it; this allocator only consumes
   it). Sites are mapped onto pools; a pool either recycles freed slots
   internally or retires them forever. Address space never moves
   between pools — extents are requested from the shared [Extent]
   allocator but never returned to it, so its first-fit reuse can never
   hand one pool's freed range to another. *)

type plan = {
  sites : int;
  pools : int;
  pool_of_site : int array;
  recycles : bool array;
}

let identity_plan ~sites =
  let sites = max 1 sites in
  {
    sites;
    pools = sites;
    pool_of_site = Array.init sites Fun.id;
    recycles = Array.make sites true;
  }

let validate_plan p =
  if p.sites < 1 then invalid_arg "Poolalloc.plan: sites must be >= 1";
  if p.pools < 1 then invalid_arg "Poolalloc.plan: pools must be >= 1";
  if Array.length p.pool_of_site <> p.sites then
    invalid_arg "Poolalloc.plan: pool_of_site length <> sites";
  if Array.length p.recycles <> p.pools then
    invalid_arg "Poolalloc.plan: recycles length <> pools";
  Array.iter
    (fun pool ->
      if pool < 0 || pool >= p.pools then
        invalid_arg "Poolalloc.plan: pool id out of range")
    p.pool_of_site

(* ------------------------------------------------------------------ *)
(* Heap structure: per-(pool, class) slab bins, jemalloc-style, minus
   the thread cache and minus slab release — an empty slab stays with
   its pool so no page is ever re-keyed. *)

type slab = {
  base : int;
  pool : int;
  cls : int;
  slots : int;
  mutable free : int list; (* free slot indices *)
  mutable used : int;
  mutable in_nonfull : bool;
}

type bin = { mutable nonfull : slab list }

type t = {
  machine : Machine.t;
  extent : Extent.t;
  plan : plan;
  bins : bin array array; (* pool -> class -> bin *)
  large_free : (int * int, int list ref) Hashtbl.t;
      (* (pool, pages) -> free bases, most recent first *)
  slab_of_page : (int, slab) Hashtbl.t;
  large : (int, int * int) Hashtbl.t; (* base -> (pages, pool) *)
  large_page_index : (int, int) Hashtbl.t; (* page index -> base *)
  retired_slots : (int, unit) Hashtbl.t; (* freed-forever small bases *)
  extra_byte : bool;
  pool_footprint : int array; (* address space owned, bytes *)
  pool_live : int array;
  pool_peak : int array;
  pool_retired : int array; (* freed-forever bytes in retire pools *)
  mutable live_bytes : int;
  mutable live_allocs : int;
  mutable mallocs : int;
  mutable frees : int;
}

let create ?(extra_byte = false) ?(plan = identity_plan ~sites:1) machine =
  validate_plan plan;
  {
    machine;
    extent = Extent.create machine;
    plan;
    bins =
      Array.init plan.pools (fun _ ->
          Array.init Size_class.count (fun _ -> { nonfull = [] }));
    large_free = Hashtbl.create 64;
    slab_of_page = Hashtbl.create 1024;
    large = Hashtbl.create 256;
    large_page_index = Hashtbl.create 256;
    retired_slots = Hashtbl.create 256;
    extra_byte;
    pool_footprint = Array.make plan.pools 0;
    pool_live = Array.make plan.pools 0;
    pool_peak = Array.make plan.pools 0;
    pool_retired = Array.make plan.pools 0;
    live_bytes = 0;
    live_allocs = 0;
    mallocs = 0;
    frees = 0;
  }

let cost t = t.machine.Machine.cost
let charge t n = Machine.charge t.machine n

let new_slab t pool cls =
  let pages = Size_class.slab_pages cls in
  let base = Extent.alloc t.extent ~pages in
  let slots = Size_class.slab_slots cls in
  let slab =
    {
      base;
      pool;
      cls;
      slots;
      free = List.init slots Fun.id;
      used = 0;
      in_nonfull = true;
    }
  in
  for i = 0 to pages - 1 do
    Hashtbl.replace t.slab_of_page ((base / page) + i) slab
  done;
  t.pool_footprint.(pool) <- t.pool_footprint.(pool) + (pages * page);
  slab

let bin_pop t pool cls =
  let bin = t.bins.(pool).(cls) in
  let slab =
    match bin.nonfull with
    | s :: _ ->
      charge t (cost t).Sim.Cost.malloc_fast;
      s
    | [] ->
      charge t (cost t).Sim.Cost.malloc_slow;
      let s = new_slab t pool cls in
      bin.nonfull <- [ s ];
      s
  in
  match slab.free with
  | [] -> assert false
  | slot :: rest ->
    slab.free <- rest;
    slab.used <- slab.used + 1;
    if rest = [] then begin
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
  if not slab.in_nonfull then begin
    slab.in_nonfull <- true;
    t.bins.(slab.pool).(cls).nonfull <-
      slab :: t.bins.(slab.pool).(cls).nonfull
  end

let pool_of_site t site =
  let site = if site >= 0 && site < t.plan.sites then site else 0 in
  t.plan.pool_of_site.(site)

let malloc_site t ~site size =
  assert (size >= 0);
  let size = max 1 size + if t.extra_byte then 1 else 0 in
  let pool = pool_of_site t site in
  t.mallocs <- t.mallocs + 1;
  let addr, usable =
    if Size_class.is_small size then begin
      let cls = Size_class.class_of_size size in
      (bin_pop t pool cls, Size_class.size_of_class cls)
    end
    else begin
      let pages = Size_class.large_pages size in
      let addr =
        match Hashtbl.find_opt t.large_free (pool, pages) with
        | Some ({ contents = base :: rest } as l) ->
          charge t (cost t).Sim.Cost.malloc_fast;
          l := rest;
          base
        | Some { contents = [] } | None ->
          charge t (cost t).Sim.Cost.malloc_slow;
          let base = Extent.alloc t.extent ~pages in
          t.pool_footprint.(pool) <- t.pool_footprint.(pool) + (pages * page);
          base
      in
      Hashtbl.replace t.large addr (pages, pool);
      for i = 0 to pages - 1 do
        Hashtbl.replace t.large_page_index ((addr / page) + i) addr
      done;
      (addr, pages * page)
    end
  in
  Vmem.zero_range t.machine.Machine.mem ~addr ~len:usable;
  Machine.charge_bytes t.machine (cost t).Sim.Cost.touch_per_byte usable;
  t.live_bytes <- t.live_bytes + usable;
  t.live_allocs <- t.live_allocs + 1;
  t.pool_live.(pool) <- t.pool_live.(pool) + usable;
  if t.pool_live.(pool) > t.pool_peak.(pool) then
    t.pool_peak.(pool) <- t.pool_live.(pool);
  addr

let malloc t size = malloc_site t ~site:0 size

let lookup_usable t addr =
  match Hashtbl.find_opt t.large addr with
  | Some (pages, _) -> pages * page
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | Some slab -> Size_class.size_of_class slab.cls
    | None -> invalid_arg "Poolalloc.usable_size: not an allocation")

let usable_size = lookup_usable

let free t addr =
  t.frees <- t.frees + 1;
  (match Hashtbl.find_opt t.large addr with
  | Some (pages, pool) ->
    charge t (cost t).Sim.Cost.free_slow;
    Hashtbl.remove t.large addr;
    for i = 0 to pages - 1 do
      Hashtbl.remove t.large_page_index ((addr / page) + i)
    done;
    let usable = pages * page in
    t.live_bytes <- t.live_bytes - usable;
    t.pool_live.(pool) <- t.pool_live.(pool) - usable;
    if t.plan.recycles.(pool) then begin
      let l =
        match Hashtbl.find_opt t.large_free (pool, pages) with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace t.large_free (pool, pages) l;
          l
      in
      l := addr :: !l
    end
    else t.pool_retired.(pool) <- t.pool_retired.(pool) + usable
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | Some slab ->
      charge t (cost t).Sim.Cost.free_fast;
      let usable = Size_class.size_of_class slab.cls in
      t.live_bytes <- t.live_bytes - usable;
      t.pool_live.(slab.pool) <- t.pool_live.(slab.pool) - usable;
      if t.plan.recycles.(slab.pool) then bin_push t slab addr
      else begin
        (* Retired for good: never pushed back to the slab free list,
           so reuse can never see it again. *)
        Hashtbl.replace t.retired_slots addr ();
        t.pool_retired.(slab.pool) <- t.pool_retired.(slab.pool) + usable
      end
    | None -> invalid_arg "Poolalloc.free: not an allocation"));
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
    && not (Hashtbl.mem t.retired_slots addr)

let allocation_containing t addr =
  match Hashtbl.find_opt t.large_page_index (addr / page) with
  | Some base ->
    let pages, _ = Hashtbl.find t.large base in
    Some (base, pages * page)
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | None -> None
    | Some slab ->
      let size = Size_class.size_of_class slab.cls in
      let offset = addr - slab.base in
      if offset < 0 || offset >= slab.slots * size then None
      else Some (slab.base + (offset / size * size), size))

let pool_of_addr t addr =
  match Hashtbl.find_opt t.large_page_index (addr / page) with
  | Some base ->
    let _, pool = Hashtbl.find t.large base in
    Some pool
  | None ->
    (match Hashtbl.find_opt t.slab_of_page (addr / page) with
    | Some slab -> Some slab.pool
    | None -> None)

let live_bytes t = t.live_bytes
let live_allocations t = t.live_allocs
let plan t = t.plan
let machine t = t.machine
let extra_byte t = t.extra_byte
let wilderness t = Extent.wilderness t.extent
let set_extent_hooks t hooks = Extent.set_hooks t.extent hooks
let purge_tick t = Extent.purge_tick t.extent
let purge_all t = Extent.purge_all t.extent

type pool_stats = {
  pool : int;
  recycling : bool;
  footprint_bytes : int;
  live_now_bytes : int;
  peak_live_bytes : int;
  retired_bytes : int;
}

let pool_stats t =
  Array.init t.plan.pools (fun pool ->
      {
        pool;
        recycling = t.plan.recycles.(pool);
        footprint_bytes = t.pool_footprint.(pool);
        live_now_bytes = t.pool_live.(pool);
        peak_live_bytes = t.pool_peak.(pool);
        retired_bytes = t.pool_retired.(pool);
      })

let footprint_bytes t = Array.fold_left ( + ) 0 t.pool_footprint
let retired_bytes t = Array.fold_left ( + ) 0 t.pool_retired

let attach_obs (t : t) reg =
  Obs.Registry.derive_counter reg "alloc.mallocs" (fun () -> t.mallocs);
  Obs.Registry.derive_counter reg "alloc.frees" (fun () -> t.frees);
  Obs.Registry.derive_gauge reg "alloc.live_allocations" (fun () ->
      t.live_allocs);
  Obs.Registry.derive_gauge reg "alloc.live_bytes" (fun () -> t.live_bytes);
  Obs.Registry.derive_gauge reg "pool.pools" (fun () -> t.plan.pools);
  Obs.Registry.derive_gauge reg "pool.footprint_bytes" (fun () ->
      footprint_bytes t);
  Obs.Registry.derive_gauge reg "pool.retired_bytes" (fun () ->
      retired_bytes t)
