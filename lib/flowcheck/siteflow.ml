(* The allocation-site pooling analysis, stage one: a one-pass
   site-lifetime lattice, a fold over the same abstract heap
   ({!Workloads.Absheap}) the dangling report folds over. Where
   {!Report} asks "which *objects* are exposed at their free?", this
   pass folds the answer onto the trace's static allocation sites: per
   site, the demand curve (per-size-class peaks and totals, in the
   pooled allocator's own rounding) and the dangling-exposure summary
   that {!Poolplan} turns into a pool partition.

   Exposure is deliberately more conservative than the report's: the
   pooled backend never zeroes on free, so an edge held inside a freed
   holder persists (physically and in the ground-truth registry) until
   that memory is re-served. The lattice's heap therefore never zeroes
   and keeps the interior edges of dead holders — static exposure
   over-approximates every state the differential oracle can observe,
   which is what makes the derived plan certifiable. *)

module Trace = Workloads.Trace
module Heap = Workloads.Absheap
module Flat_table = Workloads.Flat_table

(* Demand is tracked in the pooled allocator's own units: a small
   request occupies one slot of its size class (footprint comes in
   whole slabs), a large one a whole page run. *)
type class_key =
  | Small of int  (** size-class index *)
  | Large of int  (** page count *)

type summary = {
  site : int;
  allocs : int;
  frees : int;
  peak_live_bytes : int;  (** usable bytes, pooled rounding *)
  total_freed_bytes : int;
  ptr_exposed : bool;
      (** some free left a live instrumented pointer to the object from
          outside it: recycling its slot can re-materialise the object
          under that pointer — the pool must retire *)
  alias_exposed : bool;
      (** some free left only data words aliasing the object's address:
          invisible to instrumentation, so reuse is only safe if it
          returns an object of the same site (no cross-site confusion) *)
  wild_exposed : bool;
      (** some free happened while a heap-range data word was live
          anywhere: it may alias this object — treated like an alias *)
  exposed_frees : int;  (** frees with any surviving outside edge *)
  demand : (class_key * (int * int)) list;
      (** per class: (peak concurrent slots, total slots), ascending *)
}

type t = {
  trace_name : string;
  sites : int;  (** declared site count (>= 1) *)
  ops : int;
  allocs : int;
  frees : int;
  out_of_range : int;  (** allocs whose site id was clamped to 0 *)
  summaries : summary array;  (** length [sites], indexed by site *)
}

let class_key_compare a b =
  match (a, b) with
  | Small a, Small b -> compare a b
  | Large a, Large b -> compare a b
  | Small _, Large _ -> -1
  | Large _, Small _ -> 1

(* Inside the fold a class is one int, its code: a small class's index,
   or [Size_class.count] plus a large run's page count. Codes ascend in
   {!class_key_compare} order. *)
let small_classes = Alloc.Size_class.count

let class_code_of_size size =
  let size = max 1 size in
  if Alloc.Size_class.is_small size then Alloc.Size_class.class_of_size size
  else small_classes + Alloc.Size_class.large_pages size

let key_of_code code =
  if code < small_classes then Small code else Large (code - small_classes)

let usable_of_code code =
  if code < small_classes then Alloc.Size_class.size_of_class code
  else (code - small_classes) * Vmem.page_size

let class_key_of_size size = key_of_code (class_code_of_size size)

(* usable_of_key ∘ class_key_of_size = Policy.pooled_usable: the demand
   model is stated in exactly the backend's units (tested). *)
let usable_of_key = function
  | Small cls -> usable_of_code cls
  | Large pages -> usable_of_code (small_classes + pages)

(* Mutable per-site accumulator. *)
type acc = {
  mutable a_allocs : int;
  mutable a_frees : int;
  mutable a_live_bytes : int;
  mutable a_peak_live_bytes : int;
  mutable a_total_freed_bytes : int;
  mutable a_ptr : bool;
  mutable a_alias : bool;
  mutable a_wild : bool;
  mutable a_exposed_frees : int;
}

let fresh_acc () =
  {
    a_allocs = 0;
    a_frees = 0;
    a_live_bytes = 0;
    a_peak_live_bytes = 0;
    a_total_freed_bytes = 0;
    a_ptr = false;
    a_alias = false;
    a_wild = false;
    a_exposed_frees = 0;
  }

(* Which kinds of edge survive a free, from outside the dying object:
   bit 0 a pointer, bit 1 an alias. *)
let rec exposure bits = function
  | [] -> bits
  | (_, Heap.Ptr _, _) :: rest -> exposure (bits lor 1) rest
  | (_, Heap.Alias _, _) :: rest -> exposure (bits lor 2) rest
  | (_, Heap.Wild, _) :: rest -> exposure bits rest

let analyze stream =
  let sites = max 1 (Trace.stream_sites stream) in
  let accs = Array.init sites (fun _ -> fresh_acc ()) in
  (* Per (site, class code): live, peak and total slots. *)
  let classes = Flat_table.create ~width:3 in
  let column slot c = classes.Flat_table.rows.((3 * slot) + c) in
  let heap = Heap.create ~zeroing:false in
  let allocs = ref 0 in
  let frees = ref 0 in
  let out_of_range = ref 0 in
  let step = function
    | Heap.Alloc { size; site; _ } ->
      incr allocs;
      if site < 0 || site >= sites then incr out_of_range;
      let site = Trace.clamp_site ~sites site in
      let a = accs.(site) in
      a.a_allocs <- a.a_allocs + 1;
      let code = class_code_of_size size in
      let cs =
        let cs = Flat_table.find classes site code in
        if cs >= 0 then cs
        else begin
          let cs = Flat_table.add classes site code in
          for c = 0 to 2 do
            Flat_table.set classes cs c 0
          done;
          cs
        end
      in
      let live = column cs 0 + 1 in
      Flat_table.set classes cs 0 live;
      if live > column cs 1 then Flat_table.set classes cs 1 live;
      Flat_table.set classes cs 2 (column cs 2 + 1);
      a.a_live_bytes <- a.a_live_bytes + usable_of_code code;
      if a.a_live_bytes > a.a_peak_live_bytes then
        a.a_peak_live_bytes <- a.a_live_bytes
    | Heap.Free { before = Some (Heap.Live { size; site; _ }); outside; _ } ->
      incr frees;
      let site = Trace.clamp_site ~sites site in
      let a = accs.(site) in
      a.a_frees <- a.a_frees + 1;
      let code = class_code_of_size size in
      let cs = Flat_table.find classes site code in
      if cs >= 0 then Flat_table.set classes cs 0 (column cs 0 - 1);
      let usable = usable_of_code code in
      a.a_live_bytes <- a.a_live_bytes - usable;
      a.a_total_freed_bytes <- a.a_total_freed_bytes + usable;
      (* Interior edges of *other* dead holders persist by design (no
         zeroing on free in the pooled backend). *)
      let bits = exposure 0 outside in
      let has_wild = Heap.wild_count heap > 0 in
      if bits land 1 <> 0 then a.a_ptr <- true;
      if bits land 2 <> 0 then a.a_alias <- true;
      if has_wild then a.a_wild <- true;
      if bits <> 0 || has_wild then
        a.a_exposed_frees <- a.a_exposed_frees + 1
    | Heap.(Free _ | Store _ | Clear _ | Data _ | Work) -> ()
  in
  let ops = ref 0 in
  Trace.fold_stream stream ~init:() ~f:(fun () i op ->
      ops := i + 1;
      step (Heap.step heap i op));
  let demands = Array.make sites [] in
  Flat_table.iter classes (fun site code cs ->
      demands.(site) <-
        (code, (column cs 1, column cs 2)) :: demands.(site));
  let summaries =
    Array.mapi
      (fun site a ->
        let demand =
          List.sort (fun (c1, _) (c2, _) -> compare c1 c2) demands.(site)
          |> List.map (fun (code, stats) -> (key_of_code code, stats))
        in
        {
          site;
          allocs = a.a_allocs;
          frees = a.a_frees;
          peak_live_bytes = a.a_peak_live_bytes;
          total_freed_bytes = a.a_total_freed_bytes;
          ptr_exposed = a.a_ptr;
          alias_exposed = a.a_alias;
          wild_exposed = a.a_wild;
          exposed_frees = a.a_exposed_frees;
          demand;
        })
      accs
  in
  {
    trace_name = Trace.stream_name stream;
    sites;
    ops = !ops;
    allocs = !allocs;
    frees = !frees;
    out_of_range = !out_of_range;
    summaries;
  }

let analyze_trace trace = analyze (Trace.stream_of_trace trace)
