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

(* Demand is tracked in the pooled allocator's own units: a small
   request occupies one slot of its size class (footprint comes in
   whole slabs), a large one a whole page run. *)
type class_key =
  | Small of int  (** size-class index *)
  | Large of int  (** page count *)

type class_stats = {
  mutable live : int;
  mutable peak : int;  (** peak concurrent live slots *)
  mutable total : int;  (** slots ever allocated *)
}

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

let class_key_of_size size =
  let size = max 1 size in
  if Alloc.Size_class.is_small size then
    Small (Alloc.Size_class.class_of_size size)
  else Large (Alloc.Size_class.large_pages size)

(* usable_of_key ∘ class_key_of_size = Policy.pooled_usable: the demand
   model is stated in exactly the backend's units (tested). *)
let usable_of_key = function
  | Small cls -> Alloc.Size_class.size_of_class cls
  | Large pages -> pages * Vmem.page_size

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
  a_classes : (class_key, class_stats) Hashtbl.t;
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
    a_classes = Hashtbl.create 16;
  }

let analyze stream =
  let sites = max 1 (Trace.stream_sites stream) in
  let accs = Array.init sites (fun _ -> fresh_acc ()) in
  let heap = Heap.create ~zeroing:false in
  let allocs = ref 0 in
  let frees = ref 0 in
  let out_of_range = ref 0 in
  let step = function
    | Heap.Alloc { size; site; _ } ->
      incr allocs;
      if site < 0 || site >= sites then incr out_of_range;
      let a = accs.(Trace.clamp_site ~sites site) in
      a.a_allocs <- a.a_allocs + 1;
      let key = class_key_of_size size in
      let cs =
        match Hashtbl.find_opt a.a_classes key with
        | Some cs -> cs
        | None ->
          let cs = { live = 0; peak = 0; total = 0 } in
          Hashtbl.replace a.a_classes key cs;
          cs
      in
      cs.live <- cs.live + 1;
      if cs.live > cs.peak then cs.peak <- cs.live;
      cs.total <- cs.total + 1;
      a.a_live_bytes <- a.a_live_bytes + usable_of_key key;
      if a.a_live_bytes > a.a_peak_live_bytes then
        a.a_peak_live_bytes <- a.a_live_bytes
    | Heap.Free { before = Some (Heap.Live { size; site; _ }); outside; _ } ->
      incr frees;
      let a = accs.(Trace.clamp_site ~sites site) in
      a.a_frees <- a.a_frees + 1;
      let key = class_key_of_size size in
      (match Hashtbl.find_opt a.a_classes key with
      | Some cs -> cs.live <- cs.live - 1
      | None -> ());
      let usable = usable_of_key key in
      a.a_live_bytes <- a.a_live_bytes - usable;
      a.a_total_freed_bytes <- a.a_total_freed_bytes + usable;
      (* Which edges survive this free, from outside the dying object?
         Interior edges of *other* dead holders persist by design (no
         zeroing on free in the pooled backend). *)
      let has kind = List.exists (fun (_, target, _) -> kind target) outside in
      let has_ptr = has (function Heap.Ptr _ -> true | _ -> false) in
      let has_alias = has (function Heap.Alias _ -> true | _ -> false) in
      let has_wild = Heap.wild_count heap > 0 in
      if has_ptr then a.a_ptr <- true;
      if has_alias then a.a_alias <- true;
      if has_wild then a.a_wild <- true;
      if has_ptr || has_alias || has_wild then
        a.a_exposed_frees <- a.a_exposed_frees + 1
    | Heap.(Free _ | Store _ | Clear _ | Data _ | Work) -> ()
  in
  let ops = ref 0 in
  Trace.fold_stream stream ~init:() ~f:(fun () i op ->
      ops := i + 1;
      step (Heap.step heap i op));
  let summaries =
    Array.mapi
      (fun site a ->
        let demand =
          Hashtbl.fold
            (fun key cs acc -> (key, (cs.peak, cs.total)) :: acc)
            a.a_classes []
          |> List.sort (fun (k1, _) (k2, _) -> class_key_compare k1 k2)
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
