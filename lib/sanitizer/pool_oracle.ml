(* Differential UAF oracle for the analysis-driven pooled backend.

   The pooled allocator has no quarantine and no sweeps: its safety
   argument is entirely static ("this pool may recycle because no site
   in it is ever dangling-exposed"). This oracle replays a trace
   against the backend, as a target of the one trace interpreter
   ([Trace.run]), under the sweep oracle's ground-truth layer, and
   flags every *unsound recycle*: a malloc that returns a
   previously-freed base while the registry still records live
   pointers into it. A plan derived from the siteflow analysis must
   produce zero such events; any hit is a static false negative. *)

module Poolalloc = Alloc.Poolalloc
module Registry = Ptrtrack.Registry
module Trace = Workloads.Trace

type report = {
  trace_name : string;
  ops : int;
  allocs : int;
  frees : int;
  recycled : int;  (** mallocs served from a previously-freed base *)
  footprint_bytes : int;
  retired_bytes : int;
  soundness : Diagnostic.t list;
  unsound_ids : int list;
  pool_stats : Poolalloc.pool_stats array;
}

let run ?plan (trace : Trace.t) =
  let plan =
    match plan with
    | Some p -> p
    | None -> Poolalloc.identity_plan ~sites:trace.Trace.sites
  in
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  let pa = Poolalloc.create ~plan machine in
  let registry =
    Registry.create_with ~resolve:(fun value ->
        Poolalloc.allocation_containing pa value)
  in
  (* base -> id of the last occupant freed there *)
  let freed_bases : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let soundness = ref [] in
  let unsound_ids = ref [] in
  let allocs = ref 0 in
  let frees = ref 0 in
  let recycled = ref 0 in
  let op_index = ref 0 in (* the op being replayed; [after_op] advances it *)
  (* The recycle check serves from the pooled backend, below the ground
     truth: it reads the registry before the fresh memory's records are
     dropped. The pooled backend does not zero on free, so records inside
     a freed object persist until its memory is re-served or overwritten. *)
  let recycle_check =
    {
      Trace.alloc =
        (fun ~id ~site size ->
          let addr = Poolalloc.malloc_site pa ~site size in
          incr allocs;
          (match Hashtbl.find_opt freed_bases addr with
          | Some prev_id ->
            incr recycled;
            Hashtbl.remove freed_bases addr;
            let n = Registry.in_pointer_count registry ~base:addr in
            if n > 0 then begin
              unsound_ids := prev_id :: !unsound_ids;
              soundness :=
                Diagnostic.make ~rule:"oracle-unsound"
                  ~severity:Diagnostic.Error ~op_index:!op_index
                  (Printf.sprintf
                     "pool %s recycled id %d's slot (addr %#x) for id %d \
                      while %d live pointer(s) to the old object exist"
                     (match Poolalloc.pool_of_addr pa addr with
                     | Some p -> string_of_int p
                     | None -> "?")
                     prev_id addr id n)
                :: !soundness
            end
          | None -> ());
          addr);
      free =
        (fun ~id ~thread:_ addr ->
          incr frees;
          Poolalloc.free pa addr;
          Hashtbl.replace freed_bases addr id);
      pointer_store = (fun ~slot:_ ~old_value:_ ~value:_ -> ());
      data_store = (fun ~slot:_ -> ());
      after_op = (fun i -> op_index := i + 1);
    }
  in
  Trace.run trace machine
    (Sweep_oracle.ground_truth registry ~usable:(Poolalloc.usable_size pa)
       ~zeroing:false recycle_check);
  {
    trace_name = trace.Trace.name;
    ops = Array.length trace.Trace.ops;
    allocs = !allocs;
    frees = !frees;
    recycled = !recycled;
    footprint_bytes = Poolalloc.footprint_bytes pa;
    retired_bytes = Poolalloc.retired_bytes pa;
    soundness = List.rev !soundness;
    unsound_ids = List.sort_uniq compare !unsound_ids;
    pool_stats = Poolalloc.pool_stats pa;
  }

let certify r =
  List.map
    (fun id ->
      Diagnostic.make ~rule:"static-miss" ~severity:Diagnostic.Error
        (Printf.sprintf
           "unsound recycle of id %d under an analysis-derived plan: the \
            siteflow pass failed to expose the site (static false \
            negative)"
           id))
    r.unsound_ids
  |> Diagnostic.sort
