module Trace = Workloads.Trace
module Heap = Workloads.Absheap
module Flat_table = Workloads.Flat_table

let rules =
  [
    ("double-free", "free of an id that was already freed");
    ("free-unallocated", "free of an id that was never allocated");
    ("duplicate-alloc", "alloc reusing an id seen before");
    ("store-after-free", "store through a field of a freed holder");
    ("store-unallocated", "store through a field of a never-allocated holder");
    ("dangling-target", "pointer store whose target is dead at store time");
    ( "unclear-before-free",
      "pointer to the freed object survives the free (Section 3.2 \
       dangling-pointer precondition)" );
    ( "field-out-of-range",
      "word index beyond the holder (or root window); the replay wraps it" );
    ( "free-thread-out-of-range",
      "free issued from a thread id outside the trace's declared thread \
       count; the quarantine silently aliases it to buffer 0" );
    ( "alloc-site-out-of-range",
      "allocation attributed to a site id outside the trace's declared \
       site count; replay and the siteflow analysis alias it to site 0" );
  ]

(* Lint's own wording for a slot (the referees' pinned reports carry it). *)
let slot_to_string = function
  | Heap.Root_slot w -> Printf.sprintf "root[%d]" w
  | Heap.Global_slot w -> Printf.sprintf "global[%d]" w
  | Heap.Field_slot (id, w) -> Printf.sprintf "id %d word %d" id w

let lint (trace : Trace.t) =
  let heap = Heap.create ~zeroing:true in
  (* The heap forgets freed ids; the rules that name a free op read it
     here: id -> the op that last freed it. *)
  let freed = Flat_table.create ~width:1 in
  let free_op id =
    let i = Flat_table.find freed id 0 in
    if i < 0 then None else Some freed.Flat_table.rows.(i)
  in
  let diags = ref [] in
  let report ~rule ~severity ~op_index message =
    diags := Diagnostic.make ~rule ~severity ~op_index message :: !diags
  in
  let out_of_range ~op_index message =
    report ~rule:"field-out-of-range" ~severity:Diagnostic.Warning ~op_index
      message
  in
  (* Wraps always warn; dead holders only where [dead_holder] (a clear is
     a guarded no-op by definition). *)
  let place_diags ~op_index ~what ~dead_holder = function
    | Heap.Slot _ -> ()
    | Heap.Wrapped { slot = Heap.Root_slot word; index; words } ->
      out_of_range ~op_index
        (Printf.sprintf
           "%s root index %d is outside the %d-word root window (replay wraps \
            to %d)"
           what index words word)
    | Heap.Wrapped { slot = Heap.Global_slot word; index; words } ->
      out_of_range ~op_index
        (Printf.sprintf
           "%s globals index %d is outside the %d-word globals window \
            (replay wraps to %d)"
           what index words word)
    | Heap.Wrapped { slot = Heap.Field_slot (holder, word); index; words } ->
      out_of_range ~op_index
        (Printf.sprintf
           "%s word %d of id %d which has only %d words (replay wraps to %d)"
           what index holder words word)
    | Heap.No_words { holder; size } ->
      out_of_range ~op_index
        (Printf.sprintf
           "%s into id %d of size %d, which has no addressable words (replay \
            skips it)"
           what holder size)
    | Heap.No_holder holder -> (
      if dead_holder then
        match free_op holder with
        | None ->
          report ~rule:"store-unallocated" ~severity:Diagnostic.Error
            ~op_index
            (Printf.sprintf
               "%s through field of id %d which was never allocated" what
               holder)
        | Some free_op ->
          report ~rule:"store-after-free" ~severity:Diagnostic.Error ~op_index
            (Printf.sprintf
               "%s through field of id %d which was freed at op %d — a \
                use-after-free write"
               what holder free_op))
  in
  let step op_index = function
    | Heap.Alloc { id; site; before; _ } -> (
      if site < 0 || site >= trace.Trace.sites then
        report ~rule:"alloc-site-out-of-range" ~severity:Diagnostic.Warning
          ~op_index
          (Printf.sprintf
             "alloc of id %d at site %d, but the trace declares %d site%s — \
              replay and siteflow alias it to site 0, merging its lifetime \
              into the wrong pool"
             id site trace.Trace.sites
             (if trace.Trace.sites = 1 then "" else "s"));
      match before with
      | Some (Heap.Live { alloc_op; _ }) ->
        report ~rule:"duplicate-alloc" ~severity:Diagnostic.Error ~op_index
          (Printf.sprintf "id %d is still live (allocated at op %d)" id
             alloc_op)
      | None -> (
        match free_op id with
        | Some free_op ->
          report ~rule:"duplicate-alloc" ~severity:Diagnostic.Error ~op_index
            (Printf.sprintf "id %d was already used (freed at op %d)" id
               free_op)
        | None -> ()))
    | Heap.Free { id; thread; before; outside; dropped = _ } -> (
      if thread < 0 || thread >= trace.Trace.threads then
        report ~rule:"free-thread-out-of-range" ~severity:Diagnostic.Warning
          ~op_index
          (Printf.sprintf
             "free of id %d from thread %d, but the trace declares %d \
              thread%s — the quarantine aliases it to buffer 0, silently \
              serialising the push"
             id thread trace.Trace.threads
             (if trace.Trace.threads = 1 then "" else "s"));
      match before with
      | None -> (
        match free_op id with
        | None ->
          report ~rule:"free-unallocated" ~severity:Diagnostic.Error ~op_index
            (Printf.sprintf "free of id %d which was never allocated" id)
        | Some free_op ->
          report ~rule:"double-free" ~severity:Diagnostic.Error ~op_index
            (Printf.sprintf "id %d was already freed at op %d" id free_op))
      | Some (Heap.Live _) -> (
        Flat_table.set freed (Flat_table.add freed id 0) 0 op_index;
        (* The paper's precondition: report every slot outside the
           dying object that still holds a pointer to it. Most frees
           leave none, and [List.sort] allocates its merge closures even
           for an empty list, so sort only what there is. *)
        match
          List.filter_map
            (function
              | slot, Heap.Ptr _, stored_at -> Some (slot, stored_at)
              | _, (Heap.Alias _ | Heap.Wild), _ -> None)
            outside
        with
        | [] -> ()
        | dangling ->
          List.iter
            (fun (slot, stored_at) ->
              report ~rule:"unclear-before-free" ~severity:Diagnostic.Warning
                ~op_index
                (Printf.sprintf
                   "id %d freed while %s still holds a pointer to it \
                    (stored at op %d, never cleared)"
                   id (slot_to_string slot) stored_at))
            (List.sort compare dangling)))
    | Heap.Store { place; target; target_state; displaced = _ } -> (
      place_diags ~op_index ~what:"pointer store" ~dead_holder:true place;
      match (place, target_state) with
      | (Heap.Slot _ | Heap.Wrapped _), None -> (
        match free_op target with
        | None ->
          report ~rule:"dangling-target" ~severity:Diagnostic.Warning
            ~op_index
            (Printf.sprintf
               "pointer store of id %d which was never allocated (replay \
                skips it)"
               target)
        | Some free_op ->
          report ~rule:"dangling-target" ~severity:Diagnostic.Warning
            ~op_index
            (Printf.sprintf
               "pointer store of id %d which was freed at op %d (replay \
                skips it)"
               target free_op))
      | _ -> ())
    | Heap.Clear { place; _ } ->
      place_diags ~op_index ~what:"pointer clear" ~dead_holder:false place
    | Heap.Data { place; _ } ->
      place_diags ~op_index ~what:"data store" ~dead_holder:true place
    | Heap.Work -> ()
  in
  Array.iteri
    (fun op_index op -> step op_index (Heap.step heap op_index op))
    trace.Trace.ops;
  List.rev !diags
