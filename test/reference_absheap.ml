(* Reference abstract heap: [Workloads.Absheap] as it was when it kept
   a record for every id ever allocated ([Dead] ones too) in polymorphic
   [Hashtbl]s keyed by boxed slots, with a nested table of slots per
   target and per holder, and sorted each free's outside slots by
   (store op, slot). Beside it, the three folds over it as they were
   then: the lint pass (which read [Dead] and [Holder_dead] for the
   rules that name a free op), the dangling report and the siteflow
   lattice. [test_flowcheck.ml] checks that the flat heap, which holds
   live ids only, gives the same events and the same lint, report and
   pool plan on random op sequences. *)

module Trace = Workloads.Trace

module Heap = struct
  type slot =
    | Root_slot of int
    | Global_slot of int
    | Field_slot of int * int

  type target =
    | Ptr of int
    | Alias of int
    | Wild

  type binding = target * int
  type edge = slot * target * int

  type id_state =
    | Live of { size : int; site : int; alloc_op : int }
    | Dead of { free_op : int }

  type place =
    | Slot of slot
    | Wrapped of { slot : slot; index : int; words : int }
    | Unallocated of int
    | Holder_dead of { holder : int; free_op : int }
    | No_words of { holder : int; size : int }

  type event =
    | Alloc of { id : int; size : int; site : int; before : id_state option }
    | Free of {
        id : int;
        thread : int;
        before : id_state option;
        outside : edge list;
        dropped : edge list;
      }
    | Store of {
        place : place;
        target : int;
        target_state : id_state option;
        displaced : binding option;
      }
    | Clear of { place : place; cleared : binding option }
    | Data of {
        place : place;
        value : int;
        stored : target option;
        displaced : binding option;
      }
    | Work

  type t = {
    zeroing : bool;
    ids : (int, id_state) Hashtbl.t;
    contents : (slot, binding) Hashtbl.t;
    (* target id -> slots binding it (pointer or alias) *)
    holders : (int, (slot, unit) Hashtbl.t) Hashtbl.t;
    (* holder id -> slots living inside it *)
    fields : (int, (slot, unit) Hashtbl.t) Hashtbl.t;
    mutable wilds : int;
  }

  let create ~zeroing =
    {
      zeroing;
      ids = Hashtbl.create 4096;
      contents = Hashtbl.create 4096;
      holders = Hashtbl.create 1024;
      fields = Hashtbl.create 1024;
      wilds = 0;
    }

  let is_live t id =
    match Hashtbl.find_opt t.ids id with Some (Live _) -> true | _ -> false

  (* -- the points-to graph ------------------------------------------- *)

  let index_add tbl key slot =
    let set =
      match Hashtbl.find_opt tbl key with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace tbl key s;
        s
    in
    Hashtbl.replace set slot ()

  let index_remove tbl key slot =
    match Hashtbl.find_opt tbl key with
    | None -> ()
    | Some set ->
      Hashtbl.remove set slot;
      if Hashtbl.length set = 0 then Hashtbl.remove tbl key

  (* Drop one binding and keep every index in step with [contents]. *)
  let unbind t slot (target, _op) =
    Hashtbl.remove t.contents slot;
    (match target with
    | Ptr id | Alias id -> index_remove t.holders id slot
    | Wild -> t.wilds <- t.wilds - 1);
    match slot with
    | Field_slot (h, _) -> index_remove t.fields h slot
    | Root_slot _ | Global_slot _ -> ()

  let clear t slot =
    match Hashtbl.find_opt t.contents slot with
    | None -> None
    | Some binding ->
      unbind t slot binding;
      Some binding

  let store t slot target ~op =
    let displaced = clear t slot in
    Hashtbl.replace t.contents slot (target, op);
    (match target with
    | Ptr id | Alias id -> index_add t.holders id slot
    | Wild -> t.wilds <- t.wilds + 1);
    (match slot with
    | Field_slot (h, _) -> index_add t.fields h slot
    | Root_slot _ | Global_slot _ -> ());
    displaced

  (* Sorted by (store op, slot): deterministic, earliest store first. *)
  let holders t id =
    match Hashtbl.find_opt t.holders id with
    | None -> []
    | Some set ->
      Hashtbl.fold
        (fun slot () acc ->
          match Hashtbl.find_opt t.contents slot with
          | Some (target, op) -> (slot, target, op) :: acc
          | None -> acc)
        set []
      |> List.sort (fun (s1, _, o1) (s2, _, o2) ->
             match compare (o1 : int) o2 with 0 -> compare s1 s2 | c -> c)

  let holder_count t id =
    match Hashtbl.find_opt t.holders id with
    | None -> 0
    | Some set -> Hashtbl.length set

  (* Detach the set first: [unbind] then leaves it alone while we fold. *)
  let drop_fields_of t id =
    match Hashtbl.find_opt t.fields id with
    | None -> []
    | Some set ->
      Hashtbl.remove t.fields id;
      Hashtbl.fold
        (fun slot () acc ->
          match Hashtbl.find_opt t.contents slot with
          | Some ((target, op) as binding) ->
            unbind t slot binding;
            (slot, target, op) :: acc
          | None -> acc)
        set []

  let wild_count t = t.wilds

  let max_chain_depth = 8

  let witness_chain t slot =
    let rec walk slot visited depth acc =
      match Hashtbl.find_opt t.contents slot with
      | None -> List.rev acc
      | Some (_, op) -> (
        let acc = (slot, op) :: acc in
        match slot with
        | Root_slot _ | Global_slot _ -> List.rev acc
        | Field_slot (h, _) ->
          if depth >= max_chain_depth || List.mem h visited then List.rev acc
          else (
            match holders t h with
            | [] -> List.rev acc
            | (up, _, _) :: _ -> walk up (h :: visited) (depth + 1) acc))
    in
    walk slot [] 0 []

  (* -- the step ------------------------------------------------------- *)

  (* [Trace]'s index rule, the one every replay resolves a location with. *)
  let resolve t = function
    | Trace.Root w ->
      let word = Trace.root_word w in
      if word = w then Slot (Root_slot w)
      else
        Wrapped
          { slot = Root_slot word; index = w; words = Trace.root_window_words }
    | Trace.Global w ->
      let word = Trace.global_word w in
      if word = w then Slot (Global_slot w)
      else
        Wrapped
          {
            slot = Global_slot word;
            index = w;
            words = Trace.globals_window_words;
          }
    | Trace.Field (holder, w) -> (
      match Hashtbl.find_opt t.ids holder with
      | None -> Unallocated holder
      | Some (Dead { free_op }) -> Holder_dead { holder; free_op }
      | Some (Live { size; _ }) -> (
        match Trace.field_word ~size w with
        | None -> No_words { holder; size }
        | Some word ->
          let slot = Field_slot (holder, word) in
          if word = w then Slot slot
          else Wrapped { slot; index = w; words = size / 8 }))

  (* A raw write of [value] (binding [stored]) at [loc]. A dead object's
     encoded address writes 0 at replay, so it binds nothing. *)
  let data t i loc value stored =
    let place = resolve t loc in
    match place with
    | Slot slot | Wrapped { slot; _ } ->
      let displaced =
        match stored with
        | Some target -> store t slot target ~op:i
        | None -> clear t slot
      in
      Data { place; value; stored; displaced }
    | Unallocated _ | Holder_dead _ | No_words _ ->
      Data { place; value; stored = None; displaced = None }

  let step t i = function
    | Trace.Alloc { id; size; site } ->
      let before = Hashtbl.find_opt t.ids id in
      Hashtbl.replace t.ids id (Live { size; site; alloc_op = i });
      Alloc { id; size; site; before }
    | Trace.Free { id; thread } -> (
      match Hashtbl.find_opt t.ids id with
      | Some (Live _) as before ->
        Hashtbl.replace t.ids id (Dead { free_op = i });
        let outside =
          List.filter
            (fun (slot, _, _) ->
              match slot with
              | Field_slot (h, _) -> h <> id
              | Root_slot _ | Global_slot _ -> true)
            (holders t id)
        in
        let dropped = if t.zeroing then drop_fields_of t id else [] in
        Free { id; thread; before; outside; dropped }
      | before -> Free { id; thread; before; outside = []; dropped = [] })
    | Trace.Store_ptr { loc; target } ->
      let place = resolve t loc in
      let target_state = Hashtbl.find_opt t.ids target in
      let displaced =
        match (place, target_state) with
        | (Slot slot | Wrapped { slot; _ }), Some (Live _) ->
          store t slot (Ptr target) ~op:i
        | _ -> None
      in
      Store { place; target; target_state; displaced }
    | Trace.Clear_ptr { loc; target } ->
      (* A clear writes 0 only if the slot still holds the target's
         address, which an alias of it does too. *)
      let place = resolve t loc in
      let cleared =
        match place with
        | (Slot slot | Wrapped { slot; _ }) when is_live t target -> (
          match Hashtbl.find_opt t.contents slot with
          | Some ((Ptr held | Alias held), _) when held = target -> clear t slot
          | Some _ | None -> None)
        | _ -> None
      in
      Clear { place; cleared }
    | Trace.Store_data { loc; value } ->
      data t i loc value
        (match Trace.aliased_id value with
        | Some id -> if is_live t id then Some (Alias id) else None
        | None -> if value >= Layout.heap_base then Some Wild else None)
    | Trace.Store_interior { loc; target; word = _ } ->
      data t i loc (-target - 1)
        (if is_live t target then Some (Alias target) else None)
    | Trace.Zero loc -> data t i loc 0 None
    | Trace.Work _ -> Work
end

(* -- the lint pass ----------------------------------------------------- *)

(* Lint's own wording for a slot (the referees' pinned reports carry it). *)
let slot_to_string = function
  | Heap.Root_slot w -> Printf.sprintf "root[%d]" w
  | Heap.Global_slot w -> Printf.sprintf "global[%d]" w
  | Heap.Field_slot (id, w) -> Printf.sprintf "id %d word %d" id w

let lint (trace : Trace.t) =
  let heap = Heap.create ~zeroing:true in
  let diags = ref [] in
  let report ~rule ~severity ~op_index message =
    diags := Sanitizer.Diagnostic.make ~rule ~severity ~op_index message :: !diags
  in
  let out_of_range ~op_index message =
    report ~rule:"field-out-of-range" ~severity:Sanitizer.Diagnostic.Warning ~op_index
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
    | Heap.Unallocated holder ->
      if dead_holder then
        report ~rule:"store-unallocated" ~severity:Sanitizer.Diagnostic.Error ~op_index
          (Printf.sprintf "%s through field of id %d which was never allocated"
             what holder)
    | Heap.Holder_dead { holder; free_op } ->
      if dead_holder then
        report ~rule:"store-after-free" ~severity:Sanitizer.Diagnostic.Error ~op_index
          (Printf.sprintf
             "%s through field of id %d which was freed at op %d — a \
              use-after-free write"
             what holder free_op)
  in
  let step op_index = function
    | Heap.Alloc { id; site; before; _ } -> (
      if site < 0 || site >= trace.Trace.sites then
        report ~rule:"alloc-site-out-of-range" ~severity:Sanitizer.Diagnostic.Warning
          ~op_index
          (Printf.sprintf
             "alloc of id %d at site %d, but the trace declares %d site%s — \
              replay and siteflow alias it to site 0, merging its lifetime \
              into the wrong pool"
             id site trace.Trace.sites
             (if trace.Trace.sites = 1 then "" else "s"));
      match before with
      | Some (Heap.Live { alloc_op; _ }) ->
        report ~rule:"duplicate-alloc" ~severity:Sanitizer.Diagnostic.Error ~op_index
          (Printf.sprintf "id %d is still live (allocated at op %d)" id
             alloc_op)
      | Some (Heap.Dead { free_op }) ->
        report ~rule:"duplicate-alloc" ~severity:Sanitizer.Diagnostic.Error ~op_index
          (Printf.sprintf "id %d was already used (freed at op %d)" id free_op)
      | None -> ())
    | Heap.Free { id; thread; before; outside; dropped = _ } -> (
      if thread < 0 || thread >= trace.Trace.threads then
        report ~rule:"free-thread-out-of-range" ~severity:Sanitizer.Diagnostic.Warning
          ~op_index
          (Printf.sprintf
             "free of id %d from thread %d, but the trace declares %d \
              thread%s — the quarantine aliases it to buffer 0, silently \
              serialising the push"
             id thread trace.Trace.threads
             (if trace.Trace.threads = 1 then "" else "s"));
      match before with
      | None ->
        report ~rule:"free-unallocated" ~severity:Sanitizer.Diagnostic.Error ~op_index
          (Printf.sprintf "free of id %d which was never allocated" id)
      | Some (Heap.Dead { free_op }) ->
        report ~rule:"double-free" ~severity:Sanitizer.Diagnostic.Error ~op_index
          (Printf.sprintf "id %d was already freed at op %d" id free_op)
      | Some (Heap.Live _) -> (
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
              report ~rule:"unclear-before-free" ~severity:Sanitizer.Diagnostic.Warning
                ~op_index
                (Printf.sprintf
                   "id %d freed while %s still holds a pointer to it \
                    (stored at op %d, never cleared)"
                   id (slot_to_string slot) stored_at))
            (List.sort compare dangling)))
    | Heap.Store { place; target; target_state; displaced = _ } -> (
      place_diags ~op_index ~what:"pointer store" ~dead_holder:true place;
      match (place, target_state) with
      | (Heap.Slot _ | Heap.Wrapped _), None ->
        report ~rule:"dangling-target" ~severity:Sanitizer.Diagnostic.Warning ~op_index
          (Printf.sprintf
             "pointer store of id %d which was never allocated (replay skips \
              it)"
             target)
      | (Heap.Slot _ | Heap.Wrapped _), Some (Heap.Dead { free_op }) ->
        report ~rule:"dangling-target" ~severity:Sanitizer.Diagnostic.Warning ~op_index
          (Printf.sprintf
             "pointer store of id %d which was freed at op %d (replay skips \
              it)"
             target free_op)
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

(* -- the dangling report ----------------------------------------------- *)

let primary_policy policies =
  match
    List.find_opt (function Flowcheck.Policy.Minesweeper _ -> true | _ -> false) policies
  with
  | Some p -> p
  | None -> Flowcheck.Policy.Minesweeper Minesweeper.Config.default

let report_slot_to_string = function
  | Heap.Root_slot w -> Printf.sprintf "root[%d]" w
  | Heap.Global_slot w -> Printf.sprintf "global[%d]" w
  | Heap.Field_slot (id, w) -> Printf.sprintf "obj%d[%d]" id w

let render_chain chain id =
  let hops =
    List.rev_map
      (fun (slot, op) -> Printf.sprintf "%s@%d" (report_slot_to_string slot) op)
      chain
  in
  String.concat " -> " (hops @ [ Printf.sprintf "id %d" id ])

let analyze ?(policies = Flowcheck.Policy.default_policies) stream :
    Flowcheck.Report.t =
  let primary = primary_policy policies in
  let granule = Option.value ~default:16 (Flowcheck.Policy.shadow_granule primary) in
  let heap = Heap.create ~zeroing:(Flowcheck.Policy.zeroing primary) in
  let accs = List.map (fun p -> (p, Flowcheck.Policy.acc p)) policies in
  let diags = ref [] in
  let flag ~rule ~op message =
    diags :=
      Sanitizer.Diagnostic.make ~rule ~severity:Sanitizer.Diagnostic.Warning ~op_index:op message
      :: !diags
  in
  let unsound : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let retained : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let retain id size = Hashtbl.replace retained id size in
  let wild_stores = ref 0 in
  let subgranule = ref 0 in
  let allocs = ref 0 in
  let frees = ref 0 in
  (* Dangling windows ({!window_stats}): id -> the op it opened at. *)
  let windows : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let opened = ref 0 and closed = ref 0 in
  let max_len = ref 0 and total_len = ref 0 in
  let measure len =
    max_len := max !max_len len;
    total_len := !total_len + len
  in
  (* An edge to [id] died at [op]: close the dangling window once the
     last one is gone. *)
  let edge_died op = function
    | Some ((Heap.Ptr id | Heap.Alias id), _)
      when (not (Heap.is_live heap id)) && Heap.holder_count heap id = 0 -> (
      match Hashtbl.find_opt windows id with
      | Some opened_at ->
        Hashtbl.remove windows id;
        incr closed;
        measure (op - opened_at)
      | None -> ())
    | Some _ | None -> ()
  in
  let step i = function
    | Heap.Alloc { size; _ } ->
      incr allocs;
      List.iter (fun (_, a) -> Flowcheck.Policy.acc_alloc a ~size) accs
    | Heap.Free
        { id; before = Some (Heap.Live { size; _ }); outside; dropped; _ } ->
      incr frees;
      List.iter (fun (_, a) -> Flowcheck.Policy.acc_free a ~size) accs;
      (* Zeroing destroyed every slot stored inside the dying object —
         exactly what the replay's registry drop models. *)
      List.iter
        (fun (_, target, stored_at) -> edge_died i (Some (target, stored_at)))
        dropped;
      let ptrs, aliases =
        List.partition
          (fun (_, target, _) ->
            match target with Heap.Ptr _ -> true | _ -> false)
          outside
      in
      (match ptrs with
      | (slot, _, _) :: _ ->
        Hashtbl.replace unsound id ();
        retain id size;
        flag ~rule:"flow-dangling" ~op:i
          (Printf.sprintf
             "id %d freed while %d live slot(s) still point at it; witness: %s"
             id (List.length ptrs)
             (render_chain (Heap.witness_chain heap slot) id))
      | [] -> ());
      (match (ptrs, aliases) with
      | [], (slot, _, _) :: _ ->
        retain id size;
        flag ~rule:"flow-alias" ~op:i
          (Printf.sprintf
             "id %d freed while %d data slot(s) alias its address (unlucky \
              integers, e.g. %s): conservative retention expected"
             id (List.length aliases) (report_slot_to_string slot))
      | _ -> ());
      if outside <> [] && not (Hashtbl.mem windows id) then begin
        Hashtbl.replace windows id i;
        incr opened
      end;
      if Heap.wild_count heap > 0 then retain id size;
      if Flowcheck.Policy.usable primary size < granule then begin
        incr subgranule;
        retain id size
      end
    | Heap.Free _ | Heap.Work -> ()
    | Heap.Store { displaced; _ } -> edge_died i displaced
    | Heap.Clear { cleared; _ } -> edge_died i cleared
    | Heap.Data { place; value; stored; displaced } ->
      (match (stored, place) with
      | Some Heap.Wild, Heap.(Slot slot | Wrapped { slot; _ }) ->
        incr wild_stores;
        flag ~rule:"flow-wild" ~op:i
          (Printf.sprintf
             "heap-range data value %#x stored at %s may alias any \
              allocation (conservative retention possible)"
             value (report_slot_to_string slot))
      | _ -> ());
      edge_died i displaced
  in
  let ops = ref 0 in
  Trace.fold_stream stream ~init:() ~f:(fun () i op ->
      ops := i + 1;
      step i (Heap.step heap i op));
  (* Windows still open ran to the end of the trace: measure them there. *)
  Hashtbl.iter (fun _ opened_at -> measure (!ops - opened_at)) windows;
  let sorted_keys tbl =
    Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] |> List.sort compare
  in
  let retained_ids = sorted_keys retained in
  let bounds =
    List.map
      (fun (pol, a) ->
        let retained_bytes =
          Hashtbl.fold
            (fun _ size acc -> acc + Flowcheck.Policy.usable pol size)
            retained 0
        in
        Flowcheck.Policy.finish a ~retained_bytes)
      accs
  in
  {
    Flowcheck.Report.trace_name = Trace.stream_name stream;
    threads = Trace.stream_threads stream;
    ops = !ops;
    allocs = !allocs;
    frees = !frees;
    findings = Sanitizer.Diagnostic.sort (List.rev !diags);
    predicted_unsound = sorted_keys unsound;
    predicted_retained = retained_ids;
    windows =
      {
        Flowcheck.Report.opened = !opened;
        closed = !closed;
        open_at_end = Hashtbl.length windows;
        max_len = !max_len;
        total_len = !total_len;
      };
    wild_stores = !wild_stores;
    subgranule_frees = !subgranule;
    bounds;
  }

(* -- the siteflow lattice ---------------------------------------------- *)

type class_stats = {
  mutable live : int;
  mutable peak : int;
  mutable total : int;
}

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
  a_classes : (Flowcheck.Siteflow.class_key, class_stats) Hashtbl.t;
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

let siteflow stream : Flowcheck.Siteflow.t =
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
      let key = Flowcheck.Siteflow.class_key_of_size size in
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
      a.a_live_bytes <- a.a_live_bytes + Flowcheck.Siteflow.usable_of_key key;
      if a.a_live_bytes > a.a_peak_live_bytes then
        a.a_peak_live_bytes <- a.a_live_bytes
    | Heap.Free { before = Some (Heap.Live { size; site; _ }); outside; _ } ->
      incr frees;
      let a = accs.(Trace.clamp_site ~sites site) in
      a.a_frees <- a.a_frees + 1;
      let key = Flowcheck.Siteflow.class_key_of_size size in
      (match Hashtbl.find_opt a.a_classes key with
      | Some cs -> cs.live <- cs.live - 1
      | None -> ());
      let usable = Flowcheck.Siteflow.usable_of_key key in
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
          |> List.sort (fun (k1, _) (k2, _) -> Flowcheck.Siteflow.class_key_compare k1 k2)
        in
        {
          Flowcheck.Siteflow.site;
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
    Flowcheck.Siteflow.trace_name = Trace.stream_name stream;
    sites;
    ops = !ops;
    allocs = !allocs;
    frees = !frees;
    out_of_range = !out_of_range;
    summaries;
  }
