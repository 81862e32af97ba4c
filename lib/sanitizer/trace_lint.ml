module Trace = Workloads.Trace

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

type id_state =
  | Live of { size : int; at : int }
  | Freed of { at : int }

(* Normalised slot key. Raw Field/Root indices wrap under [Trace]'s
   index rule, so two syntactically different locations can alias the
   same word; the abstract state must key on the post-wrap location. *)
type slot =
  | Root_slot of int
  | Field_slot of int * int

let slot_to_string = function
  | Root_slot w -> Printf.sprintf "root[%d]" w
  | Field_slot (id, w) -> Printf.sprintf "id %d word %d" id w

type state = {
  ids : (int, id_state) Hashtbl.t;
  (* slot -> (target id, op index of the store) *)
  contents : (slot, int * int) Hashtbl.t;
  (* target id -> set of slots holding a pointer to it *)
  holders : (int, (slot, unit) Hashtbl.t) Hashtbl.t;
  (* holder id -> set of Field slots tracked inside it *)
  fields : (int, (slot, unit) Hashtbl.t) Hashtbl.t;
  mutable diags : Diagnostic.t list;
}

let report st ~rule ~severity ~op_index message =
  st.diags <- Diagnostic.make ~rule ~severity ~op_index message :: st.diags

let set_add table key slot =
  let set =
    match Hashtbl.find_opt table key with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace table key s;
      s
  in
  Hashtbl.replace set slot ()

let set_remove table key slot =
  match Hashtbl.find_opt table key with
  | None -> ()
  | Some s ->
    Hashtbl.remove s slot;
    if Hashtbl.length s = 0 then Hashtbl.remove table key

let clear_slot st slot =
  match Hashtbl.find_opt st.contents slot with
  | None -> ()
  | Some (target, _) ->
    Hashtbl.remove st.contents slot;
    set_remove st.holders target slot;
    (match slot with
    | Field_slot (holder, _) -> set_remove st.fields holder slot
    | Root_slot _ -> ())

let set_slot st slot target ~op_index =
  clear_slot st slot;
  Hashtbl.replace st.contents slot (target, op_index);
  set_add st.holders target slot;
  match slot with
  | Field_slot (holder, _) -> set_add st.fields holder slot
  | Root_slot _ -> ()

(* Resolve a location with [Trace]'s index rule, the one every replay
   applies, reporting wraps and (for the given op kinds) dead holders.
   Returns [None] when the replay would skip the op entirely. *)
let resolve st ~op_index ~what ~report_dead_holder = function
  | Trace.Root w ->
    let word = Trace.root_word w in
    if word <> w then
      report st ~rule:"field-out-of-range" ~severity:Diagnostic.Warning
        ~op_index
        (Printf.sprintf
           "%s root index %d is outside the %d-word root window (replay wraps \
            to %d)"
           what w Trace.root_window_words word);
    Some (Root_slot word)
  | Trace.Field (holder, w) -> (
    match Hashtbl.find_opt st.ids holder with
    | None ->
      if report_dead_holder then
        report st ~rule:"store-unallocated" ~severity:Diagnostic.Error
          ~op_index
          (Printf.sprintf "%s through field of id %d which was never allocated"
             what holder);
      None
    | Some (Freed { at }) ->
      if report_dead_holder then
        report st ~rule:"store-after-free" ~severity:Diagnostic.Error ~op_index
          (Printf.sprintf
             "%s through field of id %d which was freed at op %d — a \
              use-after-free write"
             what holder at);
      None
    | Some (Live { size; _ }) -> (
      match Trace.field_word ~size w with
      | None ->
        report st ~rule:"field-out-of-range" ~severity:Diagnostic.Warning
          ~op_index
          (Printf.sprintf
             "%s into id %d of size %d, which has no addressable words \
              (replay skips it)"
             what holder size);
        None
      | Some word ->
        if word <> w then
          report st ~rule:"field-out-of-range" ~severity:Diagnostic.Warning
            ~op_index
            (Printf.sprintf
               "%s word %d of id %d which has only %d words (replay wraps to \
                %d)"
               what w holder (size / 8) word);
        Some (Field_slot (holder, word))))

let lint (trace : Trace.t) =
  let st =
    {
      ids = Hashtbl.create 4096;
      contents = Hashtbl.create 4096;
      holders = Hashtbl.create 4096;
      fields = Hashtbl.create 4096;
      diags = [];
    }
  in
  Array.iteri
    (fun op_index op ->
      match op with
      | Trace.Alloc { id; size; site } ->
        if site < 0 || site >= trace.Trace.sites then
          report st ~rule:"alloc-site-out-of-range"
            ~severity:Diagnostic.Warning ~op_index
            (Printf.sprintf
               "alloc of id %d at site %d, but the trace declares %d \
                site%s — replay and siteflow alias it to site 0, merging \
                its lifetime into the wrong pool"
               id site trace.Trace.sites
               (if trace.Trace.sites = 1 then "" else "s"));
        (match Hashtbl.find_opt st.ids id with
        | Some (Live { at; _ }) ->
          report st ~rule:"duplicate-alloc" ~severity:Diagnostic.Error
            ~op_index
            (Printf.sprintf "id %d is still live (allocated at op %d)" id at)
        | Some (Freed { at }) ->
          report st ~rule:"duplicate-alloc" ~severity:Diagnostic.Error
            ~op_index
            (Printf.sprintf "id %d was already used (freed at op %d)" id at)
        | None -> ());
        Hashtbl.replace st.ids id (Live { size; at = op_index })
      | Trace.Free { id; thread } -> (
        if thread < 0 || thread >= trace.Trace.threads then
          report st ~rule:"free-thread-out-of-range"
            ~severity:Diagnostic.Warning ~op_index
            (Printf.sprintf
               "free of id %d from thread %d, but the trace declares %d \
                thread%s — the quarantine aliases it to buffer 0, silently \
                serialising the push"
               id thread trace.Trace.threads
               (if trace.Trace.threads = 1 then "" else "s"));
        match Hashtbl.find_opt st.ids id with
        | None ->
          report st ~rule:"free-unallocated" ~severity:Diagnostic.Error
            ~op_index
            (Printf.sprintf "free of id %d which was never allocated" id)
        | Some (Freed { at }) ->
          report st ~rule:"double-free" ~severity:Diagnostic.Error ~op_index
            (Printf.sprintf "id %d was already freed at op %d" id at)
        | Some (Live _) ->
          (* The paper's precondition: report every slot outside the
             dying object that still holds its address. *)
          let dangling =
            match Hashtbl.find_opt st.holders id with
            | None -> []
            | Some set ->
              Hashtbl.fold
                (fun slot () acc ->
                  match slot with
                  | Field_slot (h, _) when h = id -> acc
                  | _ -> (
                    match Hashtbl.find_opt st.contents slot with
                    | Some (_, stored_at) -> (slot, stored_at) :: acc
                    | None -> acc))
                set []
              |> List.sort compare
          in
          List.iter
            (fun (slot, stored_at) ->
              report st ~rule:"unclear-before-free"
                ~severity:Diagnostic.Warning ~op_index
                (Printf.sprintf
                   "id %d freed while %s still holds a pointer to it (stored \
                    at op %d, never cleared)"
                   id (slot_to_string slot) stored_at))
            dangling;
          Hashtbl.replace st.ids id (Freed { at = op_index });
          (* Slots inside the freed object die with it (the replay's
             zeroing destroys their contents). *)
          (match Hashtbl.find_opt st.fields id with
          | None -> ()
          | Some set ->
            let victims = Hashtbl.fold (fun s () acc -> s :: acc) set [] in
            List.iter (clear_slot st) victims))
      | Trace.Store_ptr { loc; target } -> (
        match
          resolve st ~op_index ~what:"pointer store" ~report_dead_holder:true
            loc
        with
        | None -> ()
        | Some slot -> (
          match Hashtbl.find_opt st.ids target with
          | None ->
            report st ~rule:"dangling-target" ~severity:Diagnostic.Warning
              ~op_index
              (Printf.sprintf
                 "pointer store of id %d which was never allocated (replay \
                  skips it)"
                 target)
          | Some (Freed { at }) ->
            report st ~rule:"dangling-target" ~severity:Diagnostic.Warning
              ~op_index
              (Printf.sprintf
                 "pointer store of id %d which was freed at op %d (replay \
                  skips it)"
                 target at)
          | Some (Live _) -> set_slot st slot target ~op_index))
      | Trace.Clear_ptr { loc; target } -> (
        (* Guarded no-op by definition: never a diagnostic beyond index
           wrapping, but the abstract state must honour a clear that the
           replay would perform. *)
        match
          resolve st ~op_index ~what:"pointer clear" ~report_dead_holder:false
            loc
        with
        | None -> ()
        | Some slot -> (
          match (Hashtbl.find_opt st.ids target, Hashtbl.find_opt st.contents slot) with
          | Some (Live _), Some (held, _) when held = target ->
            clear_slot st slot
          | _ -> ()))
      | Trace.Store_data { loc; value = _ } -> (
        match
          resolve st ~op_index ~what:"data store" ~report_dead_holder:true loc
        with
        | None -> ()
        | Some slot -> clear_slot st slot)
      | Trace.Work _ -> ())
    trace.Trace.ops;
  List.rev st.diags
