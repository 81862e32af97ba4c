let page = Vmem.page_size

type t = {
  resolve : int -> (int * int) option; (* value -> (base, usable) *)
  slot_target : (int, int) Hashtbl.t; (* slot -> target base *)
  incoming : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* base -> slot set *)
  slots_by_page : (int, (int, unit) Hashtbl.t) Hashtbl.t;
}

let create_with ~resolve =
  {
    resolve;
    slot_target = Hashtbl.create 4096;
    incoming = Hashtbl.create 4096;
    slots_by_page = Hashtbl.create 1024;
  }

let create heap =
  create_with ~resolve:(fun value ->
      Alloc.Jemalloc.allocation_containing heap value)

let set_member table key slot =
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

let forget_slot t ~slot =
  match Hashtbl.find_opt t.slot_target slot with
  | None -> ()
  | Some target ->
    Hashtbl.remove t.slot_target slot;
    set_remove t.incoming target slot;
    set_remove t.slots_by_page (slot / page) slot

let record_write t ~slot ~value =
  forget_slot t ~slot;
  if Layout.in_heap value then
    match t.resolve value with
    | Some (base, _) ->
      Hashtbl.replace t.slot_target slot base;
      set_member t.incoming base slot;
      set_member t.slots_by_page (slot / page) slot
    | None -> ()

let target_of t ~slot = Hashtbl.find_opt t.slot_target slot

let in_pointer_count t ~base =
  match Hashtbl.find_opt t.incoming base with
  | None -> 0
  | Some set -> Hashtbl.length set

let drop_slots_in t ~base ~usable f =
  let first = base / page and last = (base + usable - 1) / page in
  for p = first to last do
    match Hashtbl.find_opt t.slots_by_page p with
    | None -> ()
    | Some set ->
      let victims =
        Hashtbl.fold
          (fun slot () acc ->
            if slot >= base && slot < base + usable then slot :: acc else acc)
          set []
      in
      List.iter
        (fun slot ->
          match Hashtbl.find_opt t.slot_target slot with
          | Some target ->
            f ~slot ~target;
            forget_slot t ~slot
          | None -> ())
        victims
  done

let tracked_slots t = Hashtbl.length t.slot_target

let metadata_bytes t =
  (* slot->target entry + reverse-index entry + page-index entry *)
  Hashtbl.length t.slot_target * 48

let iter_slots t f =
  Hashtbl.iter (fun slot target -> f ~slot ~target) t.slot_target
