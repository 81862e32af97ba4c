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
