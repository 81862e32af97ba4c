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
type id_state = Live of { size : int; site : int; alloc_op : int }

type place =
  | Slot of slot
  | Wrapped of { slot : slot; index : int; words : int }
  | No_holder of int
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

(* The heap is two pools of fixed-width int rows, records and bindings,
   each row named by its index (a handle) and free rows chained through
   one of their fields. A record stands for one tracked id; a binding
   for one bound slot, linked into two lists: its target's holders, in
   store order (a new binding goes last and each live binding's op is
   unique, so the list is sorted by store op), and its holder's interior
   slots. Nothing here is an OCaml value per id or per slot, so a step
   allocates nothing but the event it returns (and, as the heap grows,
   a bigger array). *)

(* Record fields. *)
let r_id = 0
let r_size = 1
let r_site = 2
let r_alloc_op = 3
let r_live = 4 (* 1 live, 0 freed *)
let r_first = 5 (* first binding to it, -1 for none; next free record *)
let r_last = 6 (* last binding to it *)
let r_holders = 7 (* bindings to it *)
let r_inner = 8 (* a binding held inside it, -1 for none *)
let r_width = 9

(* Binding fields. *)
let b_holder = 0 (* record the slot lies in, or [in_roots] / [in_globals] *)
let b_word = 1
let b_kind = 2 (* [ptr], [alias] or [wild] *)
let b_target = 3 (* record bound, -1 for a wild word *)
let b_op = 4
let b_prev = 5 (* in the target's holders *)
let b_next = 6 (* in the target's holders; next free binding *)
let b_iprev = 7 (* in the holder's interior slots *)
let b_inext = 8
let b_width = 9

let in_roots = -2
let in_globals = -3
let ptr = 0
let alias = 1
let wild = 2

(* A pool of rows: [rows] holds [top] rows in use or free. *)
type pool = {
  width : int;
  mutable rows : int array;
  mutable top : int;
  mutable free : int; (* first free row, -1 for none *)
  free_link : int; (* the field chaining free rows *)
}

let pool ~width ~free_link =
  { width; rows = Array.make (64 * width) 0; top = 0; free = -1; free_link }

let get p h f = p.rows.((p.width * h) + f)
let set p h f v = p.rows.((p.width * h) + f) <- v

let take p =
  if p.free >= 0 then begin
    let h = p.free in
    p.free <- get p h p.free_link;
    h
  end
  else begin
    if p.width * (p.top + 1) > Array.length p.rows then begin
      let bigger = Array.make (2 * Array.length p.rows) 0 in
      Array.blit p.rows 0 bigger 0 (p.width * p.top);
      p.rows <- bigger
    end;
    p.top <- p.top + 1;
    p.top - 1
  end

let release p h =
  set p h p.free_link p.free;
  p.free <- h

type t = {
  zeroing : bool;
  recs : pool;
  binds : pool;
  ids : Flat_table.t; (* id -> record *)
  fields : Flat_table.t; (* (holder record, word) -> binding *)
  roots : int array; (* root-window word -> binding, -1 for none *)
  globals : int array;
  mutable wilds : int;
  mutable resolved : int;
      (* holder record of the field slot [resolve] last named *)
}

let create ~zeroing =
  {
    zeroing;
    recs = pool ~width:r_width ~free_link:r_first;
    binds = pool ~width:b_width ~free_link:b_next;
    ids = Flat_table.create ~width:1;
    fields = Flat_table.create ~width:1;
    roots = Array.make Trace.root_window_words (-1);
    globals = Array.make Trace.globals_window_words (-1);
    wilds = 0;
    resolved = -1;
  }

let record t id =
  let i = Flat_table.find t.ids id 0 in
  if i < 0 then -1 else t.ids.Flat_table.rows.(i)

let live t r = get t.recs r r_live = 1

let is_live t id =
  let r = record t id in
  r >= 0 && live t r

let tracked t = Flat_table.count t.ids

(* -- the points-to graph ------------------------------------------- *)

(* A freed record goes once no slot binds it and it binds nothing:
   nothing can reach it any more, and an id that is not live reads the
   same whether its record was kept or not. *)
let forget_if_unbound t r =
  if
    (not (live t r))
    && get t.recs r r_holders = 0
    && get t.recs r r_inner < 0
  then begin
    Flat_table.remove t.ids (Flat_table.find t.ids (get t.recs r r_id) 0);
    release t.recs r
  end

let slot_of t b =
  let holder = get t.binds b b_holder and word = get t.binds b b_word in
  if holder = in_roots then Root_slot word
  else if holder = in_globals then Global_slot word
  else Field_slot (get t.recs holder r_id, word)

let target_of t b =
  let kind = get t.binds b b_kind in
  if kind = wild then Wild
  else
    let id = get t.recs (get t.binds b b_target) r_id in
    if kind = ptr then Ptr id else Alias id

let binding_of t b = (target_of t b, get t.binds b b_op)
let edge_of t b = (slot_of t b, target_of t b, get t.binds b b_op)

(* The binding in slot [word] of [holder] (a record, [in_roots] or
   [in_globals]), -1 for none or for an untracked holder (-1). *)
let binding_at t holder word =
  if holder >= 0 then
    let i = Flat_table.find t.fields holder word in
    if i < 0 then -1 else t.fields.Flat_table.rows.(i)
  else if holder = in_roots then t.roots.(word)
  else if holder = in_globals then t.globals.(word)
  else -1

(* Drop binding [b] and keep both of its lists and its slot in step. *)
let unbind t b =
  let binds = t.binds and recs = t.recs in
  let holder = get binds b b_holder and word = get binds b b_word in
  if holder = in_roots then t.roots.(word) <- -1
  else if holder = in_globals then t.globals.(word) <- -1
  else begin
    Flat_table.remove t.fields (Flat_table.find t.fields holder word);
    let prev = get binds b b_iprev and next = get binds b b_inext in
    if prev >= 0 then set binds prev b_inext next
    else set recs holder r_inner next;
    if next >= 0 then set binds next b_iprev prev
  end;
  let target = get binds b b_target in
  if target < 0 then t.wilds <- t.wilds - 1
  else begin
    let prev = get binds b b_prev and next = get binds b b_next in
    if prev >= 0 then set binds prev b_next next
    else set recs target r_first next;
    if next >= 0 then set binds next b_prev prev
    else set recs target r_last prev;
    set recs target r_holders (get recs target r_holders - 1)
  end;
  release binds b;
  if target >= 0 then forget_if_unbound t target;
  if holder >= 0 then forget_if_unbound t holder

let clear t holder word =
  let b = binding_at t holder word in
  if b < 0 then None
  else begin
    let displaced = binding_of t b in
    unbind t b;
    Some displaced
  end

(* Bind slot [word] of [holder] to [target] (a live record, or -1 with
   [kind] [wild]) at op [op]; the slot's previous binding. *)
let store t holder word kind target ~op =
  let displaced = clear t holder word in
  let binds = t.binds and recs = t.recs in
  let b = take binds in
  set binds b b_holder holder;
  set binds b b_word word;
  set binds b b_kind kind;
  set binds b b_target target;
  set binds b b_op op;
  set binds b b_next (-1);
  if target < 0 then begin
    set binds b b_prev (-1);
    t.wilds <- t.wilds + 1
  end
  else begin
    let last = get recs target r_last in
    set binds b b_prev last;
    if last >= 0 then set binds last b_next b else set recs target r_first b;
    set recs target r_last b;
    set recs target r_holders (get recs target r_holders + 1)
  end;
  if holder = in_roots then t.roots.(word) <- b
  else if holder = in_globals then t.globals.(word) <- b
  else begin
    Flat_table.set t.fields (Flat_table.add t.fields holder word) 0 b;
    let first = get recs holder r_inner in
    set binds b b_iprev (-1);
    set binds b b_inext first;
    if first >= 0 then set binds first b_iprev b;
    set recs holder r_inner b
  end;
  displaced

let holder_count t id =
  let r = record t id in
  if r < 0 then 0 else get t.recs r r_holders

let wild_count t = t.wilds

let max_chain_depth = 8

let witness_chain t slot =
  let rec walk holder word visited depth acc =
    let b = binding_at t holder word in
    if b < 0 then List.rev acc
    else
      let acc = (slot_of t b, get t.binds b b_op) :: acc in
      if holder < 0 || depth >= max_chain_depth || List.mem holder visited
      then List.rev acc
      else
        (* The holder's earliest binding still in place. *)
        let up = get t.recs holder r_first in
        if up < 0 then List.rev acc
        else
          walk (get t.binds up b_holder) (get t.binds up b_word)
            (holder :: visited) (depth + 1) acc
  in
  match slot with
  | Root_slot w -> walk in_roots w [] 0 []
  | Global_slot w -> walk in_globals w [] 0 []
  | Field_slot (id, w) -> walk (record t id) w [] 0 []

(* -- the step ------------------------------------------------------- *)

(* [Trace]'s index rule, the one every replay resolves a location with.
   A field slot's holder record is left in [t.resolved]. *)
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
    let r = record t holder in
    if r < 0 || not (live t r) then No_holder holder
    else
      let size = get t.recs r r_size in
      match Trace.field_word ~size w with
      | None -> No_words { holder; size }
      | Some word ->
        t.resolved <- r;
        let slot = Field_slot (holder, word) in
        if word = w then Slot slot
        else Wrapped { slot; index = w; words = size / 8 })

(* The holder record (or window) and word of a resolved place's slot. *)
let holder_of t = function
  | Root_slot _ -> in_roots
  | Global_slot _ -> in_globals
  | Field_slot _ -> t.resolved

let word_of = function Root_slot w | Global_slot w | Field_slot (_, w) -> w

let state t r =
  Live
    {
      size = get t.recs r r_size;
      site = get t.recs r r_site;
      alloc_op = get t.recs r r_alloc_op;
    }

(* A raw write of [value] (binding [stored], which names record [r]
   when it is an alias) at [loc]. A dead object's encoded address
   writes 0 at replay, so it binds nothing. *)
let data t i loc value stored r =
  let place = resolve t loc in
  match place with
  | Slot slot | Wrapped { slot; _ } ->
    let holder = holder_of t slot and word = word_of slot in
    let displaced =
      match stored with
      | None -> clear t holder word
      | Some Wild -> store t holder word wild (-1) ~op:i
      | Some _ -> store t holder word alias r ~op:i
    in
    Data { place; value; stored; displaced }
  | No_holder _ | No_words _ ->
    Data { place; value; stored = None; displaced = None }

(* The free of record [r]: the slots outside it still bound to it, in
   store order. *)
let outside t r =
  let rec walk b acc =
    if b < 0 then acc
    else
      walk (get t.binds b b_prev)
        (if get t.binds b b_holder = r then acc else edge_of t b :: acc)
  in
  walk (get t.recs r r_last) []

(* Unbind every slot inside record [r]. *)
let drop_inner t r =
  let rec drop acc =
    let b = get t.recs r r_inner in
    if b < 0 then acc
    else begin
      let edge = edge_of t b in
      unbind t b;
      drop (edge :: acc)
    end
  in
  drop []

let step t i = function
  | Trace.Alloc { id; size; site } ->
    let r = record t id in
    let before = if r >= 0 && live t r then Some (state t r) else None in
    let r =
      if r >= 0 then r
      else begin
        let r = take t.recs in
        Flat_table.set t.ids (Flat_table.add t.ids id 0) 0 r;
        set t.recs r r_id id;
        set t.recs r r_first (-1);
        set t.recs r r_last (-1);
        set t.recs r r_holders 0;
        set t.recs r r_inner (-1);
        r
      end
    in
    set t.recs r r_size size;
    set t.recs r r_site site;
    set t.recs r r_alloc_op i;
    set t.recs r r_live 1;
    Alloc { id; size; site; before }
  | Trace.Free { id; thread } ->
    let r = record t id in
    if r < 0 || not (live t r) then
      Free { id; thread; before = None; outside = []; dropped = [] }
    else begin
      let before = Some (state t r) in
      let outside = outside t r in
      let dropped = if t.zeroing then drop_inner t r else [] in
      set t.recs r r_live 0;
      forget_if_unbound t r;
      Free { id; thread; before; outside; dropped }
    end
  | Trace.Store_ptr { loc; target } ->
    let place = resolve t loc in
    let r = record t target in
    let target_state = if r >= 0 && live t r then Some (state t r) else None in
    let displaced =
      match (place, target_state) with
      | (Slot slot | Wrapped { slot; _ }), Some _ ->
        store t (holder_of t slot) (word_of slot) ptr r ~op:i
      | _ -> None
    in
    Store { place; target; target_state; displaced }
  | Trace.Clear_ptr { loc; target } ->
    (* A clear writes 0 only if the slot still holds the target's
       address, which an alias of it does too. *)
    let place = resolve t loc in
    let cleared =
      match place with
      | Slot slot | Wrapped { slot; _ } ->
        let r = record t target in
        let holder = holder_of t slot and word = word_of slot in
        let b = binding_at t holder word in
        if
          r >= 0 && live t r && b >= 0
          && get t.binds b b_kind <> wild
          && get t.binds b b_target = r
        then clear t holder word
        else None
      | No_holder _ | No_words _ -> None
    in
    Clear { place; cleared }
  | Trace.Store_data { loc; value } -> (
    match Trace.aliased_id value with
    | Some id ->
      let r = record t id in
      if r >= 0 && live t r then data t i loc value (Some (Alias id)) r
      else data t i loc value None (-1)
    | None ->
      data t i loc value
        (if value >= Layout.heap_base then Some Wild else None)
        (-1))
  | Trace.Store_interior { loc; target; word = _ } ->
    let r = record t target in
    data t i loc (-target - 1)
      (if r >= 0 && live t r then Some (Alias target) else None)
      r
  | Trace.Zero loc -> data t i loc 0 None (-1)
  | Trace.Work _ -> Work
