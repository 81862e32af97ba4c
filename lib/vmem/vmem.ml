type prot =
  | No_access
  | Read_only
  | Read_write

type fault_kind =
  | Unmapped_access
  | Protection_violation

exception Fault of fault_kind * int

let page_size = 4096
let word_size = 8
let granule = 16

type page = { base : int; bytes : Bytes.t; write_gen : int }

(* One page-table entry. *)
type pte = {
  mutable data : Bytes.t option; (* None while decommitted *)
  mutable prot : prot;
  mutable soft_dirty : bool;
  mutable write_gen : int; (* scan generation of the last content change *)
}

(* The page table's [absent] sentinel, shared by every address space.
   Never mutated: each access path compares against it first. *)
let unmapped =
  { data = None; prot = No_access; soft_dirty = false; write_gen = 0 }

let readable = function
  | { data = Some _; prot = Read_only | Read_write; _ } -> true
  | { data = None; _ } | { prot = No_access; _ } -> false

type t = {
  pages : pte Page_table.t; (* keyed by page index *)
  mutable committed : int; (* resident bytes *)
  mutable readable_pages : int; (* committed pages not [No_access] *)
  mutable demand_commit_hook : pages:int -> unit;
  mutable generation : int; (* current scan generation (see mli) *)
  mutable write_observer : (addr:int -> value:int -> gen:int -> unit) option;
  mutable commit_observer : (addr:int -> len:int -> unit) option;
  mutable decommit_observer : (addr:int -> len:int -> unit) option;
}

let create () =
  {
    pages = Page_table.create ~absent:unmapped;
    committed = 0;
    readable_pages = 0;
    demand_commit_hook = (fun ~pages:_ -> ());
    generation = 0;
    write_observer = None;
    commit_observer = None;
    decommit_observer = None;
  }

let generation t = t.generation

let advance_generation t =
  t.generation <- t.generation + 1;
  t.generation

let set_demand_commit_hook t f = t.demand_commit_hook <- f
let set_write_observer t f = t.write_observer <- Some f
let clear_write_observer t = t.write_observer <- None
let set_commit_observer t f = t.commit_observer <- Some f
let clear_commit_observer t = t.commit_observer <- None
let set_decommit_observer t f = t.decommit_observer <- Some f

let notify_commit t ~addr ~len =
  match t.commit_observer with
  | None -> ()
  | Some f -> f ~addr ~len

let page_index addr = addr / page_size
let page_base addr = addr - (addr mod page_size)

let check_page_range addr len =
  assert (len > 0);
  assert (addr >= 0 && addr + len <= Layout.heap_limit);
  assert (addr mod page_size = 0);
  assert (len mod page_size = 0)

(* Keep [readable_pages] in step with a page that [was] readable or not
   before a state change. *)
let recount_readable t ~was p =
  match (was, readable p) with
  | false, true -> t.readable_pages <- t.readable_pages + 1
  | true, false -> t.readable_pages <- t.readable_pages - 1
  | false, false | true, true -> ()

let iter_page_indices ~addr ~len f =
  let first = page_index addr in
  let last = page_index (addr + len - 1) in
  for i = first to last do
    f i
  done

let map t ~addr ~len =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      assert (Page_table.find t.pages i == unmapped);
      Page_table.set t.pages i
        { data = Some (Bytes.make page_size '\000');
          prot = Read_write;
          soft_dirty = false;
          write_gen = t.generation };
      t.committed <- t.committed + page_size;
      t.readable_pages <- t.readable_pages + 1);
  notify_commit t ~addr ~len

let unmap t ~addr ~len =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      let p = Page_table.find t.pages i in
      if p != unmapped then begin
        if p.data <> None then t.committed <- t.committed - page_size;
        if readable p then t.readable_pages <- t.readable_pages - 1;
        Page_table.remove t.pages i
      end)

let find_page t addr =
  let p = Page_table.find t.pages (page_index addr) in
  if p == unmapped then raise (Fault (Unmapped_access, addr));
  p

let find_page_index t i = find_page t (i * page_size)

let decommit t ~addr ~len =
  check_page_range addr len;
  (match t.decommit_observer with
  | None -> ()
  | Some f -> f ~addr ~len);
  iter_page_indices ~addr ~len (fun i ->
      let p = find_page_index t i in
      if p.data <> None then begin
        let was = readable p in
        p.data <- None;
        p.write_gen <- t.generation;
        t.committed <- t.committed - page_size;
        recount_readable t ~was p
      end)

let commit_page t i p =
  if p.data = None then begin
    let was = readable p in
    p.data <- Some (Bytes.make page_size '\000');
    p.write_gen <- t.generation;
    t.committed <- t.committed + page_size;
    recount_readable t ~was p;
    notify_commit t ~addr:(i * page_size) ~len:page_size
  end

let commit t ~addr ~len =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i -> commit_page t i (find_page_index t i))

let protect t ~addr ~len prot =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      let p = find_page_index t i in
      (* Conservative: visibility changes invalidate cached page
         summaries even though the bytes themselves are untouched. *)
      if p.prot <> prot then begin
        let was = readable p in
        p.write_gen <- t.generation;
        p.prot <- prot;
        recount_readable t ~was p
      end)

let is_mapped t addr = Page_table.find t.pages (page_index addr) != unmapped

let is_committed t addr =
  (Page_table.find t.pages (page_index addr)).data <> None

let protection t addr = (find_page t addr).prot

(* Demand-commit on access: a decommitted-but-accessible page behaves like
   madvise(DONTNEED)'d memory — the OS hands back a zeroed page. *)
let readable_page t addr =
  let p = find_page t addr in
  (match p.prot with
  | No_access -> raise (Fault (Protection_violation, addr))
  | Read_only | Read_write -> ());
  if p.data = None then begin
    commit_page t (page_index addr) p;
    t.demand_commit_hook ~pages:1
  end;
  p

let writable_page t addr =
  let p = find_page t addr in
  (match p.prot with
  | No_access | Read_only -> raise (Fault (Protection_violation, addr))
  | Read_write -> ());
  if p.data = None then begin
    commit_page t (page_index addr) p;
    t.demand_commit_hook ~pages:1
  end;
  p

let page_bytes p =
  match p.data with
  | Some b -> b
  | None -> assert false

let load t addr =
  assert (addr mod word_size = 0);
  let p = readable_page t addr in
  Int64.to_int (Bytes.get_int64_le (page_bytes p) (addr mod page_size))

let store t addr w =
  assert (addr mod word_size = 0);
  let p = writable_page t addr in
  Bytes.set_int64_le (page_bytes p) (addr mod page_size) (Int64.of_int w);
  p.soft_dirty <- true;
  p.write_gen <- t.generation;
  match t.write_observer with
  | None -> ()
  | Some f -> f ~addr ~value:w ~gen:p.write_gen

let zero_range t ~addr ~len =
  if len > 0 then begin
    let finish = addr + len in
    let pos = ref addr in
    while !pos < finish do
      let p = writable_page t !pos in
      let off = !pos mod page_size in
      let n = min (page_size - off) (finish - !pos) in
      Bytes.fill (page_bytes p) off n '\000';
      p.soft_dirty <- true;
      p.write_gen <- t.generation;
      pos := !pos + n
    done
  end

let committed_bytes t = t.committed

let mapped_bytes t = Page_table.length t.pages * page_size

let iter_committed_words t ~addr ~len f =
  if len > 0 then begin
    let finish = addr + len in
    let pos = ref (page_base addr) in
    if !pos < addr then pos := addr;
    (* Walk page by page; words are always page-aligned chunks so a word
       never straddles two pages. *)
    let pos = ref !pos in
    while !pos < finish do
      let next_page = page_base !pos + page_size in
      let chunk_end = min next_page finish in
      (match Page_table.find t.pages (page_index !pos) with
      | { data = Some bytes; prot = Read_only | Read_write; _ } ->
        let off0 = !pos mod page_size in
        let words = (chunk_end - !pos) / word_size in
        for k = 0 to words - 1 do
          let off = off0 + (k * word_size) in
          let w = Int64.to_int (Bytes.get_int64_le bytes off) in
          f (page_base !pos + off) w
        done
      | { data = None; _ } | { prot = No_access; _ } -> ());
      pos := chunk_end
    done
  end

let iter_readable_pages t f =
  Page_table.iter t.pages (fun i p ->
      match p with
      | { data = Some bytes; prot = Read_only | Read_write; _ } ->
        f (i * page_size) bytes
      | { data = None; _ } | { prot = No_access; _ } -> ())

let iter_readable_pages_gen t f =
  Page_table.iter t.pages (fun i p ->
      match p with
      | { data = Some bytes; prot = Read_only | Read_write; write_gen; _ } ->
        f (i * page_size) bytes ~write_gen
      | { data = None; _ } | { prot = No_access; _ } -> ())

(* Long-lived, so not young when [Array.make] reads it (see mli). *)
let no_page = { base = 0; bytes = Bytes.empty; write_gen = 0 }

(* Zero-copy snapshot for the markers: the live page frames themselves,
   in the page table's ascending order, in an array sized by the
   readable-page count. No Bytes are copied — callers must treat the
   frames as read-only and must not interleave stores, protection
   changes or unmaps with reads of the snapshot (the marking phase holds
   that property: nothing mutates the address space while it scans). *)
let snapshot_readable_pages t =
  let snapshot = Array.make t.readable_pages no_page in
  let n = ref 0 in
  iter_readable_pages_gen t (fun base bytes ~write_gen ->
      snapshot.(!n) <- { base; bytes; write_gen };
      incr n);
  snapshot

let write_generation t addr = (find_page t addr).write_gen

let readable_bytes t = t.readable_pages * page_size

let clear_soft_dirty t =
  Page_table.iter t.pages (fun _ p -> p.soft_dirty <- false)

let soft_dirty_pages t =
  let n = ref 0 in
  Page_table.iter t.pages (fun _ p -> if p.soft_dirty then incr n);
  !n

(* Pages that were dirtied and then decommitted or protected [No_access]
   carry nothing a re-scan could read: visiting them would inflate the
   simulated pause with bytes no sweep ever touches. *)
let iter_soft_dirty_pages t f =
  Page_table.iter t.pages (fun i p ->
      match p with
      | { data = Some bytes; prot = Read_only | Read_write; soft_dirty; _ } ->
        if soft_dirty then f (i * page_size) bytes
      | { data = None; _ } | { prot = No_access; _ } -> ())

(* Publish the address-space accounting as read-through metrics: the
   registry consults these at export time, so the hot paths above carry
   no extra bookkeeping. *)
let attach_obs ?(prefix = "") t reg =
  let n name = prefix ^ name in
  Obs.Registry.derive_gauge reg (n "vmem.committed_bytes") (fun () ->
      committed_bytes t);
  Obs.Registry.derive_gauge reg (n "vmem.mapped_bytes") (fun () ->
      mapped_bytes t);
  Obs.Registry.derive_gauge reg (n "vmem.readable_bytes") (fun () ->
      readable_bytes t);
  Obs.Registry.derive_counter reg (n "vmem.scan_generation") (fun () ->
      generation t)
