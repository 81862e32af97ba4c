(* Virtual-memory substrate tests: mapping, protection, commit cycle,
   word access, soft-dirty tracking and the sweep iterator. *)

let page = Vmem.page_size
let base = Layout.heap_base

let fresh () =
  let m = Vmem.create () in
  Vmem.map m ~addr:base ~len:(4 * page);
  m

let test_map_and_access () =
  let m = fresh () in
  Alcotest.(check bool) "mapped" true (Vmem.is_mapped m base);
  Alcotest.(check bool) "committed" true (Vmem.is_committed m base);
  Vmem.store m base 0xDEAD;
  Alcotest.(check int) "load returns store" 0xDEAD (Vmem.load m base);
  Alcotest.(check int) "fresh pages zeroed" 0 (Vmem.load m (base + 8))

let test_unmapped_faults () =
  let m = fresh () in
  Alcotest.check_raises "load unmapped"
    (Vmem.Fault (Vmem.Unmapped_access, base + (8 * page)))
    (fun () -> ignore (Vmem.load m (base + (8 * page))));
  Alcotest.check_raises "store unmapped"
    (Vmem.Fault (Vmem.Unmapped_access, base + (8 * page)))
    (fun () -> Vmem.store m (base + (8 * page)) 1)

let test_unmap () =
  let m = fresh () in
  Vmem.unmap m ~addr:base ~len:page;
  Alcotest.(check bool) "unmapped" false (Vmem.is_mapped m base);
  Alcotest.(check bool) "rest still mapped" true (Vmem.is_mapped m (base + page))

let test_protection () =
  let m = fresh () in
  Vmem.protect m ~addr:base ~len:page Vmem.Read_only;
  Alcotest.(check int) "read allowed" 0 (Vmem.load m base);
  Alcotest.check_raises "write denied"
    (Vmem.Fault (Vmem.Protection_violation, base))
    (fun () -> Vmem.store m base 1);
  Vmem.protect m ~addr:base ~len:page Vmem.No_access;
  Alcotest.check_raises "read denied"
    (Vmem.Fault (Vmem.Protection_violation, base))
    (fun () -> ignore (Vmem.load m base));
  Vmem.protect m ~addr:base ~len:page Vmem.Read_write;
  Vmem.store m base 9;
  Alcotest.(check int) "restored" 9 (Vmem.load m base)

let test_decommit_loses_content () =
  let m = fresh () in
  Vmem.store m base 123;
  Vmem.decommit m ~addr:base ~len:page;
  Alcotest.(check bool) "not committed" false (Vmem.is_committed m base);
  (* Demand-commit on access returns zeroed memory. *)
  Alcotest.(check int) "zeroed after decommit" 0 (Vmem.load m base);
  Alcotest.(check bool) "recommitted by access" true (Vmem.is_committed m base)

let test_demand_commit_hook () =
  let m = fresh () in
  let faults = ref 0 in
  Vmem.set_demand_commit_hook m (fun ~pages -> faults := !faults + pages);
  Vmem.decommit m ~addr:base ~len:(2 * page);
  ignore (Vmem.load m base);
  ignore (Vmem.load m (base + page));
  ignore (Vmem.load m base);
  Alcotest.(check int) "two demand commits" 2 !faults

let test_committed_bytes () =
  let m = fresh () in
  Alcotest.(check int) "initial rss" (4 * page) (Vmem.committed_bytes m);
  Vmem.decommit m ~addr:base ~len:page;
  Alcotest.(check int) "after decommit" (3 * page) (Vmem.committed_bytes m);
  Vmem.commit m ~addr:base ~len:page;
  Alcotest.(check int) "after commit" (4 * page) (Vmem.committed_bytes m);
  Vmem.unmap m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "after unmap" 0 (Vmem.committed_bytes m)

let test_zero_range_partial () =
  let m = fresh () in
  Vmem.store m base 1;
  Vmem.store m (base + 8) 2;
  Vmem.store m (base + 16) 3;
  Vmem.zero_range m ~addr:(base + 8) ~len:8;
  Alcotest.(check int) "before untouched" 1 (Vmem.load m base);
  Alcotest.(check int) "zeroed" 0 (Vmem.load m (base + 8));
  Alcotest.(check int) "after untouched" 3 (Vmem.load m (base + 16))

let test_zero_range_spans_pages () =
  let m = fresh () in
  Vmem.store m (base + page - 8) 7;
  Vmem.store m (base + page) 8;
  Vmem.zero_range m ~addr:(base + page - 8) ~len:16;
  Alcotest.(check int) "end of page zeroed" 0 (Vmem.load m (base + page - 8));
  Alcotest.(check int) "start of next zeroed" 0 (Vmem.load m (base + page))

let test_soft_dirty () =
  let m = fresh () in
  Vmem.clear_soft_dirty m;
  Alcotest.(check int) "clean" 0 (Vmem.soft_dirty_pages m);
  Vmem.store m base 1;
  Vmem.store m (base + 8) 2 (* same page *);
  Vmem.store m (base + (2 * page)) 3;
  Alcotest.(check int) "two dirty pages" 2 (Vmem.soft_dirty_pages m);
  let seen = ref [] in
  Vmem.iter_soft_dirty_pages m (fun p _ -> seen := p :: !seen);
  Alcotest.(check bool) "first page dirty" true (List.mem base !seen);
  Alcotest.(check bool) "third page dirty" true
    (List.mem (base + (2 * page)) !seen)

let test_dirty_walk_skips_unreadable () =
  (* Regression: pages dirtied and then decommitted or protected
     No_access used to be walked (and billed) by the dirty-page re-scan
     even though a real scan of them would fault. *)
  let m = fresh () in
  Vmem.clear_soft_dirty m;
  Vmem.store m base 1;
  Vmem.store m (base + page) 2;
  Vmem.store m (base + (2 * page)) 3;
  Vmem.decommit m ~addr:base ~len:page;
  Vmem.protect m ~addr:(base + page) ~len:page Vmem.No_access;
  let seen = ref [] in
  Vmem.iter_soft_dirty_pages m (fun p _ -> seen := p :: !seen);
  Alcotest.(check (list int)) "only the readable dirty page is walked"
    [ base + (2 * page) ]
    !seen;
  (* The raw bit counter still reports all three. *)
  Alcotest.(check int) "raw counter untouched" 3 (Vmem.soft_dirty_pages m)

let test_write_generations () =
  let m = fresh () in
  let g = Vmem.advance_generation m in
  Alcotest.(check int) "generation readable" g (Vmem.generation m);
  (* Pages mapped before the advance predate it. *)
  Alcotest.(check bool) "initial pages below the new generation" true
    (Vmem.write_generation m base < g);
  Vmem.store m base 1;
  Alcotest.(check int) "store stamps the current generation" g
    (Vmem.write_generation m base);
  (* Every content-changing operation stamps: zero, decommit, protect. *)
  let g2 = Vmem.advance_generation m in
  Vmem.zero_range m ~addr:(base + page) ~len:8;
  Vmem.decommit m ~addr:(base + (2 * page)) ~len:page;
  Vmem.protect m ~addr:(base + (3 * page)) ~len:page Vmem.Read_only;
  Alcotest.(check int) "zero_range stamps" g2
    (Vmem.write_generation m (base + page));
  Alcotest.(check int) "decommit stamps" g2
    (Vmem.write_generation m (base + (2 * page)));
  Alcotest.(check int) "protect stamps" g2
    (Vmem.write_generation m (base + (3 * page)));
  (* Re-protecting with the same protection is a no-op. *)
  let g3 = Vmem.advance_generation m in
  Vmem.protect m ~addr:(base + (3 * page)) ~len:page Vmem.Read_only;
  Alcotest.(check int) "idempotent protect does not stamp" g2
    (Vmem.write_generation m (base + (3 * page)));
  ignore g3;
  (* The generation-aware page walk exposes the stamps. *)
  let gens = ref [] in
  Vmem.iter_readable_pages_gen m (fun p _ ~write_gen ->
      gens := (p, write_gen) :: !gens);
  Alcotest.(check bool) "walk reports the stamped generation" true
    (List.assoc base !gens = g)

let test_iter_committed_words () =
  let m = fresh () in
  Vmem.store m base 10;
  Vmem.store m (base + 8) 20;
  let seen = ref [] in
  Vmem.iter_committed_words m ~addr:base ~len:16 (fun a w ->
      seen := (a, w) :: !seen);
  Alcotest.(check (list (pair int int)))
    "both words in order"
    [ (base, 10); (base + 8, 20) ]
    (List.rev !seen)

let test_iter_skips_protected_and_decommitted () =
  let m = fresh () in
  Vmem.store m base 1;
  Vmem.store m (base + page) 2;
  Vmem.store m (base + (2 * page)) 3;
  Vmem.protect m ~addr:base ~len:page Vmem.No_access;
  Vmem.decommit m ~addr:(base + page) ~len:page;
  let count = ref 0 and total = ref 0 in
  Vmem.iter_committed_words m ~addr:base ~len:(3 * page) (fun _ w ->
      incr count;
      total := !total + w);
  (* Only the third page is visited: 512 words, sum 3. *)
  Alcotest.(check int) "words visited" (page / 8) !count;
  Alcotest.(check int) "content" 3 !total;
  (* Crucially, the decommitted page was NOT demand-committed. *)
  Alcotest.(check bool) "no demand commit" false
    (Vmem.is_committed m (base + page))

let test_iter_readable_pages () =
  let m = fresh () in
  Vmem.protect m ~addr:base ~len:page Vmem.No_access;
  Vmem.decommit m ~addr:(base + page) ~len:page;
  let pages = ref [] in
  Vmem.iter_readable_pages m (fun p _ -> pages := p :: !pages);
  let sorted = List.sort compare !pages in
  Alcotest.(check (list int)) "two readable pages"
    [ base + (2 * page); base + (3 * page) ]
    sorted;
  Alcotest.(check int) "readable bytes" (2 * page) (Vmem.readable_bytes m)

let test_commit_observer () =
  let m = Vmem.create () in
  let events = ref [] in
  Vmem.set_commit_observer m (fun ~addr ~len -> events := (addr, len) :: !events);
  Vmem.map m ~addr:base ~len:(2 * page);
  Alcotest.(check (list (pair int int)))
    "map commits the whole run in one event"
    [ (base, 2 * page) ]
    (List.rev !events);
  (* Recommitting resident pages is a no-op and must stay silent. *)
  Vmem.commit m ~addr:base ~len:page;
  Alcotest.(check int) "no event for already-committed pages" 1
    (List.length !events);
  Vmem.decommit m ~addr:base ~len:page;
  ignore (Vmem.load m base);
  Alcotest.(check (pair int int)) "demand commit fires page-granular"
    (base, page) (List.hd !events);
  Vmem.clear_commit_observer m;
  Vmem.decommit m ~addr:base ~len:page;
  Vmem.commit m ~addr:base ~len:page;
  Alcotest.(check int) "cleared observer is silent" 2 (List.length !events)

let test_committed_bytes_gauge () =
  (* Satellite: the read-through gauge must round-trip to exactly zero
     after committed pages are decommitted again — the fleet budget
     accounting leans on this invariant. *)
  let m = Vmem.create () in
  let reg = Obs.Registry.create () in
  Vmem.attach_obs m reg;
  let read name =
    match Obs.Registry.read reg name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check int) "empty space commits nothing" 0
    (read "vmem.committed_bytes");
  Vmem.map m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "map commits eagerly" (4 * page)
    (read "vmem.committed_bytes");
  Vmem.decommit m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "decommit returns the gauge to zero" 0
    (read "vmem.committed_bytes");
  ignore (Vmem.load m base);
  Alcotest.(check int) "demand commit is one page" page
    (read "vmem.committed_bytes");
  Vmem.decommit m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "round-trips to zero again" 0
    (read "vmem.committed_bytes");
  (* A second address space shares the registry under a prefix. *)
  let m2 = Vmem.create () in
  Vmem.attach_obs ~prefix:"t1." m2 reg;
  Vmem.map m2 ~addr:base ~len:page;
  Alcotest.(check int) "prefixed gauge tracks the other space" page
    (read "t1.vmem.committed_bytes");
  Alcotest.(check int) "unprefixed gauge unaffected" 0
    (read "vmem.committed_bytes")

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"store/load round-trips any word" ~count:300
    QCheck.(pair (int_range 0 511) (int_range 0 max_int))
    (fun (word_index, value) ->
      let m = fresh () in
      let addr = base + (word_index * 8) in
      Vmem.store m addr value;
      Vmem.load m addr = value)

(* ---- Reference model -------------------------------------------------

   [Vmem] against a model built from [Map.Make (Int)]: page number ->
   page state, with each page's nonzero words in a map of their own.
   Random operation sequences run on both; every step must fault alike
   and leave the same page walks and accounting. *)

module IM = Map.Make (Int)

type model_page = {
  committed : bool;
  prot : Vmem.prot;
  dirty : bool;
  gen : int;
  words : int IM.t; (* word offset in the page -> nonzero value *)
}

type model = { pages : model_page IM.t; generation : int }

let model_readable mp = mp.committed && mp.prot <> Vmem.No_access

(* Candidate pages: the globals and stack regions, both sides of a leaf
   boundary in the heap, the last leaf below [Layout.heap_limit], and a
   whole heap leaf that [Map_leaf]/[Unmap_leaf] map and unmap at once. *)
let leaf = Page_table.leaf_pages
let heap_page = Layout.heap_base / page
let limit_page = Layout.heap_limit / page
let whole_leaf = (heap_page / leaf) + 3

let candidate_pages =
  [| Layout.globals_base / page;
     (Layout.globals_base / page) + 15;
     Layout.stack_base / page;
     (Layout.stack_base / page) + 1;
     heap_page;
     heap_page + leaf - 2;
     heap_page + leaf - 1;
     heap_page + leaf;
     heap_page + leaf + 1;
     limit_page - leaf - 1;
     limit_page - leaf;
     limit_page - 2;
     limit_page - 1;
     whole_leaf * leaf;
     (whole_leaf * leaf) + 255;
     (whole_leaf * leaf) + leaf - 1 |]

type op =
  | Map of int
  | Unmap of int
  | Map_leaf
  | Unmap_leaf
  | Commit of int
  | Decommit of int
  | Protect of int * Vmem.prot
  | Store of int * int * int (* page, word, value *)
  | Zero of int * int * int (* page, byte offset, length: may cross *)
  | Load of int * int
  | Advance
  | Clear_dirty

let prot_name = function
  | Vmem.No_access -> "none"
  | Vmem.Read_only -> "ro"
  | Vmem.Read_write -> "rw"

let show_op = function
  | Map p -> Printf.sprintf "map %#x" p
  | Unmap p -> Printf.sprintf "unmap %#x" p
  | Map_leaf -> "map-leaf"
  | Unmap_leaf -> "unmap-leaf"
  | Commit p -> Printf.sprintf "commit %#x" p
  | Decommit p -> Printf.sprintf "decommit %#x" p
  | Protect (p, prot) -> Printf.sprintf "protect %#x %s" p (prot_name prot)
  | Store (p, w, v) -> Printf.sprintf "store %#x[%d] %d" p w v
  | Zero (p, off, len) -> Printf.sprintf "zero %#x+%d %d" p off len
  | Load (p, w) -> Printf.sprintf "load %#x[%d]" p w
  | Advance -> "advance"
  | Clear_dirty -> "clear-dirty"

let gen_op =
  let open QCheck.Gen in
  let cand = oneofa candidate_pages in
  let word = int_bound ((page / 8) - 1) in
  frequency
    [ (4, map (fun p -> Map p) cand);
      (2, map (fun p -> Unmap p) cand);
      (1, return Map_leaf);
      (1, return Unmap_leaf);
      (2, map (fun p -> Commit p) cand);
      (2, map (fun p -> Decommit p) cand);
      ( 3,
        map2
          (fun p prot -> Protect (p, prot))
          cand
          (oneofl [ Vmem.No_access; Vmem.Read_only; Vmem.Read_write ]) );
      ( 6,
        map3 (fun p w v -> Store (p, w, v)) cand word (int_range 1 (1 lsl 40)) );
      ( 2,
        map3
          (fun p off len -> Zero (p, off, len))
          cand (int_bound (page - 1)) (int_range 0 (2 * page)) );
      (3, map2 (fun p w -> Load (p, w)) cand word);
      (1, return Advance);
      (1, return Clear_dirty) ]

(* A fault, with the model's state when it was raised: a zero range
   that faults on a later page has already zeroed the earlier ones. *)
exception Model_fault of model * Vmem.fault_kind * int

let model_find m i addr =
  match IM.find_opt i m.pages with
  | Some mp -> mp
  | None -> raise (Model_fault (m, Vmem.Unmapped_access, addr))

let model_set m i mp = { m with pages = IM.add i mp m.pages }

(* A demand-commit, as an access to a decommitted page performs it. *)
let model_touch m mp =
  if mp.committed then mp
  else { mp with committed = true; gen = m.generation; words = IM.empty }

let model_map m i =
  model_set m i
    { committed = true; prot = Vmem.Read_write; dirty = false;
      gen = m.generation; words = IM.empty }

(* Zero the page-local bytes [lo, hi) of a page's words. *)
let zero_words words ~lo ~hi =
  IM.filter_map
    (fun w v ->
      let a = max lo (w * 8) and b = min hi ((w * 8) + 8) in
      let mask = ref 0 in
      for k = a - (w * 8) to b - (w * 8) - 1 do
        mask := !mask lor (0xff lsl (8 * k))
      done;
      let v = v land lnot !mask in
      if v = 0 then None else Some v)
    words

(* Apply [op] to the model; returns the new model and a loaded value. *)
let model_step m op =
  let page_op i f = model_set m i (f (model_find m i (i * page))) in
  match op with
  | Map i -> (model_map m i, 0)
  | Map_leaf ->
    let m = ref m in
    for i = whole_leaf * leaf to (whole_leaf * leaf) + leaf - 1 do
      m := model_map !m i
    done;
    (!m, 0)
  | Unmap i -> ({ m with pages = IM.remove i m.pages }, 0)
  | Unmap_leaf ->
    ( { m with
        pages =
          IM.filter (fun i _ -> i / leaf <> whole_leaf) m.pages },
      0 )
  | Commit i ->
    (page_op i (fun mp ->
         if mp.committed then mp else model_touch m mp), 0)
  | Decommit i ->
    ( page_op i (fun mp ->
          if mp.committed then
            { mp with committed = false; gen = m.generation;
                      words = IM.empty }
          else mp),
      0 )
  | Protect (i, prot) ->
    ( page_op i (fun mp ->
          if mp.prot <> prot then { mp with prot; gen = m.generation }
          else mp),
      0 )
  | Store (i, w, v) ->
    let addr = (i * page) + (w * 8) in
    let mp = model_find m i addr in
    if mp.prot <> Vmem.Read_write then
      raise (Model_fault (m, Vmem.Protection_violation, addr));
    let mp = model_touch m mp in
    ( model_set m i
        { mp with dirty = true; gen = m.generation;
                  words = IM.add w v mp.words },
      0 )
  | Zero (i, off, len) ->
    (* Page by page, like [Vmem.zero_range]: a fault on a later page
       leaves the earlier pages zeroed. *)
    let finish = (i * page) + off + len in
    let rec go m pos =
      if pos >= finish then m
      else begin
        let pi = pos / page in
        let mp = model_find m pi pos in
        if mp.prot <> Vmem.Read_write then
          raise (Model_fault (m, Vmem.Protection_violation, pos));
        let mp = model_touch m mp in
        let words =
          zero_words mp.words ~lo:(pos mod page)
            ~hi:(min page (finish - (pi * page)))
        in
        let m =
          model_set m pi { mp with dirty = true; gen = m.generation; words }
        in
        go m ((pi + 1) * page)
      end
    in
    (go m ((i * page) + off), 0)
  | Load (i, w) ->
    let addr = (i * page) + (w * 8) in
    let mp = model_find m i addr in
    if mp.prot = Vmem.No_access then
      raise (Model_fault (m, Vmem.Protection_violation, addr));
    let mp = model_touch m mp in
    (model_set m i mp, Option.value ~default:0 (IM.find_opt w mp.words))
  | Advance -> ({ m with generation = m.generation + 1 }, 0)
  | Clear_dirty ->
    ({ m with pages = IM.map (fun mp -> { mp with dirty = false }) m.pages }, 0)

(* Apply [op] to the address space, in the model's terms. *)
let vmem_step v op =
  let leaf_range = (whole_leaf * leaf * page, leaf * page) in
  match op with
  | Map i -> Vmem.map v ~addr:(i * page) ~len:page; 0
  | Unmap i -> Vmem.unmap v ~addr:(i * page) ~len:page; 0
  | Map_leaf ->
    let addr, len = leaf_range in
    Vmem.map v ~addr ~len; 0
  | Unmap_leaf ->
    let addr, len = leaf_range in
    Vmem.unmap v ~addr ~len; 0
  | Commit i -> Vmem.commit v ~addr:(i * page) ~len:page; 0
  | Decommit i -> Vmem.decommit v ~addr:(i * page) ~len:page; 0
  | Protect (i, prot) -> Vmem.protect v ~addr:(i * page) ~len:page prot; 0
  | Store (i, w, x) -> Vmem.store v ((i * page) + (w * 8)) x; 0
  | Zero (i, off, len) -> Vmem.zero_range v ~addr:((i * page) + off) ~len; 0
  | Load (i, w) -> Vmem.load v ((i * page) + (w * 8))
  | Advance -> ignore (Vmem.advance_generation v); 0
  | Clear_dirty -> Vmem.clear_soft_dirty v; 0

(* [Vmem.map] requires unmapped pages: the generator's maps of mapped
   pages are skipped on both sides. *)
let applicable m = function
  | Map i -> not (IM.mem i m.pages)
  | Map_leaf ->
    not (IM.exists (fun i _ -> i / leaf = whole_leaf) m.pages)
  | _ -> true

let strictly_ascending l =
  let rec go = function a :: (b :: _ as rest) -> a < b && go rest | _ -> true in
  go l

(* The frame holds exactly the model's words: every word when [full],
   otherwise only those the model says are nonzero. *)
let frame_matches ~full bytes mp =
  let word w = Int64.to_int (Bytes.get_int64_le bytes (w * 8)) in
  IM.for_all (fun w x -> word w = x) mp.words
  && ((not full)
     ||
     let ok = ref true in
     for w = 0 to (page / 8) - 1 do
       if word w <> 0 && not (IM.mem w mp.words) then ok := false
     done;
     !ok)

let agrees ~full v m =
  let fail fmt = Printf.ksprintf (fun msg -> QCheck.Test.fail_report msg) fmt in
  let snapshot = Array.to_list (Vmem.snapshot_readable_pages v) in
  let bases = List.map (fun (p : Vmem.page) -> p.Vmem.base) snapshot in
  let readable = IM.filter (fun _ mp -> model_readable mp) m.pages in
  if not (strictly_ascending bases) then fail "snapshot not ascending";
  let expected =
    List.map (fun (i, mp) -> (i * page, mp.gen)) (IM.bindings readable)
  in
  if
    List.map (fun (p : Vmem.page) -> (p.Vmem.base, p.Vmem.write_gen)) snapshot
    <> expected
  then
    fail "snapshot pages or write generations differ from the model";
  List.iter
    (fun { Vmem.base = b; bytes; _ } ->
      if not (frame_matches ~full bytes (IM.find (b / page) m.pages)) then
        fail "frame of page %#x differs from the model" b)
    snapshot;
  IM.iter
    (fun i mp ->
      let a = i * page in
      if
        not
          (Vmem.is_mapped v a
          && Vmem.is_committed v a = mp.committed
          && Vmem.protection v a = mp.prot
          && Vmem.write_generation v a = mp.gen)
      then fail "state of page %#x differs from the model" a)
    m.pages;
  Array.iter
    (fun i ->
      if Vmem.is_mapped v (i * page) <> IM.mem i m.pages then
        fail "is_mapped %#x" (i * page))
    candidate_pages;
  let count p = IM.cardinal (IM.filter (fun _ mp -> p mp) m.pages) in
  if Vmem.mapped_bytes v <> IM.cardinal m.pages * page then fail "mapped_bytes";
  if Vmem.committed_bytes v <> count (fun mp -> mp.committed) * page then
    fail "committed_bytes";
  if Vmem.readable_bytes v <> IM.cardinal readable * page then
    fail "readable_bytes";
  if Vmem.soft_dirty_pages v <> count (fun mp -> mp.dirty) then
    fail "soft_dirty_pages";
  let dirty = ref [] in
  Vmem.iter_soft_dirty_pages v (fun b _ -> dirty := b :: !dirty);
  let dirty = List.rev !dirty in
  let expected =
    IM.bindings readable
    |> List.filter (fun (_, mp) -> mp.dirty)
    |> List.map (fun (i, _) -> i * page)
  in
  if dirty <> expected then fail "iter_soft_dirty_pages";
  true

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let prop_vmem_matches_model =
  (* A case that maps a page near [Layout.heap_limit] grows the page
     directory to its full 128k leaves, and every page walk then visits
     them all: 120 cases keep the property near 2 s. *)
  QCheck.Test.make ~name:"vmem == Map-based reference model" ~count:120
    arb_ops
    (fun ops ->
      let v = Vmem.create () in
      let rec run m = function
        | [] -> agrees ~full:true v m
        | op :: rest when not (applicable m op) -> run m rest
        | op :: rest ->
          let m, expected =
            match model_step m op with
            | m, x -> (m, Ok x)
            | exception Model_fault (m, k, a) -> (m, Error (k, a))
          in
          let actual =
            match vmem_step v op with
            | x -> Ok x
            | exception Vmem.Fault (k, a) -> Error (k, a)
          in
          if expected <> actual then
            QCheck.Test.fail_reportf "%s: outcome differs" (show_op op);
          agrees ~full:false v m && run m rest
      in
      run { pages = IM.empty; generation = 0 } ops)

let suite =
  ( "vmem",
    [
      Alcotest.test_case "map and access" `Quick test_map_and_access;
      Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
      Alcotest.test_case "unmap" `Quick test_unmap;
      Alcotest.test_case "protection" `Quick test_protection;
      Alcotest.test_case "decommit loses content" `Quick
        test_decommit_loses_content;
      Alcotest.test_case "demand-commit hook" `Quick test_demand_commit_hook;
      Alcotest.test_case "committed bytes" `Quick test_committed_bytes;
      Alcotest.test_case "zero_range partial" `Quick test_zero_range_partial;
      Alcotest.test_case "zero_range spans pages" `Quick
        test_zero_range_spans_pages;
      Alcotest.test_case "soft dirty" `Quick test_soft_dirty;
      Alcotest.test_case "dirty walk skips unreadable pages" `Quick
        test_dirty_walk_skips_unreadable;
      Alcotest.test_case "write generations" `Quick test_write_generations;
      Alcotest.test_case "iter committed words" `Quick
        test_iter_committed_words;
      Alcotest.test_case "iter skips protected/decommitted" `Quick
        test_iter_skips_protected_and_decommitted;
      Alcotest.test_case "iter readable pages" `Quick test_iter_readable_pages;
      Alcotest.test_case "commit observer" `Quick test_commit_observer;
      Alcotest.test_case "committed-bytes gauge round-trip" `Quick
        test_committed_bytes_gauge;
      QCheck_alcotest.to_alcotest prop_store_load_roundtrip;
      QCheck_alcotest.to_alcotest prop_vmem_matches_model;
    ] )
