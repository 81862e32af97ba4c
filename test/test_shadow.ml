(* Shadow-map tests: the mark algebra the release phase depends on. *)

let base = Layout.heap_base
let granule = Vmem.granule

let test_fresh_is_clean () =
  let s = Minesweeper.Shadow.create () in
  Alcotest.(check bool) "unmarked" false (Minesweeper.Shadow.is_marked s base);
  Alcotest.(check int) "no marks" 0 (Minesweeper.Shadow.marked_granules s)

let test_mark_sets_granule () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s (base + 100);
  Alcotest.(check bool) "marked" true
    (Minesweeper.Shadow.is_marked s (base + 100));
  (* Same granule: 100 and 96 share granule 6. *)
  Alcotest.(check bool) "same granule marked" true
    (Minesweeper.Shadow.is_marked s (base + 96));
  Alcotest.(check bool) "next granule clean" false
    (Minesweeper.Shadow.is_marked s (base + 112));
  Alcotest.(check int) "one mark" 1 (Minesweeper.Shadow.marked_granules s)

let test_mark_idempotent () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s base;
  Minesweeper.Shadow.mark s base;
  Alcotest.(check int) "still one mark" 1 (Minesweeper.Shadow.marked_granules s)

let test_clear () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s base;
  Minesweeper.Shadow.mark s (base + 4096);
  Minesweeper.Shadow.clear s;
  Alcotest.(check int) "cleared" 0 (Minesweeper.Shadow.marked_granules s);
  Alcotest.(check bool) "specific bit cleared" false
    (Minesweeper.Shadow.is_marked s base)

let test_range_marked () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s (base + 64);
  Alcotest.(check bool) "range containing mark" true
    (Minesweeper.Shadow.range_marked s ~addr:base ~len:128);
  Alcotest.(check bool) "range before mark" false
    (Minesweeper.Shadow.range_marked s ~addr:base ~len:64);
  Alcotest.(check bool) "range after mark" false
    (Minesweeper.Shadow.range_marked s ~addr:(base + 80) ~len:64)

let test_range_marked_unaligned () =
  let s = Minesweeper.Shadow.create () in
  (* Mark granule [16,32); a range starting at 30 intersects it. *)
  Minesweeper.Shadow.mark s (base + 16);
  Alcotest.(check bool) "unaligned intersecting range" true
    (Minesweeper.Shadow.range_marked s ~addr:(base + 30) ~len:4);
  Alcotest.(check bool) "unaligned disjoint range" false
    (Minesweeper.Shadow.range_marked s ~addr:(base + 32) ~len:4)

let test_page_boundaries () =
  let s = Minesweeper.Shadow.create () in
  let last_in_page = base + Vmem.page_size - granule in
  Minesweeper.Shadow.mark s last_in_page;
  Alcotest.(check bool) "mark at page end" true
    (Minesweeper.Shadow.is_marked s (base + Vmem.page_size - 1));
  Alcotest.(check bool) "next page clean" false
    (Minesweeper.Shadow.is_marked s (base + Vmem.page_size));
  Alcotest.(check bool) "range spanning pages sees it" true
    (Minesweeper.Shadow.range_marked s
       ~addr:(base + Vmem.page_size - 32)
       ~len:64)

let test_shadow_compactness () =
  (* One bit per granule: a page of marks costs 32 bytes of shadow. *)
  let s = Minesweeper.Shadow.create () in
  for g = 0 to (Vmem.page_size / granule) - 1 do
    Minesweeper.Shadow.mark s (base + (g * granule))
  done;
  Alcotest.(check int) "all page granules marked" 256
    (Minesweeper.Shadow.marked_granules s);
  Alcotest.(check int) "32 shadow bytes per page" 32
    (Minesweeper.Shadow.shadow_bytes s)

let prop_mark_then_query =
  QCheck.Test.make ~name:"any marked address tests positive" ~count:500
    QCheck.(int_range 0 ((1 lsl 24) - 1))
    (fun offset ->
      let s = Minesweeper.Shadow.create () in
      let p = base + offset in
      Minesweeper.Shadow.mark s p;
      Minesweeper.Shadow.is_marked s p
      && Minesweeper.Shadow.range_marked s ~addr:p ~len:1)

let prop_unmarked_ranges_clean =
  QCheck.Test.make ~name:"disjoint ranges stay clean" ~count:500
    QCheck.(pair (int_range 0 10_000) (int_range 1 256))
    (fun (offset, len) ->
      let s = Minesweeper.Shadow.create () in
      let p = base + (offset * granule) in
      Minesweeper.Shadow.mark s p;
      (* A range strictly beyond the marked granule must be clean. *)
      not
        (Minesweeper.Shadow.range_marked s ~addr:(p + granule)
           ~len:(len * granule)))

let prop_range_equivalent_to_pointwise =
  QCheck.Test.make ~name:"range_marked agrees with granule-wise is_marked"
    ~count:300
    QCheck.(
      triple (int_range 0 2000) (int_range 1 512)
        (list_of_size Gen.(int_range 0 5) (int_range 0 2500)))
    (fun (start, len, marks) ->
      let s = Minesweeper.Shadow.create () in
      List.iter (fun g -> Minesweeper.Shadow.mark s (base + (g * granule))) marks;
      let addr = base + (start * granule) in
      let expected =
        let rec check p =
          p < addr + len
          && (Minesweeper.Shadow.is_marked s p || check (p + granule))
        in
        check (addr - (addr mod granule))
      in
      Minesweeper.Shadow.range_marked s ~addr ~len = expected)

let granules = [ 16; 64; 256; 512; 1024; 2048; 4096 ]

(* Bytes one marked page accounts for: one bit per granule, rounded up
   to a whole byte. *)
let page_bytes g = ((Vmem.page_size / g) + 7) / 8

let test_every_granule () =
  (* Regression: at granules of 1 KiB and more a page has fewer than 8
     granules, and the bitmap used to be 0 bytes long — the mark landed
     in padding, so [marked_granules], [iter_marked] and [shadow_bytes]
     all missed it. *)
  List.iter
    (fun g ->
      let s = Minesweeper.Shadow.create ~granule:g () in
      let p = base + Vmem.page_size + g + 8 in
      let start = p - (p mod g) in
      Minesweeper.Shadow.mark s p;
      let name what = Printf.sprintf "granule %d: %s" g what in
      Alcotest.(check bool) (name "is_marked") true
        (Minesweeper.Shadow.is_marked s start);
      Alcotest.(check bool) (name "range_marked") true
        (Minesweeper.Shadow.range_marked s ~addr:base
           ~len:(3 * Vmem.page_size));
      Alcotest.(check int) (name "marked_granules") 1
        (Minesweeper.Shadow.marked_granules s);
      let seen = ref [] in
      Minesweeper.Shadow.iter_marked s (fun a -> seen := a :: !seen);
      Alcotest.(check (list int)) (name "iter_marked") [ start ] !seen;
      Alcotest.(check int) (name "shadow_bytes") (page_bytes g)
        (Minesweeper.Shadow.shadow_bytes s);
      Minesweeper.Shadow.clear s;
      Alcotest.(check int) (name "cleared") 0
        (Minesweeper.Shadow.marked_granules s);
      Alcotest.(check int) (name "cleared bytes") 0
        (Minesweeper.Shadow.shadow_bytes s);
      Alcotest.(check bool) (name "cleared bit") false
        (Minesweeper.Shadow.is_marked s start))
    granules

(* ---- Reference model ------------------------------------------------

   Random mark and clear sequences against the set of marked granule
   numbers (and the set of pages marked since the last clear), at every
   granule. Addresses fall in the first eight heap pages, so marks
   collide, repeat across clears, and ranges cross pages. *)

module IS = Set.Make (Int)

type shadow_op = Mark of int | Clear

let span = 8 * Vmem.page_size

let gen_shadow_case =
  let open QCheck.Gen in
  let op =
    frequency
      [ (12, map (fun o -> Mark o) (int_bound (span - 1))); (1, return Clear) ]
  in
  let range = pair (int_bound (span - 1)) (int_range 1 (2 * Vmem.page_size)) in
  triple (oneofl granules) (list_size (int_range 0 80) op)
    (list_repeat 20 range)

let show_shadow_case (g, ops, ranges) =
  Printf.sprintf "granule %d; ops [%s]; ranges [%s]" g
    (String.concat "; "
       (List.map
          (function Mark o -> Printf.sprintf "mark +%d" o | Clear -> "clear")
          ops))
    (String.concat "; "
       (List.map (fun (o, l) -> Printf.sprintf "+%d,%d" o l) ranges))

let prop_shadow_matches_model =
  QCheck.Test.make ~name:"shadow == set-of-granules model (every granule)"
    ~count:300
    (QCheck.make ~print:show_shadow_case gen_shadow_case)
    (fun (g, ops, ranges) ->
      let s = Minesweeper.Shadow.create ~granule:g () in
      let marks, pages =
        List.fold_left
          (fun (marks, pages) op ->
            match op with
            | Mark o ->
              Minesweeper.Shadow.mark s (base + o);
              (IS.add ((base + o) / g) marks,
               IS.add ((base + o) / Vmem.page_size) pages)
            | Clear ->
              Minesweeper.Shadow.clear s;
              (IS.empty, IS.empty))
          (IS.empty, IS.empty) ops
      in
      let iterated = ref [] in
      Minesweeper.Shadow.iter_marked s (fun a -> iterated := a :: !iterated);
      let expected_range (o, len) =
        let addr = base + o in
        IS.exists (fun m -> m >= addr / g && m <= (addr + len - 1) / g) marks
      in
      List.rev !iterated = List.map (fun m -> m * g) (IS.elements marks)
      && Minesweeper.Shadow.marked_granules s = IS.cardinal marks
      && Minesweeper.Shadow.shadow_bytes s = IS.cardinal pages * page_bytes g
      && List.for_all
           (fun (o, _) ->
             Minesweeper.Shadow.is_marked s (base + o)
             = IS.mem ((base + o) / g) marks)
           ranges
      && List.for_all
           (fun (o, len) ->
             Minesweeper.Shadow.range_marked s ~addr:(base + o) ~len
             = expected_range (o, len))
           ranges)

let suite =
  ( "minesweeper.shadow",
    [
      Alcotest.test_case "fresh is clean" `Quick test_fresh_is_clean;
      Alcotest.test_case "mark sets granule" `Quick test_mark_sets_granule;
      Alcotest.test_case "mark idempotent" `Quick test_mark_idempotent;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "range_marked" `Quick test_range_marked;
      Alcotest.test_case "range_marked unaligned" `Quick
        test_range_marked_unaligned;
      Alcotest.test_case "page boundaries" `Quick test_page_boundaries;
      Alcotest.test_case "shadow compactness" `Quick test_shadow_compactness;
      QCheck_alcotest.to_alcotest prop_mark_then_query;
      QCheck_alcotest.to_alcotest prop_unmarked_ranges_clean;
      QCheck_alcotest.to_alcotest prop_range_equivalent_to_pointwise;
      Alcotest.test_case "every granule (16 B - 4 KiB)" `Quick
        test_every_granule;
      QCheck_alcotest.to_alcotest prop_shadow_matches_model;
    ] )
