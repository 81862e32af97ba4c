(* Size-class table tests. *)

let test_monotone () =
  for i = 1 to Alloc.Size_class.count - 1 do
    Alcotest.(check bool) "strictly increasing" true
      (Alloc.Size_class.size_of_class i > Alloc.Size_class.size_of_class (i - 1))
  done

let test_first_and_last () =
  Alcotest.(check int) "smallest class" 8 (Alloc.Size_class.size_of_class 0);
  Alcotest.(check int) "largest class is small_max" Alloc.Size_class.small_max
    (Alloc.Size_class.size_of_class (Alloc.Size_class.count - 1))

let test_class_of_size_exact () =
  for i = 0 to Alloc.Size_class.count - 1 do
    let size = Alloc.Size_class.size_of_class i in
    Alcotest.(check int) "exact size maps to own class" i
      (Alloc.Size_class.class_of_size size)
  done

let test_round_up () =
  (* A request one byte above a class must land in the next class. *)
  for i = 0 to Alloc.Size_class.count - 2 do
    let size = Alloc.Size_class.size_of_class i in
    Alcotest.(check int) "size+1 next class" (i + 1)
      (Alloc.Size_class.class_of_size (size + 1))
  done

let test_slab_geometry () =
  for i = 0 to Alloc.Size_class.count - 1 do
    let pages = Alloc.Size_class.slab_pages i in
    let slots = Alloc.Size_class.slab_slots i in
    let size = Alloc.Size_class.size_of_class i in
    Alcotest.(check bool) "at least one slot" true (slots >= 1);
    Alcotest.(check bool) "slab holds its slots" true
      (slots * size <= pages * Vmem.page_size);
    (* Waste under 1/8 of the slab (the table targets 1/16 but falls
       back to least-waste for awkward classes). *)
    let waste = (pages * Vmem.page_size) - (slots * size) in
    Alcotest.(check bool)
      (Printf.sprintf "class %d (size %d): waste %d of %d" i size waste
         (pages * Vmem.page_size))
      true
      (waste * 8 <= pages * Vmem.page_size)
  done

let test_large_pages () =
  Alcotest.(check int) "one page" 1 (Alloc.Size_class.large_pages 1);
  Alcotest.(check int) "exact page" 1 (Alloc.Size_class.large_pages 4096);
  Alcotest.(check int) "page + 1" 2 (Alloc.Size_class.large_pages 4097);
  Alcotest.(check int) "1MiB" 256 (Alloc.Size_class.large_pages (1 lsl 20))

let prop_class_covers_request =
  QCheck.Test.make ~name:"class size always covers the request" ~count:1000
    QCheck.(int_range 1 Alloc.Size_class.small_max)
    (fun size ->
      let cls = Alloc.Size_class.class_of_size size in
      Alloc.Size_class.size_of_class cls >= size)

let prop_class_is_tight =
  QCheck.Test.make ~name:"chosen class is the smallest adequate one"
    ~count:1000
    QCheck.(int_range 1 Alloc.Size_class.small_max)
    (fun size ->
      let cls = Alloc.Size_class.class_of_size size in
      cls = 0 || Alloc.Size_class.size_of_class (cls - 1) < size)

(* [class_of_size] as it was first written: a binary search over the
   class sizes for the first one >= [sz]. The table lookup must agree
   with it on every small size. *)
let reference_class_of_size sz =
  let size = Alloc.Size_class.size_of_class in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if size mid >= sz then search lo mid else search (mid + 1) hi
  in
  search 0 (Alloc.Size_class.count - 1)

let test_matches_reference () =
  for sz = 1 to Alloc.Size_class.small_max do
    let expected = reference_class_of_size sz in
    let got = Alloc.Size_class.class_of_size sz in
    if got <> expected then
      Alcotest.failf "class_of_size %d = %d, reference %d" sz got expected
  done

(* Every small malloc looks its class up: the lookup allocates nothing. *)
let test_lookup_allocates_nothing () =
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for sz = 1 to Alloc.Size_class.small_max do
    sink := !sink + Alloc.Size_class.class_of_size sz
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.))
    "minor words over every small size" 0. words

let suite =
  ( "alloc.size_class",
    [
      Alcotest.test_case "monotone" `Quick test_monotone;
      Alcotest.test_case "first and last" `Quick test_first_and_last;
      Alcotest.test_case "exact class lookup" `Quick test_class_of_size_exact;
      Alcotest.test_case "round up" `Quick test_round_up;
      Alcotest.test_case "slab geometry" `Quick test_slab_geometry;
      Alcotest.test_case "large pages" `Quick test_large_pages;
      Alcotest.test_case "lookup matches the binary search" `Quick
        test_matches_reference;
      Alcotest.test_case "lookup allocates nothing" `Quick
        test_lookup_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_class_covers_request;
      QCheck_alcotest.to_alcotest prop_class_is_tight;
    ] )
