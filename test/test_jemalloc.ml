(* JeMalloc-model allocator tests. *)

let fresh ?extra_byte () =
  let machine = Alloc.Machine.create () in
  (machine, Alloc.Jemalloc.create ?extra_byte machine)

let test_malloc_returns_heap_addresses () =
  let _, je = fresh () in
  for _ = 1 to 100 do
    let p = Alloc.Jemalloc.malloc je 64 in
    Alcotest.(check bool) "in heap region" true (Layout.in_heap p)
  done

let test_distinct_live_allocations () =
  let _, je = fresh () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    let p = Alloc.Jemalloc.malloc je 48 in
    Alcotest.(check bool) "address not already live" false (Hashtbl.mem seen p);
    Hashtbl.replace seen p ()
  done

let test_usable_size_covers_request () =
  let _, je = fresh () in
  List.iter
    (fun size ->
      let p = Alloc.Jemalloc.malloc je size in
      Alcotest.(check bool)
        (Printf.sprintf "usable >= %d" size)
        true
        (Alloc.Jemalloc.usable_size je p >= size))
    [ 1; 7; 8; 63; 128; 4000; 14336; 14337; 100_000; 1_000_000 ]

let test_extra_byte () =
  let _, je = fresh ~extra_byte:true () in
  (* A 16-byte request plus the end-pointer byte must not fit class 16. *)
  let p = Alloc.Jemalloc.malloc je 16 in
  Alcotest.(check bool) "usable > 16" true (Alloc.Jemalloc.usable_size je p > 16)

let test_free_and_reuse () =
  let _, je = fresh () in
  let p = Alloc.Jemalloc.malloc je 64 in
  Alloc.Jemalloc.free je p;
  (* The tcache serves the same address straight back. *)
  let q = Alloc.Jemalloc.malloc je 64 in
  Alcotest.(check int) "LIFO reuse via tcache" p q

let test_malloc_zeroes () =
  let machine, je = fresh () in
  let p = Alloc.Jemalloc.malloc je 64 in
  Vmem.store machine.Alloc.Machine.mem p 777;
  Alloc.Jemalloc.free je p;
  let q = Alloc.Jemalloc.malloc je 64 in
  Alcotest.(check int) "reuse zeroed" 0 (Vmem.load machine.Alloc.Machine.mem q)

let test_live_accounting () =
  let _, je = fresh () in
  let ps = List.init 50 (fun _ -> Alloc.Jemalloc.malloc je 100) in
  Alcotest.(check int) "live count" 50 (Alloc.Jemalloc.live_allocations je);
  let expected = 50 * Alloc.Jemalloc.usable_size je (List.hd ps) in
  Alcotest.(check int) "live bytes" expected (Alloc.Jemalloc.live_bytes je);
  List.iter (Alloc.Jemalloc.free je) ps;
  Alcotest.(check int) "live zero" 0 (Alloc.Jemalloc.live_allocations je);
  Alcotest.(check int) "bytes zero" 0 (Alloc.Jemalloc.live_bytes je)

let test_is_live () =
  let _, je = fresh () in
  let p = Alloc.Jemalloc.malloc je 64 in
  Alcotest.(check bool) "live after malloc" true (Alloc.Jemalloc.is_live je p);
  Alloc.Jemalloc.free je p;
  Alcotest.(check bool) "dead after free" false (Alloc.Jemalloc.is_live je p)

let test_large_allocations () =
  let machine, je = fresh () in
  let p = Alloc.Jemalloc.malloc je 100_000 in
  Alcotest.(check bool) "page aligned" true (p mod Vmem.page_size = 0);
  Alcotest.(check int) "usable rounds to pages"
    (25 * Vmem.page_size)
    (Alloc.Jemalloc.usable_size je p);
  Vmem.store machine.Alloc.Machine.mem (p + 99_992) 5;
  Alloc.Jemalloc.free je p

let test_free_rejects_garbage () =
  let _, je = fresh () in
  Alcotest.check_raises "free of never-allocated address"
    (Invalid_argument "Jemalloc.free: not an allocation") (fun () ->
      Alloc.Jemalloc.free je (Layout.heap_base + 123456 * 4096))

let test_allocation_containing () =
  let _, je = fresh () in
  let small = Alloc.Jemalloc.malloc je 100 in
  let big = Alloc.Jemalloc.malloc je 50_000 in
  (match Alloc.Jemalloc.allocation_containing je (small + 50) with
  | Some (base, usable) ->
    Alcotest.(check int) "small interior resolves to base" small base;
    Alcotest.(check bool) "usable covers" true (usable >= 100)
  | None -> Alcotest.fail "interior pointer not resolved");
  (match Alloc.Jemalloc.allocation_containing je (big + 40_000) with
  | Some (base, _) -> Alcotest.(check int) "large interior" big base
  | None -> Alcotest.fail "large interior pointer not resolved");
  Alcotest.(check bool) "unbacked address resolves to none" true
    (Alloc.Jemalloc.allocation_containing je (Layout.heap_limit - 4096) = None)

let test_slab_cycling () =
  (* Fill several slabs, free everything, confirm slabs are released
     back to the extent layer. *)
  let _, je = fresh () in
  let slabs () =
    let n = ref 0 in
    Alloc.Jemalloc.iter_slabs je
      (fun ~base:_ ~cls:_ ~slots:_ ~used:_ ~free_slots:_ -> incr n);
    !n
  in
  let ps = List.init 2000 (fun _ -> Alloc.Jemalloc.malloc je 512) in
  Alcotest.(check bool) "multiple slabs in use" true (slabs () > 1);
  List.iter (Alloc.Jemalloc.free je) ps;
  (* Some slots linger in the tcache, pinning at most a slab or two. *)
  Alcotest.(check bool) "slabs released" true (slabs () <= 2)

let test_purge_reduces_rss () =
  let machine, je = fresh () in
  let ps = List.init 100 (fun _ -> Alloc.Jemalloc.malloc je 8192) in
  let rss_full = Vmem.committed_bytes machine.Alloc.Machine.mem in
  List.iter (Alloc.Jemalloc.free je) ps;
  Alloc.Jemalloc.purge_all je;
  let rss_after = Vmem.committed_bytes machine.Alloc.Machine.mem in
  Alcotest.(check bool)
    (Printf.sprintf "purge shrinks rss (%d -> %d)" rss_full rss_after)
    true (rss_after < rss_full / 2)

let test_charges_cycles () =
  let machine, je = fresh () in
  let before = Sim.Clock.app_busy machine.Alloc.Machine.clock in
  ignore (Alloc.Jemalloc.malloc je 64);
  Alcotest.(check bool) "malloc charges the app thread" true
    (Sim.Clock.app_busy machine.Alloc.Machine.clock > before)

let prop_malloc_free_stress =
  QCheck.Test.make ~name:"random malloc/free interleavings stay consistent"
    ~count:30
    QCheck.(list_of_size Gen.(return 300) (int_range 1 20_000))
    (fun sizes ->
      let _, je = fresh () in
      let live = ref [] in
      List.iteri
        (fun i size ->
          if i mod 3 = 2 then (
            match !live with
            | p :: rest ->
              Alloc.Jemalloc.free je p;
              live := rest
            | [] -> ())
          else live := Alloc.Jemalloc.malloc je size :: !live)
        sizes;
      List.iter (Alloc.Jemalloc.free je) !live;
      Alloc.Jemalloc.live_allocations je = 0
      && Alloc.Jemalloc.live_bytes je = 0)

let suite =
  ( "alloc.jemalloc",
    [
      Alcotest.test_case "heap addresses" `Quick
        test_malloc_returns_heap_addresses;
      Alcotest.test_case "distinct live allocations" `Quick
        test_distinct_live_allocations;
      Alcotest.test_case "usable covers request" `Quick
        test_usable_size_covers_request;
      Alcotest.test_case "extra byte" `Quick test_extra_byte;
      Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
      Alcotest.test_case "malloc zeroes" `Quick test_malloc_zeroes;
      Alcotest.test_case "live accounting" `Quick test_live_accounting;
      Alcotest.test_case "is_live" `Quick test_is_live;
      Alcotest.test_case "large allocations" `Quick test_large_allocations;
      Alcotest.test_case "free rejects garbage" `Quick test_free_rejects_garbage;
      Alcotest.test_case "allocation_containing" `Quick
        test_allocation_containing;
      Alcotest.test_case "slab cycling" `Quick test_slab_cycling;
      Alcotest.test_case "purge reduces rss" `Quick test_purge_reduces_rss;
      Alcotest.test_case "charges cycles" `Quick test_charges_cycles;
      QCheck_alcotest.to_alcotest prop_malloc_free_stress;
    ] )
