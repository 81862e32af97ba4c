(* Scudo backend tests + MineSweeper-over-Scudo (the Section 7
   integration through the Instance functor). *)

module Scudo_ms = Minesweeper.Instance.Make (Alloc.Scudo)

let fresh () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  machine

let test_malloc_free_roundtrip () =
  let machine = fresh () in
  let sc = Alloc.Scudo.create machine in
  let p = Alloc.Scudo.malloc sc 64 in
  Alcotest.(check bool) "heap address" true (Layout.in_heap p);
  Alcotest.(check bool) "usable covers request+header" true
    (Alloc.Scudo.usable_size sc p >= 64);
  Alloc.Scudo.free sc p

let test_randomised_reuse_pool () =
  let machine = fresh () in
  let sc = Alloc.Scudo.create machine in
  let ps = List.init 8 (fun _ -> Alloc.Scudo.malloc sc 64) in
  List.iter (Alloc.Scudo.free sc) ps;
  (* Frees land in the pool first, delaying the heap's reuse. *)
  Alcotest.(check int) "pool holds the frees" 8 (Alloc.Scudo.pool_size sc);
  (* The next allocation must not come from the pool (no immediate
     reuse, unlike plain JeMalloc's tcache). *)
  let q = Alloc.Scudo.malloc sc 64 in
  Alcotest.(check bool) "no immediate LIFO reuse" true
    (not (List.mem q ps))

let test_pool_eviction_bounded () =
  let machine = fresh () in
  let sc = Alloc.Scudo.create machine in
  for _ = 1 to 1000 do
    Alloc.Scudo.free sc (Alloc.Scudo.malloc sc 64)
  done;
  Alcotest.(check bool) "pool stays bounded" true (Alloc.Scudo.pool_size sc <= 32)

let test_purge_all_drains_pool () =
  let machine = fresh () in
  let sc = Alloc.Scudo.create machine in
  let ps = List.init 8 (fun _ -> Alloc.Scudo.malloc sc 64) in
  List.iter (Alloc.Scudo.free sc) ps;
  Alloc.Scudo.purge_all sc;
  Alcotest.(check int) "pool drained" 0 (Alloc.Scudo.pool_size sc)

let test_scudo_costs_more_than_jemalloc () =
  let m1 = fresh () in
  let je = Alloc.Jemalloc.create m1 in
  for _ = 1 to 100 do
    Alloc.Jemalloc.free je (Alloc.Jemalloc.malloc je 64)
  done;
  let m2 = fresh () in
  let sc = Alloc.Scudo.create m2 in
  for _ = 1 to 100 do
    Alloc.Scudo.free sc (Alloc.Scudo.malloc sc 64)
  done;
  Alcotest.(check bool) "checksummed headers cost cycles" true
    (Sim.Clock.app_busy m2.Alloc.Machine.clock
    > Sim.Clock.app_busy m1.Alloc.Machine.clock)

(* The functor product must give the same guarantees over Scudo. *)
let test_minesweeper_over_scudo_protects () =
  let machine = fresh () in
  let ms = Scudo_ms.create machine in
  let root_slot = Layout.globals_base + 64 in
  let victim = Scudo_ms.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  Scudo_ms.free ms victim;
  let ok = ref true in
  for _ = 1 to 20_000 do
    let p = Scudo_ms.malloc ms 48 in
    if p = victim then ok := false;
    Scudo_ms.free ms p
  done;
  Scudo_ms.drain ms;
  Alcotest.(check bool) "no aliasing over Scudo" true !ok;
  Alcotest.(check bool) "sweeps ran" true
    ((Scudo_ms.stats ms).Minesweeper.Stats.sweeps > 0);
  Alcotest.(check bool) "victim still quarantined" true
    (Scudo_ms.is_quarantined ms victim)

let test_minesweeper_over_scudo_releases () =
  let machine = fresh () in
  let ms = Scudo_ms.create machine in
  let victim = Scudo_ms.malloc ms 48 in
  Scudo_ms.free ms victim;
  (* No pointer anywhere: churn must eventually recycle the address. *)
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < 60_000 do
    let p = Scudo_ms.malloc ms 48 in
    if p = victim then found := true else Scudo_ms.free ms p;
    incr i
  done;
  Alcotest.(check bool) "released and reused" true !found

let test_harness_scudo_schemes () =
  let machine = fresh () in
  let stack =
    Workloads.Harness.build Workloads.Harness.Scudo_baseline ~threads:1 machine
  in
  Alcotest.(check string) "scheme name" "scudo" stack.Workloads.Harness.scheme;
  let p = stack.Workloads.Harness.malloc 64 in
  stack.Workloads.Harness.free ~thread:0 p;
  let machine2 = fresh () in
  let protected_stack =
    Workloads.Harness.build
      (Workloads.Harness.Scudo_sweeper Minesweeper.Config.default)
      ~threads:1 machine2
  in
  Alcotest.(check string) "protected name" "scudo-minesweeper"
    protected_stack.Workloads.Harness.scheme;
  let q = protected_stack.Workloads.Harness.malloc 64 in
  protected_stack.Workloads.Harness.free ~thread:0 q;
  Alcotest.(check bool) "quarantined over scudo" true
    (protected_stack.Workloads.Harness.is_protected_addr q)

let test_attack_on_scudo_stacks () =
  let machine = fresh () in
  let stack =
    Workloads.Harness.build
      (Workloads.Harness.Scudo_sweeper Minesweeper.Config.default)
      ~threads:1 machine
  in
  match Attack.vtable_hijack stack with
  | Attack.Exploited -> Alcotest.fail "MineSweeper-over-Scudo must protect"
  | Attack.Benign | Attack.Prevented_fault -> ()

let suite =
  ( "scudo",
    [
      Alcotest.test_case "malloc/free roundtrip" `Quick
        test_malloc_free_roundtrip;
      Alcotest.test_case "randomised reuse pool" `Quick
        test_randomised_reuse_pool;
      Alcotest.test_case "pool eviction bounded" `Quick
        test_pool_eviction_bounded;
      Alcotest.test_case "purge drains pool" `Quick test_purge_all_drains_pool;
      Alcotest.test_case "costs more than jemalloc" `Quick
        test_scudo_costs_more_than_jemalloc;
      Alcotest.test_case "minesweeper-over-scudo protects" `Quick
        test_minesweeper_over_scudo_protects;
      Alcotest.test_case "minesweeper-over-scudo releases" `Quick
        test_minesweeper_over_scudo_releases;
      Alcotest.test_case "harness scudo schemes" `Quick
        test_harness_scudo_schemes;
      Alcotest.test_case "attack on scudo stack" `Quick
        test_attack_on_scudo_stacks;
    ] )
