(* dlmalloc-model tests: in-band metadata semantics and the unlink
   exploit that MineSweeper defuses. *)

let fresh () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  machine

let fresh_stack scheme =
  let machine = fresh () in
  Workloads.Harness.build scheme ~threads:1 machine

let test_malloc_free_reuse () =
  let machine = fresh () in
  let dl = Alloc.Dlmalloc.create machine in
  let p = Alloc.Dlmalloc.malloc dl 64 in
  Alcotest.(check bool) "usable covers" true (Alloc.Dlmalloc.usable_size dl p >= 64);
  Alloc.Dlmalloc.free dl p;
  let q = Alloc.Dlmalloc.malloc dl 64 in
  Alcotest.(check int) "bin head reused" p q

let test_header_in_band () =
  let machine = fresh () in
  let dl = Alloc.Dlmalloc.create machine in
  let p = Alloc.Dlmalloc.malloc dl 64 in
  let header = Vmem.load machine.Alloc.Machine.mem (Alloc.Dlmalloc.header_of dl p) in
  Alcotest.(check int) "size|allocated bit in memory" (64 lor 1) header

let test_free_links_in_band () =
  let machine = fresh () in
  let dl = Alloc.Dlmalloc.create machine in
  let a = Alloc.Dlmalloc.malloc dl 64 in
  let b = Alloc.Dlmalloc.malloc dl 64 in
  Alloc.Dlmalloc.free dl a;
  Alloc.Dlmalloc.free dl b;
  (* b is the bin head; its fd (stored in simulated memory!) is a. *)
  Alcotest.(check int) "fd link lives in the payload" a
    (Vmem.load machine.Alloc.Machine.mem b);
  Alcotest.(check int) "bk back-link" b
    (Vmem.load machine.Alloc.Machine.mem (a + 8));
  Alcotest.(check bool) "bins consistent" true
    (Alloc.Dlmalloc.check_bin_integrity dl)

let test_double_free_detected () =
  let machine = fresh () in
  let dl = Alloc.Dlmalloc.create machine in
  let p = Alloc.Dlmalloc.malloc dl 64 in
  Alloc.Dlmalloc.free dl p;
  Alcotest.check_raises "double free raises"
    (Invalid_argument "Dlmalloc.free: double free or not an allocation")
    (fun () -> Alloc.Dlmalloc.free dl p)

let test_bins_size_classes () =
  Alcotest.(check int) "16B -> bin 0" 0 (Alloc.Dlmalloc.bin_of_size 16);
  Alcotest.(check int) "17B rounds up" 1 (Alloc.Dlmalloc.bin_of_size 17);
  Alcotest.(check bool) "large sizes map to large bins" true
    (Alloc.Dlmalloc.bin_of_size 100_000 > Alloc.Dlmalloc.bin_of_size 512)

let test_corruption_detectable () =
  let machine = fresh () in
  let dl = Alloc.Dlmalloc.create machine in
  let p = Alloc.Dlmalloc.malloc dl 64 in
  Alloc.Dlmalloc.free dl p;
  (* UAF write forging the links breaks the doubly-linked invariant. *)
  Vmem.store machine.Alloc.Machine.mem p (Layout.globals_base + 256 - 8);
  Vmem.store machine.Alloc.Machine.mem (p + 8) (Layout.globals_base + 512);
  Alcotest.(check bool) "integrity check catches the forgery" false
    (Alloc.Dlmalloc.check_bin_integrity dl)

let test_unlink_exploit_on_dlmalloc () =
  match Attack.unlink_corruption (fresh_stack Workloads.Harness.Dl_baseline) with
  | Attack.Exploited -> ()
  | Attack.Benign | Attack.Prevented_fault ->
    Alcotest.fail "in-band metadata must be exploitable (that's the point)"

let test_unlink_defused_by_minesweeper () =
  match
    Attack.unlink_corruption
      (fresh_stack (Workloads.Harness.Dl_sweeper Minesweeper.Config.default))
  with
  | Attack.Exploited -> Alcotest.fail "MineSweeper must defuse unlink"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_unlink_immune_out_of_band () =
  (* JeMalloc keeps metadata out of band: nothing to forge. *)
  match Attack.unlink_corruption (fresh_stack Workloads.Harness.Baseline) with
  | Attack.Exploited -> Alcotest.fail "out-of-band metadata cannot be forged"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_minesweeper_over_dlmalloc_protects () =
  let machine = fresh () in
  let stack =
    Workloads.Harness.build
      (Workloads.Harness.Dl_sweeper Minesweeper.Config.default)
      ~threads:1 machine
  in
  match Attack.vtable_hijack stack with
  | Attack.Exploited -> Alcotest.fail "hijack must be prevented over dlmalloc"
  | Attack.Benign | Attack.Prevented_fault -> ()

let suite =
  ( "dlmalloc",
    [
      Alcotest.test_case "malloc/free/reuse" `Quick test_malloc_free_reuse;
      Alcotest.test_case "header in band" `Quick test_header_in_band;
      Alcotest.test_case "free links in band" `Quick test_free_links_in_band;
      Alcotest.test_case "double free detected" `Quick test_double_free_detected;
      Alcotest.test_case "bin size classes" `Quick test_bins_size_classes;
      Alcotest.test_case "corruption detectable" `Quick
        test_corruption_detectable;
      Alcotest.test_case "unlink exploits dlmalloc" `Quick
        test_unlink_exploit_on_dlmalloc;
      Alcotest.test_case "unlink defused by minesweeper" `Quick
        test_unlink_defused_by_minesweeper;
      Alcotest.test_case "unlink immune out-of-band" `Quick
        test_unlink_immune_out_of_band;
      Alcotest.test_case "minesweeper-over-dlmalloc protects" `Quick
        test_minesweeper_over_dlmalloc_protects;
    ] )
