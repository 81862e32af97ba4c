(* MineSweeper core-layer tests: the paper's protection guarantees. *)

module I = Minesweeper.Instance
module C = Minesweeper.Config

let fresh ?config () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  (machine, I.create ?config machine)

let root_slot = Layout.globals_base + 64

let churn ms n size =
  for _ = 1 to n do
    let p = I.malloc ms size in
    I.free ms p
  done;
  I.drain ms

(* Proof of release: the victim's address is served again. (Checking
   [is_quarantined] after churn is unreliable — churn re-allocates and
   re-frees released addresses, re-quarantining them legitimately.) *)
let eventually_reused ms size victim =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < 60_000 do
    let p = I.malloc ms size in
    if p = victim then found := true else I.free ms p;
    incr i
  done;
  !found

let test_free_quarantines () =
  let _, ms = fresh () in
  let p = I.malloc ms 64 in
  Alcotest.(check bool) "not quarantined while live" false (I.is_quarantined ms p);
  I.free ms p;
  Alcotest.(check bool) "quarantined after free" true (I.is_quarantined ms p)

let test_zeroing_on_free () =
  let machine, ms = fresh () in
  let p = I.malloc ms 64 in
  Vmem.store machine.Alloc.Machine.mem p 12345;
  I.free ms p;
  Alcotest.(check int) "payload zeroed in quarantine" 0
    (Vmem.load machine.Alloc.Machine.mem p)

let test_no_immediate_reuse () =
  let _, ms = fresh () in
  let p = I.malloc ms 64 in
  I.free ms p;
  let q = I.malloc ms 64 in
  Alcotest.(check bool) "freed address not served while quarantined" true
    (p <> q)

let test_double_free_idempotent () =
  let _, ms = fresh () in
  let p = I.malloc ms 64 in
  I.free ms p;
  I.free ms p;
  I.free ms p;
  Alcotest.(check int) "double frees counted" 2
    (Metric.read (I.registry ms) "ms.double_frees")

(* The core soundness property (Section 3): while a pointer to a freed
   allocation exists anywhere in memory, no new allocation may alias it. *)
let test_dangling_pointer_blocks_reuse () =
  let machine, ms = fresh () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  I.free ms victim;
  for _ = 1 to 20_000 do
    let p = I.malloc ms 48 in
    Alcotest.(check bool) "no aliasing while dangling pointer lives" true
      (p <> victim);
    I.free ms p
  done;
  Alcotest.(check bool) "survived many sweeps" true
    (Metric.read (I.registry ms) "ms.sweeps" > 3);
  Alcotest.(check bool) "held in quarantine" true (I.is_quarantined ms victim)

let test_interior_pointer_blocks_reuse () =
  let machine, ms = fresh () in
  let victim = I.malloc ms 256 in
  (* Only an interior pointer survives. *)
  Vmem.store machine.Alloc.Machine.mem root_slot (victim + 128);
  I.free ms victim;
  churn ms 20_000 256;
  Alcotest.(check bool) "interior pointer protects too" true
    (I.is_quarantined ms victim)

let test_past_the_end_pointer_blocks_reuse () =
  let machine, ms = fresh () in
  let victim = I.malloc ms 64 in
  (* C/C++ end() pointer: one past the last byte of the request. The
     extra allocation byte keeps it inside the same shadow range. *)
  Vmem.store machine.Alloc.Machine.mem root_slot (victim + 64);
  I.free ms victim;
  churn ms 20_000 64;
  Alcotest.(check bool) "past-the-end pointer protects" true
    (I.is_quarantined ms victim)

let test_release_after_pointer_cleared () =
  let machine, ms = fresh () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  I.free ms victim;
  churn ms 20_000 48;
  Alcotest.(check bool) "held while pointer lives" true
    (I.is_quarantined ms victim);
  Vmem.store machine.Alloc.Machine.mem root_slot 0;
  Alcotest.(check bool) "reused after clear" true
    (eventually_reused ms 48 victim)

let test_false_pointer_blocks_reuse () =
  let machine, ms = fresh () in
  let victim = I.malloc ms 48 in
  I.free ms victim;
  (* An integer that happens to equal the address ("unlucky data"). *)
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  churn ms 20_000 48;
  Alcotest.(check bool) "conservatively held" true (I.is_quarantined ms victim)

let test_hidden_pointer_not_protected () =
  (* Section 1.2: pointers hidden by arithmetic (XOR lists) are invisible
     to sweeps; MineSweeper explicitly gives no guarantee for them. The
     object is released even though a (hidden) reference exists. *)
  let machine, ms = fresh () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot (victim lxor 0x5A5A5A5A);
  I.free ms victim;
  Alcotest.(check bool) "hidden pointer does not pin the object" true
    (eventually_reused ms 48 victim)

let test_failed_frees_counted () =
  let machine, ms = fresh () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  I.free ms victim;
  churn ms 20_000 48;
  Alcotest.(check bool) "failed frees recorded" true
    (Metric.read (I.registry ms) "ms.failed_frees" > 0)

let test_cyclic_garbage_is_freed () =
  (* Two freed objects pointing at each other: zeroing breaks the cycle
     (Section 4.1 / Figure 6) so both must eventually be released. *)
  let machine, ms = fresh () in
  let a = I.malloc ms 64 and b = I.malloc ms 64 in
  Vmem.store machine.Alloc.Machine.mem a b;
  Vmem.store machine.Alloc.Machine.mem b a;
  I.free ms a;
  I.free ms b;
  churn ms 20_000 64;
  Alcotest.(check bool) "cycle member a released" false (I.is_quarantined ms a);
  Alcotest.(check bool) "cycle member b released" false (I.is_quarantined ms b)

let test_cycle_leaks_without_zeroing () =
  (* Ablation: with zeroing off and a pointer chain into the cycle left
     dangling, the pair can never free. *)
  let config = { C.default with C.zeroing = false } in
  let machine, ms = fresh ~config () in
  let a = I.malloc ms 64 and b = I.malloc ms 64 in
  Vmem.store machine.Alloc.Machine.mem a b;
  Vmem.store machine.Alloc.Machine.mem b a;
  I.free ms a;
  I.free ms b;
  churn ms 20_000 64;
  Alcotest.(check bool) "cycle stuck in quarantine without zeroing" true
    (I.is_quarantined ms a && I.is_quarantined ms b)

let test_unmapping_releases_pages () =
  let machine, ms = fresh () in
  let big = I.malloc ms 65536 in
  let rss_before = Vmem.committed_bytes machine.Alloc.Machine.mem in
  Vmem.store machine.Alloc.Machine.mem root_slot big;
  I.free ms big;
  let rss_after = Vmem.committed_bytes machine.Alloc.Machine.mem in
  Alcotest.(check bool) "physical pages released in quarantine" true
    (rss_before - rss_after >= 65536);
  Alcotest.(check int) "unmap recorded" 1
    (Metric.read (I.registry ms) "ms.unmapped_allocations");
  (* Writes through the dangling pointer now fault: clean termination. *)
  Alcotest.(check bool) "access faults" true
    (match Vmem.load machine.Alloc.Machine.mem big with
    | _ -> false
    | exception Vmem.Fault _ -> true)

let test_unmapped_restored_on_release () =
  let machine, ms = fresh () in
  let big = I.malloc ms 65536 in
  I.free ms big;
  churn ms 20_000 64;
  Alcotest.(check bool) "released" false (I.is_quarantined ms big);
  (* The address range must be reusable again. *)
  let again = I.malloc ms 65536 in
  Vmem.store machine.Alloc.Machine.mem again 7;
  Alcotest.(check int) "recycled range writable" 7
    (Vmem.load machine.Alloc.Machine.mem again)

let test_small_allocations_not_unmapped () =
  let _, ms = fresh () in
  let p = I.malloc ms 256 in
  I.free ms p;
  Alcotest.(check int) "no unmapping below the threshold" 0
    (Metric.read (I.registry ms) "ms.unmapped_allocations")

let test_unmapped_trigger_rule () =
  (* Section 4.2: even when the mapped quarantine stays below the 15 %
     threshold, a sweep fires once the *unmapped* quarantine exceeds
     unmap_factor x the resident footprint, to relieve kernel and
     allocator structures. *)
  let config = { C.default with C.unmap_factor = 0.05 } in
  let _, ms = fresh ~config () in
  (* Large allocations are unmapped on free; mapped fresh bytes stay ~0,
     so only the unmapped rule can trigger the sweeps. *)
  for _ = 1 to 8 do
    let big = I.malloc ms 262144 in
    I.free ms big;
    I.tick ms
  done;
  Alcotest.(check bool) "unmapped-quarantine rule fired" true
    (Metric.read (I.registry ms) "ms.sweeps" > 0)

let test_no_unmapped_trigger_at_default_factor () =
  let _, ms = fresh () in
  for _ = 1 to 8 do
    let big = I.malloc ms 262144 in
    I.free ms big;
    I.tick ms
  done;
  (* At the paper's 9x the same pattern must NOT sweep (mapped fresh
     bytes are ~0 and unmapped < 9x RSS). *)
  Alcotest.(check int) "no sweep at 9x" 0
    (Metric.read (I.registry ms) "ms.sweeps")

let test_allocation_pause_under_flood () =
  (* Section 5.7: when frees outrun sweeps, allocation stalls briefly
     instead of letting memory balloon. A tiny pause threshold makes the
     path deterministic to hit. *)
  let config = { C.default with C.pause_factor = 0.01 } in
  let _, ms = fresh ~config () in
  for _ = 1 to 30_000 do
    let p = I.malloc ms 128 in
    I.free ms p
  done;
  I.drain ms;
  Alcotest.(check bool) "pauses recorded" true
    (Metric.read (I.registry ms) "ms.alloc_pauses" > 0)

let test_shadow_granule_config () =
  (* Coarse shadow granules alias neighbours: a pointer to an adjacent
     slot of the same slab blocks the victim too. *)
  let config = { C.default with C.shadow_granule = 1024 } in
  let machine, ms = fresh ~config () in
  let a = I.malloc ms 48 in
  let b = I.malloc ms 48 in
  (* Keep a pointer to b only; free a. With 1 KiB granules the mark for
     b covers a's granule as well whenever they share one. *)
  Vmem.store machine.Alloc.Machine.mem root_slot b;
  I.free ms a;
  churn ms 20_000 48;
  ignore a;
  (* The property we can assert robustly: the run completes and failed
     frees are at least as common as at fine granularity. *)
  let coarse_failed = Metric.read (I.registry ms) "ms.failed_frees" in
  let _, ms2 = fresh () in
  let a2 = I.malloc ms2 48 in
  let b2 = I.malloc ms2 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot b2;
  I.free ms2 a2;
  churn ms2 20_000 48;
  Alcotest.(check bool) "coarse granule fails at least as often" true
    (coarse_failed >= Metric.read (I.registry ms2) "ms.failed_frees")

let test_sweeps_triggered_by_threshold () =
  let _, ms = fresh () in
  (* Push well past the quarantine threshold; sweeps must fire. *)
  churn ms 30_000 128;
  Alcotest.(check bool) "sweeps happened" true
    (Metric.read (I.registry ms) "ms.sweeps" > 0)

let test_no_sweep_below_floor () =
  let _, ms = fresh () in
  (* A handful of small frees stays under threshold_min_bytes. *)
  for _ = 1 to 100 do
    let p = I.malloc ms 64 in
    I.free ms p
  done;
  Alcotest.(check int) "no sweep for a tiny quarantine" 0
    (Metric.read (I.registry ms) "ms.sweeps")

let protection_holds_under config =
  let machine, ms = fresh ~config () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  I.free ms victim;
  let ok = ref true in
  for _ = 1 to 20_000 do
    let p = I.malloc ms 48 in
    if p = victim then ok := false;
    I.free ms p
  done;
  !ok

let test_modes_equal_protection () =
  Alcotest.(check bool) "fully concurrent" true
    (protection_holds_under C.default);
  Alcotest.(check bool) "mostly concurrent" true
    (protection_holds_under C.mostly_concurrent);
  Alcotest.(check bool) "sequential (unoptimised)" true
    (protection_holds_under C.unoptimised);
  Alcotest.(check bool) "every optimisation level" true
    (List.for_all
       (fun (_, _, config) -> protection_holds_under config)
       Workloads.Harness.optimisation_levels)

let test_mostly_concurrent_pauses () =
  let machine, ms = fresh ~config:C.mostly_concurrent () in
  ignore machine;
  churn ms 30_000 128;
  let read = Metric.read (I.registry ms) in
  Alcotest.(check bool) "stop-the-world pauses happened" true
    (read "ms.stw_pauses" > 0);
  Alcotest.(check int) "one pause per sweep" (read "ms.sweeps")
    (read "ms.stw_pauses")

let test_stw_rescan_bytes_accounted () =
  (* Regression: the stop-the-world dirty re-scan did real marking work
     but never showed up in swept_bytes. *)
  let machine, ms = fresh ~config:C.mostly_concurrent () in
  ignore machine;
  churn ms 30_000 128;
  let read = Metric.read (I.registry ms) in
  Alcotest.(check bool) "dirty re-scan work recorded" true
    (read "ms.stw_rescanned_bytes" > 0);
  Alcotest.(check bool) "re-scan counted inside swept_bytes" true
    (read "ms.swept_bytes" >= read "ms.stw_rescanned_bytes")

let test_partial_no_quarantine_reuses () =
  let _, ms = fresh ~config:C.partial_base () in
  let p = I.malloc ms 64 in
  I.free ms p;
  let q = I.malloc ms 64 in
  Alcotest.(check int) "forwarding free reuses immediately" p q

let test_partial_sweep_releases_everything () =
  (* keep_failed = false: dangling pointers are detected but ignored. *)
  let machine, ms = fresh ~config:C.partial_sweep () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  I.free ms victim;
  churn ms 20_000 48;
  Alcotest.(check bool) "would-fail detected" true
    (Metric.read (I.registry ms) "ms.failed_frees" > 0);
  Alcotest.(check bool) "but released anyway (reused despite the pointer)"
    true
    (eventually_reused ms 48 victim)

let test_stats_balance () =
  let _, ms = fresh () in
  churn ms 25_000 96;
  let read = Metric.read (I.registry ms) in
  Alcotest.(check int) "frees = releases + still-quarantined + doubles"
    (read "ms.frees_intercepted")
    (read "ms.releases" + I.quarantine_entries ms + read "ms.double_frees")

let prop_protection_random_workload =
  (* Soundness under random traffic: a victim with a live root pointer is
     never re-served, whatever the interleaving. *)
  QCheck.Test.make ~name:"random workload never aliases protected victim"
    ~count:20
    QCheck.(pair small_int (list_of_size Gen.(return 400) (int_range 1 2048)))
    (fun (seed, sizes) ->
      let machine, ms = fresh () in
      let rng = Sim.Rng.create seed in
      let victim = I.malloc ms 48 in
      Vmem.store machine.Alloc.Machine.mem root_slot victim;
      I.free ms victim;
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun size ->
          if Sim.Rng.bool rng 0.5 then begin
            let p = I.malloc ms size in
            if p = victim then ok := false;
            live := p :: !live
          end
          else
            match !live with
            | p :: rest ->
              I.free ms p;
              live := rest
            | [] -> ())
        sizes;
      I.drain ms;
      !ok && I.is_quarantined ms victim)

let suite =
  ( "minesweeper.instance",
    [
      Alcotest.test_case "free quarantines" `Quick test_free_quarantines;
      Alcotest.test_case "zeroing on free" `Quick test_zeroing_on_free;
      Alcotest.test_case "no immediate reuse" `Quick test_no_immediate_reuse;
      Alcotest.test_case "double free idempotent" `Quick
        test_double_free_idempotent;
      Alcotest.test_case "dangling pointer blocks reuse" `Quick
        test_dangling_pointer_blocks_reuse;
      Alcotest.test_case "interior pointer blocks reuse" `Quick
        test_interior_pointer_blocks_reuse;
      Alcotest.test_case "past-the-end pointer blocks reuse" `Quick
        test_past_the_end_pointer_blocks_reuse;
      Alcotest.test_case "release after pointer cleared" `Quick
        test_release_after_pointer_cleared;
      Alcotest.test_case "false pointer blocks reuse" `Quick
        test_false_pointer_blocks_reuse;
      Alcotest.test_case "hidden pointer not protected" `Quick
        test_hidden_pointer_not_protected;
      Alcotest.test_case "failed frees counted" `Quick test_failed_frees_counted;
      Alcotest.test_case "cyclic garbage freed (zeroing)" `Quick
        test_cyclic_garbage_is_freed;
      Alcotest.test_case "cycle leaks without zeroing" `Quick
        test_cycle_leaks_without_zeroing;
      Alcotest.test_case "unmapping releases pages" `Quick
        test_unmapping_releases_pages;
      Alcotest.test_case "unmapped restored on release" `Quick
        test_unmapped_restored_on_release;
      Alcotest.test_case "small allocations not unmapped" `Quick
        test_small_allocations_not_unmapped;
      Alcotest.test_case "sweep threshold" `Quick
        test_sweeps_triggered_by_threshold;
      Alcotest.test_case "unmapped trigger rule" `Quick
        test_unmapped_trigger_rule;
      Alcotest.test_case "no unmapped trigger at 9x" `Quick
        test_no_unmapped_trigger_at_default_factor;
      Alcotest.test_case "allocation pause under flood" `Quick
        test_allocation_pause_under_flood;
      Alcotest.test_case "shadow granule config" `Quick
        test_shadow_granule_config;
      Alcotest.test_case "no sweep below floor" `Quick test_no_sweep_below_floor;
      Alcotest.test_case "all modes protect equally" `Slow
        test_modes_equal_protection;
      Alcotest.test_case "mostly concurrent pauses" `Quick
        test_mostly_concurrent_pauses;
      Alcotest.test_case "stw re-scan bytes accounted" `Quick
        test_stw_rescan_bytes_accounted;
      Alcotest.test_case "partial: no quarantine reuses" `Quick
        test_partial_no_quarantine_reuses;
      Alcotest.test_case "partial: sweep without keep_failed" `Quick
        test_partial_sweep_releases_everything;
      Alcotest.test_case "stats balance" `Quick test_stats_balance;
      QCheck_alcotest.to_alcotest prop_protection_random_workload;
    ] )
