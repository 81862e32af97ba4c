(* Pointer-tracking baselines: CRCount, pSweeper, DangSan — and the
   coverage contrast with MineSweeper's conservative sweep. *)

let fresh_machine () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  machine

let slot1 = Layout.globals_base + 64
let slot2 = Layout.globals_base + 72

(* --- registry ----------------------------------------------------- *)

let test_registry_tracks_and_replaces () =
  let machine = fresh_machine () in
  let heap = Alloc.Jemalloc.create machine in
  let r = Ptrtrack.Registry.create heap in
  let a = Alloc.Jemalloc.malloc heap 64 in
  let b = Alloc.Jemalloc.malloc heap 64 in
  Ptrtrack.Registry.record_write r ~slot:slot1 ~value:a;
  Alcotest.(check (option int)) "slot targets a" (Some a)
    (Ptrtrack.Registry.target_of r ~slot:slot1);
  Alcotest.(check int) "a has one in-pointer" 1
    (Ptrtrack.Registry.in_pointer_count r ~base:a);
  (* Overwrite with a pointer to b: the record moves. *)
  Ptrtrack.Registry.record_write r ~slot:slot1 ~value:b;
  Alcotest.(check int) "a released" 0
    (Ptrtrack.Registry.in_pointer_count r ~base:a);
  Alcotest.(check int) "b acquired" 1
    (Ptrtrack.Registry.in_pointer_count r ~base:b);
  (* Overwrite with a non-pointer: the record dies. *)
  Ptrtrack.Registry.record_write r ~slot:slot1 ~value:12345;
  Alcotest.(check int) "no tracked slots" 0 (Ptrtrack.Registry.tracked_slots r)

let test_registry_interior_pointers () =
  let machine = fresh_machine () in
  let heap = Alloc.Jemalloc.create machine in
  let r = Ptrtrack.Registry.create heap in
  let a = Alloc.Jemalloc.malloc heap 256 in
  Ptrtrack.Registry.record_write r ~slot:slot1 ~value:(a + 128);
  Alcotest.(check (option int)) "interior resolves to base" (Some a)
    (Ptrtrack.Registry.target_of r ~slot:slot1)

let test_registry_drop_slots_in () =
  let machine = fresh_machine () in
  let heap = Alloc.Jemalloc.create machine in
  let r = Ptrtrack.Registry.create heap in
  let holder = Alloc.Jemalloc.malloc heap 64 in
  let target = Alloc.Jemalloc.malloc heap 64 in
  Ptrtrack.Registry.record_write r ~slot:holder ~value:target;
  let dropped = ref [] in
  Ptrtrack.Registry.drop_slots_in r ~base:holder ~usable:64
    (fun ~slot ~target -> dropped := (slot, target) :: !dropped);
  Alcotest.(check (list (pair int int))) "dropped the holder's slot"
    [ (holder, target) ]
    !dropped;
  Alcotest.(check int) "registry empty" 0 (Ptrtrack.Registry.tracked_slots r)

(* --- CRCount ------------------------------------------------------ *)

let test_crcount_defers_while_referenced () =
  let machine = fresh_machine () in
  let cr = Ptrtrack.Crcount.create machine in
  let p = Ptrtrack.Crcount.malloc cr 64 in
  Ptrtrack.Crcount.on_pointer_write cr ~slot:slot1 ~old_value:0 ~value:p;
  Alcotest.(check int) "rc = 1" 1 (Ptrtrack.Crcount.refcount cr p);
  Ptrtrack.Crcount.free cr p;
  Alcotest.(check bool) "pending, not deallocated" true
    (Ptrtrack.Crcount.is_pending cr p);
  (* No reuse while the count is up. *)
  let q = Ptrtrack.Crcount.malloc cr 64 in
  Alcotest.(check bool) "no aliasing" true (q <> p);
  (* Clearing the pointer releases it. *)
  Ptrtrack.Crcount.on_pointer_write cr ~slot:slot1 ~old_value:p ~value:0;
  Alcotest.(check bool) "released at rc=0" false
    (Ptrtrack.Crcount.is_pending cr p)

let test_crcount_zeroing_drops_outgoing () =
  let machine = fresh_machine () in
  let cr = Ptrtrack.Crcount.create machine in
  let holder = Ptrtrack.Crcount.malloc cr 64 in
  let target = Ptrtrack.Crcount.malloc cr 64 in
  Vmem.store machine.Alloc.Machine.mem holder target;
  Ptrtrack.Crcount.on_pointer_write cr ~slot:holder ~old_value:0 ~value:target;
  Alcotest.(check int) "target rc 1" 1 (Ptrtrack.Crcount.refcount cr target);
  (* Freeing the holder zero-fills it: the outgoing reference dies. *)
  Ptrtrack.Crcount.free cr holder;
  Alcotest.(check int) "target rc dropped" 0
    (Ptrtrack.Crcount.refcount cr target);
  Alcotest.(check int) "holder content zeroed" 0
    (Vmem.load machine.Alloc.Machine.mem holder)

let test_crcount_double_free_absorbed () =
  let machine = fresh_machine () in
  let cr = Ptrtrack.Crcount.create machine in
  let p = Ptrtrack.Crcount.malloc cr 64 in
  Ptrtrack.Crcount.on_pointer_write cr ~slot:slot1 ~old_value:0 ~value:p;
  Ptrtrack.Crcount.free cr p;
  Ptrtrack.Crcount.free cr p;
  Alcotest.(check bool) "still pending once" true (Ptrtrack.Crcount.is_pending cr p)

(* --- pSweeper ----------------------------------------------------- *)

let test_psweeper_nullifies_at_sweep () =
  let machine = fresh_machine () in
  let ps = Ptrtrack.Psweeper.create machine in
  let mem = machine.Alloc.Machine.mem in
  let p = Ptrtrack.Psweeper.malloc ps 64 in
  Vmem.store mem slot1 p;
  Ptrtrack.Psweeper.on_pointer_write ps ~slot:slot1 ~old_value:0 ~value:p;
  Ptrtrack.Psweeper.free ps p;
  Alcotest.(check bool) "deferred until sweep" true
    (Ptrtrack.Psweeper.is_deferred ps p);
  Alcotest.(check int) "pointer still live before sweep" p (Vmem.load mem slot1);
  Ptrtrack.Psweeper.drain ps;
  Alcotest.(check int) "pointer nullified by sweep" 0 (Vmem.load mem slot1);
  Alcotest.(check bool) "deallocated after sweep" false
    (Ptrtrack.Psweeper.is_deferred ps p)

let test_psweeper_periodic () =
  let machine = fresh_machine () in
  let ps = Ptrtrack.Psweeper.create ~period_cycles:1000 machine in
  let p = Ptrtrack.Psweeper.malloc ps 64 in
  Ptrtrack.Psweeper.free ps p;
  Sim.Clock.advance machine.Alloc.Machine.clock 2000;
  Ptrtrack.Psweeper.tick ps;
  Alcotest.(check int) "sweep fired on period" 1 (Ptrtrack.Psweeper.sweeps ps);
  Alcotest.(check bool) "free completed" false (Ptrtrack.Psweeper.is_deferred ps p)

(* --- DangSan ------------------------------------------------------ *)

let test_dangsan_nullifies_immediately () =
  let machine = fresh_machine () in
  let ds = Ptrtrack.Dangsan.create machine in
  let mem = machine.Alloc.Machine.mem in
  let p = Ptrtrack.Dangsan.malloc ds 64 in
  Vmem.store mem slot1 p;
  Ptrtrack.Dangsan.on_pointer_write ds ~slot:slot1 ~old_value:0 ~value:p;
  Vmem.store mem slot2 p;
  Ptrtrack.Dangsan.on_pointer_write ds ~slot:slot2 ~old_value:0 ~value:p;
  Alcotest.(check int) "two log entries" 2 (Ptrtrack.Dangsan.log_entries_for ds p);
  Ptrtrack.Dangsan.free ds p;
  Alcotest.(check int) "slot1 nullified" 0 (Vmem.load mem slot1);
  Alcotest.(check int) "slot2 nullified" 0 (Vmem.load mem slot2);
  Alcotest.(check int) "log reclaimed" 0 (Ptrtrack.Dangsan.log_entries ds)

let test_dangsan_stale_log_entries_harmless () =
  let machine = fresh_machine () in
  let ds = Ptrtrack.Dangsan.create machine in
  let mem = machine.Alloc.Machine.mem in
  let p = Ptrtrack.Dangsan.malloc ds 64 in
  Vmem.store mem slot1 p;
  Ptrtrack.Dangsan.on_pointer_write ds ~slot:slot1 ~old_value:0 ~value:p;
  (* The program overwrites the slot with ordinary data; the log entry
     goes stale (DangSan does not remove it). *)
  Vmem.store mem slot1 777;
  Ptrtrack.Dangsan.free ds p;
  Alcotest.(check int) "stale slot untouched" 777 (Vmem.load mem slot1)

let test_dangsan_log_dedup () =
  let machine = fresh_machine () in
  let ds = Ptrtrack.Dangsan.create machine in
  let p = Ptrtrack.Dangsan.malloc ds 64 in
  for _ = 1 to 10 do
    Ptrtrack.Dangsan.on_pointer_write ds ~slot:slot1 ~old_value:0 ~value:p
  done;
  Alcotest.(check int) "same-slot repeats deduplicated" 1
    (Ptrtrack.Dangsan.log_entries_for ds p)

(* --- coverage contrast -------------------------------------------- *)

(* An UNinstrumented pointer (e.g. in code compiled without the pass, or
   manufactured by arithmetic) is invisible to pointer tracking but is
   still caught by MineSweeper's conservative sweep. *)
let test_uninstrumented_pointer_coverage_gap () =
  let machine = fresh_machine () in
  let cr = Ptrtrack.Crcount.create machine in
  let p = Ptrtrack.Crcount.malloc cr 64 in
  (* Pointer stored WITHOUT instrumentation: *)
  Vmem.store machine.Alloc.Machine.mem slot1 p;
  Ptrtrack.Crcount.free cr p;
  Alcotest.(check bool) "crcount deallocates despite the pointer" false
    (Ptrtrack.Crcount.is_pending cr p);
  (* MineSweeper, same situation: *)
  let machine2 = fresh_machine () in
  let ms = Minesweeper.Instance.create machine2 in
  let q = Minesweeper.Instance.malloc ms 64 in
  Vmem.store machine2.Alloc.Machine.mem slot1 q;
  Minesweeper.Instance.free ms q;
  for _ = 1 to 20_000 do
    let x = Minesweeper.Instance.malloc ms 64 in
    Minesweeper.Instance.free ms x
  done;
  Minesweeper.Instance.drain ms;
  Alcotest.(check bool) "minesweeper holds it conservatively" true
    (Minesweeper.Instance.is_quarantined ms q)

let test_attack_outcomes () =
  let run scheme =
    let machine = fresh_machine () in
    Attack.vtable_hijack
      (Workloads.Harness.build scheme ~threads:1 machine)
  in
  (match run Workloads.Harness.Cr_count with
  | Attack.Exploited -> Alcotest.fail "CRCount must prevent"
  | Attack.Benign | Attack.Prevented_fault -> ());
  (match run Workloads.Harness.P_sweeper with
  | Attack.Exploited -> Alcotest.fail "pSweeper must prevent"
  | Attack.Benign | Attack.Prevented_fault -> ());
  match run Workloads.Harness.Dang_san with
  | Attack.Exploited -> Alcotest.fail "DangSan must prevent"
  | Attack.Prevented_fault -> () (* nullification: null-deref terminates *)
  | Attack.Benign -> ()

let test_driver_runs_ptrtrack_schemes () =
  let profile =
    Workloads.Profile.make ~name:"tiny" ~suite:"test" ~ops:4000
      ~size:(Sim.Dist.uniform ~lo:16 ~hi:256)
      ~lifetime:(Sim.Dist.exponential ~mean:300.)
      ~work_per_op:200 ()
  in
  List.iter
    (fun scheme ->
      let r = Workloads.Driver.run profile scheme in
      Alcotest.(check int) "completes" 4000 r.Workloads.Driver.allocations;
      Alcotest.(check bool) "costs more than free" true
        (r.Workloads.Driver.wall > 0))
    [
      Workloads.Harness.Cr_count;
      Workloads.Harness.P_sweeper;
      Workloads.Harness.Dang_san;
    ]

let suite =
  ( "ptrtrack",
    [
      Alcotest.test_case "registry tracks and replaces" `Quick
        test_registry_tracks_and_replaces;
      Alcotest.test_case "registry interior pointers" `Quick
        test_registry_interior_pointers;
      Alcotest.test_case "registry drop_slots_in" `Quick
        test_registry_drop_slots_in;
      Alcotest.test_case "crcount defers while referenced" `Quick
        test_crcount_defers_while_referenced;
      Alcotest.test_case "crcount zeroing drops outgoing" `Quick
        test_crcount_zeroing_drops_outgoing;
      Alcotest.test_case "crcount double free" `Quick
        test_crcount_double_free_absorbed;
      Alcotest.test_case "psweeper nullifies at sweep" `Quick
        test_psweeper_nullifies_at_sweep;
      Alcotest.test_case "psweeper periodic" `Quick test_psweeper_periodic;
      Alcotest.test_case "dangsan nullifies immediately" `Quick
        test_dangsan_nullifies_immediately;
      Alcotest.test_case "dangsan stale entries harmless" `Quick
        test_dangsan_stale_log_entries_harmless;
      Alcotest.test_case "dangsan log dedup" `Quick test_dangsan_log_dedup;
      Alcotest.test_case "uninstrumented pointer coverage gap" `Quick
        test_uninstrumented_pointer_coverage_gap;
      Alcotest.test_case "attack outcomes" `Quick test_attack_outcomes;
      Alcotest.test_case "driver runs ptrtrack schemes" `Quick
        test_driver_runs_ptrtrack_schemes;
    ] )
