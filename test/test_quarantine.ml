(* Quarantine tests: buffers, dedup, accounting and the failed-free
   bookkeeping behind the trigger arithmetic. *)

let fresh ?(threads = 1) () =
  let machine = Alloc.Machine.create () in
  (machine, Minesweeper.Quarantine.create machine ~threads)

let entry ?(unmapped = 0) addr usable =
  { Minesweeper.Quarantine.addr; usable; unmapped_len = unmapped; failures = 0 }

let test_push_and_contains () =
  let _, q = fresh () in
  Minesweeper.Quarantine.push q ~thread:0 (entry 0x1000 64);
  Alcotest.(check bool) "contains" true
    (Minesweeper.Quarantine.contains q 0x1000);
  Alcotest.(check bool) "other address" false
    (Minesweeper.Quarantine.contains q 0x2000)

let test_buffered_until_flush () =
  let _, q = fresh () in
  Minesweeper.Quarantine.push q ~thread:0 (entry 0x1000 64);
  (* Still in the thread-local buffer: global accounting unchanged. *)
  Alcotest.(check int) "not yet global" 0
    (Minesweeper.Quarantine.fresh_mapped_bytes q);
  Minesweeper.Quarantine.flush_thread q ~thread:0;
  Alcotest.(check int) "flushed" 64
    (Minesweeper.Quarantine.fresh_mapped_bytes q)

let test_auto_flush_at_threshold () =
  let _, q = fresh () in
  for i = 1 to 64 do
    Minesweeper.Quarantine.push q ~thread:0 (entry (0x1000 + (i * 64)) 64)
  done;
  Alcotest.(check int) "auto-flushed at 64 entries" (64 * 64)
    (Minesweeper.Quarantine.fresh_mapped_bytes q)

let test_thread_buffers_independent () =
  let _, q = fresh ~threads:4 () in
  Minesweeper.Quarantine.push q ~thread:0 (entry 0x1000 64);
  Minesweeper.Quarantine.push q ~thread:3 (entry 0x2000 32);
  Minesweeper.Quarantine.flush_thread q ~thread:0;
  Alcotest.(check int) "only thread 0 flushed" 64
    (Minesweeper.Quarantine.fresh_mapped_bytes q);
  Minesweeper.Quarantine.flush_all q;
  Alcotest.(check int) "all flushed" 96
    (Minesweeper.Quarantine.fresh_mapped_bytes q)

let test_lock_in_takes_everything () =
  let _, q = fresh () in
  Minesweeper.Quarantine.push q ~thread:0 (entry 0x1000 64);
  Minesweeper.Quarantine.push q ~thread:0 (entry 0x2000 32);
  let locked = Minesweeper.Quarantine.lock_in q in
  Alcotest.(check int) "both locked" 2 (List.length locked);
  Alcotest.(check int) "accounting reset" 0
    (Minesweeper.Quarantine.fresh_mapped_bytes q);
  (* Dedup survives lock-in: the entries are still quarantined. *)
  Alcotest.(check bool) "still deduped" true
    (Minesweeper.Quarantine.contains q 0x1000)

let test_release_forgets () =
  let _, q = fresh () in
  let e = entry 0x1000 64 in
  Minesweeper.Quarantine.push q ~thread:0 e;
  let locked = Minesweeper.Quarantine.lock_in q in
  List.iter (Minesweeper.Quarantine.release q) locked;
  Alcotest.(check bool) "released" false
    (Minesweeper.Quarantine.contains q 0x1000)

let test_requeue_failed_accounting () =
  let _, q = fresh () in
  let e = entry 0x1000 64 in
  Minesweeper.Quarantine.push q ~thread:0 e;
  let locked = Minesweeper.Quarantine.lock_in q in
  List.iter (Minesweeper.Quarantine.requeue_failed q) locked;
  Alcotest.(check int) "failed bytes" 64 (Minesweeper.Quarantine.failed_bytes q);
  Alcotest.(check int) "not counted as fresh" 0
    (Minesweeper.Quarantine.fresh_mapped_bytes q);
  Alcotest.(check int) "failure count" 1 e.Minesweeper.Quarantine.failures;
  (* The failed entry is retried by the next lock-in. *)
  let again = Minesweeper.Quarantine.lock_in q in
  Alcotest.(check int) "retried" 1 (List.length again)

let test_requeue_across_two_sweeps () =
  (* The failed list's contract across consecutive sweeps: a blocked
     entry is retried exactly once per lock_in — never dropped, never
     duplicated — and fresh pushes arriving between the sweeps ride the
     same retry without disturbing it. *)
  let _, q = fresh () in
  let a = entry 0x1000 64 and b = entry 0x2000 32 and c = entry 0x3000 16 in
  List.iter (Minesweeper.Quarantine.push q ~thread:0) [ a; b; c ];
  (* Sweep 1: a and b stay referenced, c releases. *)
  let locked1 = Minesweeper.Quarantine.lock_in q in
  Alcotest.(check int) "sweep 1 locks all three" 3 (List.length locked1);
  Minesweeper.Quarantine.requeue_failed q a;
  Minesweeper.Quarantine.requeue_failed q b;
  Minesweeper.Quarantine.release q c;
  let failed_now =
    let acc = ref [] in
    Minesweeper.Quarantine.iter_failed q (fun e ->
        acc := e.Minesweeper.Quarantine.addr :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list int)) "iter_failed sees exactly the requeued pair"
    [ 0x1000; 0x2000 ] failed_now;
  Alcotest.(check int) "one failure recorded on each" 1
    a.Minesweeper.Quarantine.failures;
  (* A fresh free lands between the sweeps. *)
  let d = entry 0x4000 8 in
  Minesweeper.Quarantine.push q ~thread:0 d;
  (* Sweep 2 locks the carried-over failures plus the fresh entry, each
     exactly once, and empties the failed list. *)
  let locked2 =
    List.sort compare
      (List.map
         (fun e -> e.Minesweeper.Quarantine.addr)
         (Minesweeper.Quarantine.lock_in q))
  in
  Alcotest.(check (list int)) "sweep 2 retries both failures plus the push"
    [ 0x1000; 0x2000; 0x4000 ] locked2;
  Minesweeper.Quarantine.iter_failed q (fun _ ->
      Alcotest.fail "failed list must be empty right after lock_in");
  (* b releases this time; a fails again and its count keeps growing. *)
  Minesweeper.Quarantine.requeue_failed q a;
  Minesweeper.Quarantine.release q b;
  Minesweeper.Quarantine.release q d;
  Alcotest.(check int) "second failure accumulates" 2
    a.Minesweeper.Quarantine.failures;
  Alcotest.(check int) "only a's bytes still pending" 64
    (Minesweeper.Quarantine.failed_bytes q);
  Alcotest.(check bool) "released entries forgotten" false
    (Minesweeper.Quarantine.contains q 0x2000);
  Alcotest.(check bool) "failed entry still quarantined" true
    (Minesweeper.Quarantine.contains q 0x1000)

let test_unmapped_accounting () =
  let _, q = fresh () in
  Minesweeper.Quarantine.push q ~thread:0 (entry ~unmapped:4096 0x1000 5000);
  Minesweeper.Quarantine.flush_all q;
  Alcotest.(check int) "mapped share" 904
    (Minesweeper.Quarantine.fresh_mapped_bytes q);
  Alcotest.(check int) "unmapped share" 4096
    (Minesweeper.Quarantine.unmapped_bytes q);
  Alcotest.(check int) "total" 5000 (Minesweeper.Quarantine.total_bytes q)

let test_entry_count () =
  let _, q = fresh ~threads:2 () in
  Minesweeper.Quarantine.push q ~thread:0 (entry 0x1000 8);
  Minesweeper.Quarantine.push q ~thread:1 (entry 0x2000 8);
  Minesweeper.Quarantine.flush_thread q ~thread:0;
  Alcotest.(check int) "counts buffered and global" 2
    (Minesweeper.Quarantine.entry_count q)

let test_double_free_dedup_live () =
  (* End to end through a live instance: the second free of a
     quarantined pointer is absorbed (Section 3's idempotence), visible
     from outside via the new quarantine accessor. *)
  let machine = Alloc.Machine.create () in
  let ms = Minesweeper.Instance.create machine in
  let addr = Minesweeper.Instance.malloc ms 64 in
  Minesweeper.Instance.free ms addr;
  let q = Minesweeper.Instance.quarantine ms in
  Alcotest.(check bool) "first free quarantines" true
    (Minesweeper.Quarantine.contains q addr);
  let entries = Minesweeper.Quarantine.entry_count q in
  let usable =
    match Minesweeper.Quarantine.find q addr with
    | Some e -> e.Minesweeper.Quarantine.usable
    | None -> Alcotest.fail "entry not findable after first free"
  in
  Minesweeper.Instance.free ms addr;
  Minesweeper.Instance.free ms addr;
  Alcotest.(check int) "double frees counted" 2
    (Metric.read (Minesweeper.Instance.registry ms) "ms.double_frees");
  Alcotest.(check int) "no duplicate entries" entries
    (Minesweeper.Quarantine.entry_count q);
  Alcotest.(check bool) "still quarantined" true
    (Minesweeper.Quarantine.contains q addr);
  (match Minesweeper.Quarantine.find q addr with
  | Some e ->
    Alcotest.(check int) "entry untouched" usable
      e.Minesweeper.Quarantine.usable
  | None -> Alcotest.fail "entry lost by the double free");
  (* A different pointer is unaffected by the dedup. *)
  let other = Minesweeper.Instance.malloc ms 64 in
  Minesweeper.Instance.free ms other;
  Alcotest.(check int) "distinct free is not a double free" 2
    (Metric.read (Minesweeper.Instance.registry ms) "ms.double_frees");
  Alcotest.(check bool) "distinct free quarantined" true
    (Minesweeper.Quarantine.contains q other)

let prop_accounting_consistent =
  QCheck.Test.make
    ~name:"total = fresh_mapped + failed + unmapped after any sequence"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (pair (int_range 8 4096) bool))
    (fun ops ->
      let _, q = fresh () in
      List.iteri
        (fun i (usable, fail_it) ->
          let e = entry (0x10000 + (i * 8192)) usable in
          Minesweeper.Quarantine.push q ~thread:0 e;
          if fail_it then begin
            Minesweeper.Quarantine.flush_all q;
            ignore fail_it
          end)
        ops;
      Minesweeper.Quarantine.flush_all q;
      Minesweeper.Quarantine.total_bytes q
      = Minesweeper.Quarantine.fresh_mapped_bytes q
        + Minesweeper.Quarantine.failed_bytes q
        + Minesweeper.Quarantine.unmapped_bytes q)

let prop_lock_in_preserves_entries =
  QCheck.Test.make ~name:"lock_in returns exactly the pushed entries"
    ~count:200
    QCheck.(int_range 1 200)
    (fun n ->
      let _, q = fresh () in
      for i = 1 to n do
        Minesweeper.Quarantine.push q ~thread:0 (entry (0x1000 * i) 16)
      done;
      List.length (Minesweeper.Quarantine.lock_in q) = n)

let suite =
  ( "minesweeper.quarantine",
    [
      Alcotest.test_case "push and contains" `Quick test_push_and_contains;
      Alcotest.test_case "buffered until flush" `Quick test_buffered_until_flush;
      Alcotest.test_case "auto flush" `Quick test_auto_flush_at_threshold;
      Alcotest.test_case "thread buffers independent" `Quick
        test_thread_buffers_independent;
      Alcotest.test_case "lock_in takes everything" `Quick
        test_lock_in_takes_everything;
      Alcotest.test_case "release forgets" `Quick test_release_forgets;
      Alcotest.test_case "requeue failed accounting" `Quick
        test_requeue_failed_accounting;
      Alcotest.test_case "requeue across two sweeps" `Quick
        test_requeue_across_two_sweeps;
      Alcotest.test_case "unmapped accounting" `Quick test_unmapped_accounting;
      Alcotest.test_case "entry count" `Quick test_entry_count;
      Alcotest.test_case "double-free dedup on a live instance" `Quick
        test_double_free_dedup_live;
      QCheck_alcotest.to_alcotest prop_accounting_consistent;
      QCheck_alcotest.to_alcotest prop_lock_in_preserves_entries;
    ] )
