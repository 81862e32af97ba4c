(* calloc/realloc drop-in API tests, plus the fully-vs-mostly concurrent
   guarantee difference of Section 4.3. *)

module I = Minesweeper.Instance
module C = Minesweeper.Config

let fresh ?config () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  (machine, I.create ?config machine)

let error : I.error Alcotest.testable = Alcotest.testable I.pp_error ( = )

(* The address a successful call returns; an error fails the test. *)
let ok what = function
  | Ok addr -> addr
  | Error e -> Alcotest.failf "%s: %a" what I.pp_error e

let test_calloc_zeroed () =
  let machine, ms = fresh () in
  let p = ok "calloc" (I.calloc_result ms 8 16) in
  for k = 0 to 15 do
    Alcotest.(check int) "zeroed word" 0
      (Vmem.load machine.Alloc.Machine.mem (p + (k * 8)))
  done;
  Alcotest.(check bool) "usable covers count*size" true
    (Alloc.Jemalloc.usable_size (I.jemalloc ms) p >= 128)

let test_realloc_copies_and_quarantines () =
  let machine, ms = fresh () in
  let p = I.malloc ms 64 in
  Vmem.store machine.Alloc.Machine.mem p 111;
  Vmem.store machine.Alloc.Machine.mem (p + 56) 222;
  let q = ok "realloc" (I.realloc_result ms p 256) in
  Alcotest.(check bool) "moved" true (q <> p);
  Alcotest.(check int) "prefix copied" 111 (Vmem.load machine.Alloc.Machine.mem q);
  Alcotest.(check int) "tail copied" 222
    (Vmem.load machine.Alloc.Machine.mem (q + 56));
  Alcotest.(check bool) "old block quarantined" true (I.is_quarantined ms p)

let test_calloc_overflow_rejected () =
  let _, ms = fresh () in
  (* count * size overflows the native int: the request is rejected
     rather than silently truncated. *)
  let overflow = Error I.Size_overflow in
  Alcotest.(check (result int error)) "max_int/2 * 4 rejected" overflow
    (I.calloc_result ms (max_int / 2) 4);
  Alcotest.(check (result int error)) "max_int * 2 rejected" overflow
    (I.calloc_result ms max_int 2);
  Alcotest.(check (result int error)) "2 * max_int rejected" overflow
    (I.calloc_result ms 2 max_int);
  (* Requests that do NOT overflow keep working. *)
  Alcotest.(check bool) "ordinary calloc still served" true
    (ok "calloc" (I.calloc_result ms 8 16) <> 0)

let test_realloc_copies_partial_tail () =
  (* Regression: the copy loop moved whole words only, dropping the
     final [copy mod 8] bytes when shrinking to an unaligned size. *)
  let machine, ms = fresh () in
  let mem = machine.Alloc.Machine.mem in
  let p = I.malloc ms 64 in
  Vmem.store mem (p + 56) 0x1122334455667788;
  (* Shrink to 61 bytes: 7 full words + a 5-byte tail. *)
  let q = ok "realloc" (I.realloc_result ms p 61) in
  Alcotest.(check int) "surviving tail bytes copied, rest zero"
    0x4455667788
    (Vmem.load mem (q + 56))

let test_realloc_grow_from_unaligned () =
  (* Growing from a block whose requested size was unaligned: the copy
     covers min(new size, old usable), so the whole old word range must
     arrive — including the word straddling the old requested size. *)
  let machine, ms = fresh () in
  let mem = machine.Alloc.Machine.mem in
  let p = I.malloc ms 61 in
  Vmem.store mem (p + 56) 0x0102030405060708;
  let q = ok "realloc" (I.realloc_result ms p 256) in
  Alcotest.(check int) "straddling word copied in full" 0x0102030405060708
    (Vmem.load mem (q + 56))

let test_realloc_shrink_keeps_prefix () =
  let machine, ms = fresh () in
  let p = I.malloc ms 256 in
  Vmem.store machine.Alloc.Machine.mem p 7;
  let q = ok "realloc" (I.realloc_result ms p 32) in
  Alcotest.(check int) "prefix survives shrink" 7
    (Vmem.load machine.Alloc.Machine.mem q)

let test_realloc_null_and_zero () =
  let _, ms = fresh () in
  let p = ok "realloc(NULL)" (I.realloc_result ms 0 64) in
  Alcotest.(check bool) "realloc(NULL) allocates" true (p <> 0);
  Alcotest.(check (result int error)) "realloc(p,0) frees" (Ok 0)
    (I.realloc_result ms p 0);
  Alcotest.(check bool) "freed into quarantine" true (I.is_quarantined ms p)

(* Section 4.3: the fully concurrent mode only guarantees to see
   pointers that existed when the sweep started. A pointer that first
   appears mid-sweep (e.g. spilled from a register) can be missed by the
   fully concurrent version but is caught by the mostly concurrent
   stop-the-world re-scan of dirty pages. *)
let mid_sweep_pointer_spill config =
  let machine, ms = fresh ~config () in
  let mem = machine.Alloc.Machine.mem in
  let root_slot = Layout.globals_base + 64 in
  let victim = I.malloc ms 48 in
  (* Freed with no pointer in memory (it lives "in a register"). *)
  I.free ms victim;
  (* Build quarantine pressure until the first sweep (which has locked
     the victim in) is caught in flight, then spill the register. *)
  let spilled = ref false in
  let i = ref 0 in
  while (not !spilled) && !i < 10_000 do
    let p = I.malloc ms 64 in
    I.free ms p;
    if (not !spilled) && I.sweep_in_progress ms then begin
      Vmem.store mem root_slot victim;
      spilled := true
    end;
    incr i
  done;
  I.drain ms;
  (!spilled, I.is_quarantined ms victim)

let test_fully_concurrent_can_miss_moved_pointer () =
  let spilled, held = mid_sweep_pointer_spill C.default in
  Alcotest.(check bool) "scenario armed (sweep was in flight)" true spilled;
  Alcotest.(check bool)
    "fully concurrent missed the mid-sweep spill (by design)" false held

let test_mostly_concurrent_catches_moved_pointer () =
  let spilled, held = mid_sweep_pointer_spill C.mostly_concurrent in
  Alcotest.(check bool) "scenario armed (sweep was in flight)" true spilled;
  Alcotest.(check bool) "stop-the-world re-scan caught the spill" true held

let suite =
  ( "minesweeper.api",
    [
      Alcotest.test_case "calloc zeroed" `Quick test_calloc_zeroed;
      Alcotest.test_case "calloc overflow rejected" `Quick
        test_calloc_overflow_rejected;
      Alcotest.test_case "realloc copies + quarantines" `Quick
        test_realloc_copies_and_quarantines;
      Alcotest.test_case "realloc copies partial tail" `Quick
        test_realloc_copies_partial_tail;
      Alcotest.test_case "realloc grow from unaligned size" `Quick
        test_realloc_grow_from_unaligned;
      Alcotest.test_case "realloc shrink" `Quick test_realloc_shrink_keeps_prefix;
      Alcotest.test_case "realloc NULL/zero" `Quick test_realloc_null_and_zero;
      Alcotest.test_case "fully concurrent misses mid-sweep spill" `Quick
        test_fully_concurrent_can_miss_moved_pointer;
      Alcotest.test_case "mostly concurrent catches mid-sweep spill" `Quick
        test_mostly_concurrent_catches_moved_pointer;
    ] )
