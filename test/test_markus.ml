(* MarkUs baseline tests: transitive conservative marking semantics. *)

let fresh () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  (machine, Markus.create machine)

let root_slot = Layout.globals_base + 64
let root_slot2 = Layout.globals_base + 72

let churn mk n size =
  for _ = 1 to n do
    let p = Markus.malloc mk size in
    Markus.free mk p
  done;
  Markus.drain mk

(* Release proof by reuse; see test_instance.ml for why. *)
let eventually_reused mk size victim =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < 60_000 do
    let p = Markus.malloc mk size in
    if p = victim then found := true else Markus.free mk p;
    incr i
  done;
  !found

let test_free_quarantines () =
  let _, mk = fresh () in
  let p = Markus.malloc mk 64 in
  Markus.free mk p;
  Alcotest.(check bool) "quarantined" true (Markus.is_quarantined mk p)

let test_double_free_absorbed () =
  let _, mk = fresh () in
  let p = Markus.malloc mk 64 in
  Markus.free mk p;
  Markus.free mk p;
  Alcotest.(check bool) "still just quarantined" true
    (Markus.is_quarantined mk p)

let test_reachable_dangling_blocks_reuse () =
  let machine, mk = fresh () in
  let victim = Markus.malloc mk 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  Markus.free mk victim;
  for _ = 1 to 20_000 do
    let p = Markus.malloc mk 48 in
    Alcotest.(check bool) "no aliasing" true (p <> victim);
    Markus.free mk p
  done;
  Alcotest.(check bool) "held" true (Markus.is_quarantined mk victim)

let test_release_after_clear () =
  let machine, mk = fresh () in
  let victim = Markus.malloc mk 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  Markus.free mk victim;
  churn mk 20_000 48;
  Vmem.store machine.Alloc.Machine.mem root_slot 0;
  Alcotest.(check bool) "reused after clear" true
    (eventually_reused mk 48 victim)

let test_transitive_reachability () =
  (* root -> a -> b, with b freed: a transitive chain must protect b
     even though no root points at it directly. *)
  let machine, mk = fresh () in
  let a = Markus.malloc mk 64 in
  let b = Markus.malloc mk 64 in
  Vmem.store machine.Alloc.Machine.mem root_slot a;
  Vmem.store machine.Alloc.Machine.mem a b;
  Markus.free mk b;
  churn mk 20_000 64;
  Alcotest.(check bool) "transitively reachable -> held" true
    (Markus.is_quarantined mk b)

let test_unreachable_cycle_collected () =
  (* MarkUs's claim to fame: quarantined cycles with no external
     references are freed without zeroing (unlike a naive sweep). *)
  let machine, mk = fresh () in
  let a = Markus.malloc mk 64 and b = Markus.malloc mk 64 in
  Vmem.store machine.Alloc.Machine.mem a b;
  Vmem.store machine.Alloc.Machine.mem b a;
  Markus.free mk a;
  Markus.free mk b;
  churn mk 20_000 64;
  Alcotest.(check bool) "unreachable cycle freed (one member reused)" true
    (eventually_reused mk 64 a || eventually_reused mk 64 b)

let test_chain_through_quarantine () =
  (* root -> x (freed), x -> y (freed): reachability flows through
     quarantined objects because MarkUs does not zero. *)
  let machine, mk = fresh () in
  let x = Markus.malloc mk 64 and y = Markus.malloc mk 64 in
  Vmem.store machine.Alloc.Machine.mem root_slot x;
  Vmem.store machine.Alloc.Machine.mem x y;
  Vmem.store machine.Alloc.Machine.mem root_slot2 0;
  Markus.free mk y;
  Markus.free mk x;
  churn mk 20_000 64;
  Alcotest.(check bool) "x held by root" true (Markus.is_quarantined mk x);
  Alcotest.(check bool) "y held through x" true (Markus.is_quarantined mk y)

let test_sweeps_and_visits_counted () =
  let _, mk = fresh () in
  churn mk 30_000 128;
  Alcotest.(check bool) "marking passes ran" true (Markus.sweeps mk > 0);
  Alcotest.(check bool) "traversal work recorded" true
    (Markus.marked_visited_bytes mk >= 0)

let suite =
  ( "markus",
    [
      Alcotest.test_case "free quarantines" `Quick test_free_quarantines;
      Alcotest.test_case "double free absorbed" `Quick test_double_free_absorbed;
      Alcotest.test_case "reachable dangling blocks reuse" `Quick
        test_reachable_dangling_blocks_reuse;
      Alcotest.test_case "release after clear" `Quick test_release_after_clear;
      Alcotest.test_case "transitive reachability" `Quick
        test_transitive_reachability;
      Alcotest.test_case "unreachable cycle collected" `Quick
        test_unreachable_cycle_collected;
      Alcotest.test_case "chain through quarantine" `Quick
        test_chain_through_quarantine;
      Alcotest.test_case "sweeps counted" `Quick test_sweeps_and_visits_counted;
    ] )
