(* Exploit-scenario tests: the security claims of Section 1.2. *)

let fresh scheme =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  Workloads.Harness.build scheme ~threads:1 machine

let baseline () = fresh Workloads.Harness.Baseline
let minesweeper () = fresh (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
let mostly () =
  fresh (Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent)
let markus () = fresh Workloads.Harness.Mark_us
let ffmalloc () = fresh Workloads.Harness.Ff_malloc

let check_outcome name expected actual =
  Alcotest.(check string) name
    (Attack.describe expected)
    (Attack.describe actual)

let test_baseline_exploited () =
  check_outcome "unprotected JeMalloc falls to the spray" Attack.Exploited
    (Attack.vtable_hijack (baseline ()))

let test_minesweeper_protects () =
  match Attack.vtable_hijack (minesweeper ()) with
  | Attack.Exploited -> Alcotest.fail "MineSweeper must prevent the hijack"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_mostly_concurrent_protects () =
  match Attack.vtable_hijack (mostly ()) with
  | Attack.Exploited -> Alcotest.fail "mostly concurrent must prevent too"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_markus_protects () =
  match Attack.vtable_hijack (markus ()) with
  | Attack.Exploited -> Alcotest.fail "MarkUs must prevent the hijack"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_ffmalloc_protects () =
  match Attack.vtable_hijack (ffmalloc ()) with
  | Attack.Exploited -> Alcotest.fail "FFmalloc must prevent the hijack"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_double_free_does_not_help_attacker () =
  match Attack.double_free_hijack (minesweeper ()) with
  | Attack.Exploited -> Alcotest.fail "double free must not bypass quarantine"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_bigger_spray_still_fails () =
  match Attack.vtable_hijack ~spray:20_000 (minesweeper ()) with
  | Attack.Exploited -> Alcotest.fail "spray size must not matter"
  | Attack.Benign | Attack.Prevented_fault -> ()

let test_reuse_after_clear_semantics () =
  Alcotest.(check bool) "baseline recycles" true
    (Attack.reuse_after_clear (baseline ()));
  Alcotest.(check bool) "minesweeper recycles once safe" true
    (Attack.reuse_after_clear (minesweeper ()));
  Alcotest.(check bool) "markus recycles once safe" true
    (Attack.reuse_after_clear (markus ()));
  Alcotest.(check bool) "ffmalloc never recycles" false
    (Attack.reuse_after_clear ~churn:30_000 (ffmalloc ()))

let test_describe_strings_distinct () =
  let all = [ Attack.Exploited; Attack.Prevented_fault; Attack.Benign ] in
  let described = List.map Attack.describe all in
  Alcotest.(check int) "distinct descriptions" 3
    (List.length (List.sort_uniq compare described))

let suite =
  ( "attack",
    [
      Alcotest.test_case "baseline exploited" `Quick test_baseline_exploited;
      Alcotest.test_case "minesweeper protects" `Quick test_minesweeper_protects;
      Alcotest.test_case "mostly concurrent protects" `Quick
        test_mostly_concurrent_protects;
      Alcotest.test_case "markus protects" `Quick test_markus_protects;
      Alcotest.test_case "ffmalloc protects" `Quick test_ffmalloc_protects;
      Alcotest.test_case "double free no bypass" `Quick
        test_double_free_does_not_help_attacker;
      Alcotest.test_case "bigger spray still fails" `Quick
        test_bigger_spray_still_fails;
      Alcotest.test_case "reuse-after-clear semantics" `Quick
        test_reuse_after_clear_semantics;
      Alcotest.test_case "describe distinct" `Quick test_describe_strings_distinct;
    ] )
