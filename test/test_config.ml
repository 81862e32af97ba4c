(* Configuration preset tests: the ablation matrix must be wired the way
   Sections 5.4 and 5.5 describe. *)

module C = Minesweeper.Config

let test_default_is_full () =
  let d = C.default in
  Alcotest.(check bool) "quarantining" true d.C.quarantining;
  Alcotest.(check bool) "zeroing" true d.C.zeroing;
  Alcotest.(check bool) "unmapping" true d.C.unmapping;
  Alcotest.(check bool) "sweeping" true d.C.sweeping;
  Alcotest.(check bool) "keep_failed" true d.C.keep_failed;
  Alcotest.(check bool) "purging" true d.C.purging;
  Alcotest.(check (float 0.0001)) "15% threshold" 0.15 d.C.threshold;
  Alcotest.(check (float 0.0001)) "9x unmap factor" 9.0 d.C.unmap_factor

let test_default_fully_concurrent () =
  match C.default.C.concurrency with
  | C.Concurrent { helpers; stop_the_world } ->
    Alcotest.(check int) "6 helpers" 6 helpers;
    Alcotest.(check bool) "no stop-the-world" false stop_the_world
  | C.Sequential -> Alcotest.fail "default must be concurrent"

let test_mostly_concurrent_differs_only_in_stw () =
  match (C.default.C.concurrency, C.mostly_concurrent.C.concurrency) with
  | C.Concurrent d, C.Concurrent m ->
    Alcotest.(check int) "same helpers" d.helpers m.helpers;
    Alcotest.(check bool) "stw on" true m.stop_the_world;
    Alcotest.(check bool) "rest equal" true
      ({ C.mostly_concurrent with C.concurrency = C.default.C.concurrency }
      = C.default)
  | _ -> Alcotest.fail "both must be concurrent"

let test_optimisation_levels_cumulative () =
  (* Each level must add exactly its named feature. *)
  Alcotest.(check int) "five levels" 5
    (List.length Workloads.Harness.optimisation_levels);
  Alcotest.(check bool) "unoptimised sequential" true
    (C.unoptimised.C.concurrency = C.Sequential);
  Alcotest.(check bool) "unoptimised lacks zeroing" false
    C.unoptimised.C.zeroing;
  Alcotest.(check bool) "+zeroing adds only zeroing" true
    (C.plus_zeroing = { C.unoptimised with C.zeroing = true });
  Alcotest.(check bool) "+unmapping adds only unmapping" true
    (C.plus_unmapping = { C.plus_zeroing with C.unmapping = true });
  Alcotest.(check bool) "+purging equals default" true
    (C.plus_purging = C.default)

let test_partial_versions_ordering () =
  Alcotest.(check int) "six versions" 6
    (List.length Workloads.Harness.partial_versions);
  Alcotest.(check bool) "base forwards frees" false
    C.partial_base.C.quarantining;
  Alcotest.(check bool) "uz still forwards" false
    C.partial_unmap_zero.C.quarantining;
  Alcotest.(check bool) "uz zeroes" true C.partial_unmap_zero.C.zeroing;
  Alcotest.(check bool) "quarantine doesn't sweep" false
    C.partial_quarantine.C.sweeping;
  Alcotest.(check bool) "sweep version releases regardless" false
    C.partial_sweep.C.keep_failed;
  Alcotest.(check bool) "full version equals default" true
    (C.partial_full = C.default)

(* The figures run each rung by its name: the name must select the
   rung's configuration. *)
let test_ladder_names_select_their_config () =
  List.iter
    (fun (label, name, config) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s)" label name)
        true
        (Workloads.Harness.scheme_of_name name
        = Ok (Workloads.Harness.Mine_sweeper config)))
    (Workloads.Harness.optimisation_levels @ Workloads.Harness.partial_versions)

let test_pp_mentions_mode () =
  let s = Format.asprintf "%a" C.pp C.default in
  Alcotest.(check bool) "mentions concurrency" true
    (Astring_contains.contains s "concurrent")

let suite =
  ( "minesweeper.config",
    [
      Alcotest.test_case "default is full" `Quick test_default_is_full;
      Alcotest.test_case "default fully concurrent" `Quick
        test_default_fully_concurrent;
      Alcotest.test_case "mostly concurrent = +stw" `Quick
        test_mostly_concurrent_differs_only_in_stw;
      Alcotest.test_case "optimisation levels cumulative" `Quick
        test_optimisation_levels_cumulative;
      Alcotest.test_case "partial versions ordering" `Quick
        test_partial_versions_ordering;
      Alcotest.test_case "ladder names select their config" `Quick
        test_ladder_names_select_their_config;
      Alcotest.test_case "pp mentions mode" `Quick test_pp_mentions_mode;
    ] )
