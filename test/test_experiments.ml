(* Experiment-harness smoke tests: every figure must render from a
   heavily scaled-down environment, and the memoisation must hold. *)

let tiny_env () = Experiments.make_env ~scale:0.02 ()

let render key env =
  (List.assoc key Experiments.all_figures env).Experiments.text

let test_scheme_keys_resolve () =
  let env = tiny_env () in
  List.iter
    (fun scheme ->
      let r = Experiments.run env ~suite:"spec2006" ~bench:"sjeng" ~scheme in
      Alcotest.(check bool)
        (scheme ^ " produced a run")
        true
        (r.Workloads.Driver.wall > 0))
    Workloads.Harness.scheme_names

let test_memoisation () =
  let env = tiny_env () in
  let r1 =
    Experiments.run env ~suite:"spec2006" ~bench:"sjeng" ~scheme:"baseline"
  in
  let r2 =
    Experiments.run env ~suite:"spec2006" ~bench:"sjeng" ~scheme:"baseline"
  in
  Alcotest.(check bool) "same physical result" true (r1 == r2)

let test_unknown_scheme_rejected () =
  let env = tiny_env () in
  Alcotest.check_raises "bad scheme"
    (Invalid_argument "unknown scheme key bogus") (fun () ->
      ignore
        (Experiments.run env ~suite:"spec2006" ~bench:"sjeng" ~scheme:"bogus"))

let data_free_figures = [ "fig1"; "fig2" ]

let test_data_figures_render () =
  let env = tiny_env () in
  List.iter
    (fun key ->
      let s = render key env in
      Alcotest.(check bool) (key ^ " non-empty") true (String.length s > 100))
    data_free_figures

let test_fig1_has_all_years () =
  let env = tiny_env () in
  let s = render "fig1" env in
  List.iter
    (fun year ->
      Alcotest.(check bool) (year ^ " present") true
        (Astring_contains.contains s year))
    [ "2012"; "2015"; "2019" ]

let test_fig2_shows_prevention () =
  let env = tiny_env () in
  let s = render "fig2" env in
  Alcotest.(check bool) "baseline exploited" true
    (Astring_contains.contains s "EXPLOITED");
  Alcotest.(check bool) "minesweeper benign" true
    (Astring_contains.contains s "BENIGN")

let test_figure_list_complete () =
  Alcotest.(check (list string)) "all figure ids"
    [
      "fig1"; "fig2"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
      "fig13"; "fig14"; "fig15"; "fig16"; "fig17"; "fig18"; "fig19";
      "scudo"; "ptrtrack"; "ablation-threshold"; "ablation-granule";
      "ablation-helpers"; "incremental-sweep"; "parallel-mark";
      "sweep-pipeline"; "static-bounds"; "pooled-landscape"; "tail-latency";
      "fleet-pressure";
    ]
    (List.map fst Experiments.all_figures)

(* A single scaled-down sweep through the simulation-backed figures,
   which must also pass every check they certify. Marked `Slow so
   `dune runtest` exercises it while quick cycles can filter it out. *)
let test_simulation_figures_render () =
  let env = tiny_env () in
  List.iter
    (fun (key, f) ->
      if not (List.mem key data_free_figures) then begin
        let { Experiments.text = s; failed } = f env in
        Alcotest.(check bool) (key ^ " non-empty") true (String.length s > 200);
        Alcotest.(check bool)
          (key ^ " is a rendered section")
          true
          (Astring_contains.contains s "==== ");
        Alcotest.(check (list string)) (key ^ " failed checks") [] failed
      end)
    Experiments.all_figures

(* A failed check reaches [failed] and the figure's verdict line; with
   none, the figure ends on its [ok] line. *)
let test_failed_check_reported () =
  let fails =
    Experiments.checked "t" ~ok:"all held\n" [ "a/b: broke"; "c/d: broke" ]
      "body\n"
  in
  Alcotest.(check (list string)) "failed"
    [ "a/b: broke"; "c/d: broke" ]
    fails.Experiments.failed;
  Alcotest.(check bool) "verdict names the checks" true
    (Astring_contains.contains fails.Experiments.text "a/b: broke; c/d: broke");
  Alcotest.(check bool) "no ok line" false
    (Astring_contains.contains fails.Experiments.text "all held");
  let passes = Experiments.checked "t" ~ok:"all held\n" [] "body\n" in
  Alcotest.(check (list string)) "none failed" [] passes.Experiments.failed;
  Alcotest.(check string) "ok line" "==== t ====\n\nbody\nall held\n\n"
    passes.Experiments.text

let suite =
  ( "experiments",
    [
      Alcotest.test_case "scheme keys resolve" `Quick test_scheme_keys_resolve;
      Alcotest.test_case "memoisation" `Quick test_memoisation;
      Alcotest.test_case "unknown scheme rejected" `Quick
        test_unknown_scheme_rejected;
      Alcotest.test_case "data figures render" `Quick test_data_figures_render;
      Alcotest.test_case "fig1 years" `Quick test_fig1_has_all_years;
      Alcotest.test_case "fig2 prevention" `Quick test_fig2_shows_prevention;
      Alcotest.test_case "figure list complete" `Quick test_figure_list_complete;
      Alcotest.test_case "failed check reported" `Quick
        test_failed_check_reported;
      Alcotest.test_case "all figures render (scaled)" `Slow
        test_simulation_figures_render;
    ] )
