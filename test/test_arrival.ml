(* Open-loop arrival process tests: monotonicity over arbitrary
   (including degenerate) parameters, empirical rates, determinism. *)

module A = Sim.Arrival

let take ?(seed = 11) ?(n = 2000) process =
  A.take (A.make process (Sim.Rng.create seed)) n

let strictly_increasing a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

let test_poisson_rate () =
  let a = take ~n:20_000 (A.Poisson { rate = 200. }) in
  Alcotest.(check int) "open loop delivers every arrival" 20_000
    (Array.length a);
  let span = float_of_int a.(Array.length a - 1) in
  let mean_gap = span /. float_of_int (Array.length a) in
  (* rate 200/Mcycle -> mean gap 5000 cycles, within 5%. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.0f ~ 5000" mean_gap)
    true
    (mean_gap > 4750. && mean_gap < 5250.)

let test_zero_rate_is_silent () =
  List.iter
    (fun (name, process) ->
      Alcotest.(check int) name 0 (Array.length (take process)))
    [
      ("poisson 0", A.Poisson { rate = 0. });
      ("poisson -1", A.Poisson { rate = -1. });
      ("poisson nan", A.Poisson { rate = Float.nan });
      ( "mmpp 0/0",
        A.Mmpp { rate_lo = 0.; rate_hi = 0.; dwell_lo = 100; dwell_hi = 100 } );
      ("diurnal 0", A.Diurnal { rate = 0.; period = 1000; depth = 0.5 });
      ( "spike 0 base",
        A.Spike { rate = 0.; spike_at = 10; spike_len = 10; spike_mult = 4. } );
    ]

let test_mmpp_silent_phase () =
  (* Arrivals only inside the Hi phases when rate_lo = 0. *)
  let a =
    take ~n:500
      (A.Mmpp { rate_lo = 0.; rate_hi = 500.; dwell_lo = 10_000; dwell_hi = 10_000 })
  in
  Alcotest.(check bool) "still generates" true (Array.length a > 0);
  Array.iter
    (fun t ->
      (* Phases alternate Lo [0,10k), Hi [10k,20k), ... arrivals land in
         odd 10k windows. *)
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d in a Hi window" t)
        true
        (t / 10_000 mod 2 = 1))
    a

(* Every gap is at least one cycle, so a 1-cycle phase can never hold
   an arrival: an MMPP whose only positive-rate phases last 1 cycle
   runs dry instead of redrawing forever. *)
let test_mmpp_one_cycle_phases_are_silent () =
  List.iter
    (fun (name, process) ->
      Alcotest.(check (array int)) name [||] (take process))
    [
      ( "166/0, dwell -8/49600",
        A.Mmpp { rate_lo = 166.; rate_hi = 0.; dwell_lo = -8; dwell_hi = 49600 } );
      ( "both rates positive, both dwells clamped to 1",
        A.Mmpp { rate_lo = 300.; rate_hi = 5.; dwell_lo = 0; dwell_hi = -3 } );
    ]

let test_spike_density () =
  let process =
    A.Spike { rate = 100.; spike_at = 1_000_000; spike_len = 1_000_000; spike_mult = 8. }
  in
  let a = take ~n:2_000 process in
  let inside =
    Array.fold_left
      (fun acc t -> if t >= 1_000_000 && t < 2_000_000 then acc + 1 else acc)
      0 a
  in
  let before =
    Array.fold_left (fun acc t -> if t < 1_000_000 then acc + 1 else acc) 0 a
  in
  (* 8x rate inside the window: expect ~800 arrivals inside vs ~100 before. *)
  Alcotest.(check bool)
    (Printf.sprintf "spike density (%d inside vs %d before)" inside before)
    true
    (before > 0 && inside > 4 * before)

let test_determinism () =
  let process =
    A.Mmpp { rate_lo = 50.; rate_hi = 900.; dwell_lo = 30_000; dwell_hi = 20_000 }
  in
  Alcotest.(check bool) "same seed, same timeline" true
    (take ~seed:99 process = take ~seed:99 process);
  Alcotest.(check bool) "different seed, different timeline" true
    (take ~seed:99 process <> take ~seed:100 process)

let test_rates () =
  let close a b = Float.abs (a -. b) < 1e-9 in
  Alcotest.(check bool) "poisson mean" true
    (close (A.mean_rate (A.Poisson { rate = 320. })) 320.);
  Alcotest.(check bool) "diurnal peak" true
    (close (A.peak_rate (A.Diurnal { rate = 100.; period = 10; depth = 0.5 })) 150.);
  Alcotest.(check bool) "spike peak" true
    (close
       (A.peak_rate
          (A.Spike { rate = 100.; spike_at = 0; spike_len = 1; spike_mult = 4. }))
       400.)

(* Arbitrary processes, degenerate corners included. *)
let arb_process =
  let open QCheck.Gen in
  let rate = oneof [ return 0.; return (-5.); float_bound_exclusive 1000.; return 1e12 ] in
  let gen =
    oneof
      [
        map (fun r -> A.Poisson { rate = r }) rate;
        map3
          (fun lo hi (dl, dh) ->
            A.Mmpp { rate_lo = lo; rate_hi = hi; dwell_lo = dl; dwell_hi = dh })
          rate rate
          (pair (int_range (-10) 50_000) (int_range (-10) 50_000));
        map3
          (fun r p d -> A.Diurnal { rate = r; period = p; depth = d })
          rate
          (int_range (-5) 100_000)
          (oneof [ return (-1.); return 0.; float_bound_exclusive 2.; return Float.nan ]);
        map3
          (fun r (at, len) m ->
            A.Spike { rate = r; spike_at = at; spike_len = len; spike_mult = m })
          rate
          (pair (int_range (-10) 100_000) (int_range (-10) 100_000))
          (oneof [ return 0.; return (-2.); float_bound_exclusive 16. ]);
      ]
  in
  QCheck.make gen

let prop_monotone =
  QCheck.Test.make ~name:"timestamps strictly increase for any parameters"
    ~count:200
    QCheck.(pair small_int arb_process)
    (fun (seed, process) ->
      strictly_increasing (take ~seed ~n:300 process))

let prop_independent_of_consumption =
  (* Open-loop: pulling arrivals one at a time (as a server under load
     does) yields the same timeline as pulling them in bulk. *)
  QCheck.Test.make ~name:"timeline independent of how it is consumed"
    ~count:100
    QCheck.(pair small_int arb_process)
    (fun (seed, process) ->
      let bulk = take ~seed ~n:100 process in
      let one_by_one =
        let g = A.make process (Sim.Rng.create seed) in
        let rec go acc k =
          if k = 0 then List.rev acc
          else match A.next g with None -> List.rev acc | Some t -> go (t :: acc) (k - 1)
        in
        Array.of_list (go [] 100)
      in
      bulk = one_by_one)

let suite =
  ( "sim.arrival",
    [
      Alcotest.test_case "poisson empirical rate" `Quick test_poisson_rate;
      Alcotest.test_case "zero/NaN rates are silent" `Quick test_zero_rate_is_silent;
      Alcotest.test_case "mmpp silent phase" `Quick test_mmpp_silent_phase;
      Alcotest.test_case "mmpp 1-cycle phases are silent" `Quick
        test_mmpp_one_cycle_phases_are_silent;
      Alcotest.test_case "spike density" `Quick test_spike_density;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "mean/peak rates" `Quick test_rates;
      QCheck_alcotest.to_alcotest prop_monotone;
      QCheck_alcotest.to_alcotest prop_independent_of_consumption;
    ] )
