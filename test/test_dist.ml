(* Distribution sampling tests. *)

let rng () = Sim.Rng.create 5

let test_constant () =
  let d = Sim.Dist.constant 42 in
  let r = rng () in
  for _ = 1 to 50 do
    Alcotest.(check int) "constant" 42 (Sim.Dist.sample d r)
  done

let test_uniform_bounds () =
  let d = Sim.Dist.uniform ~lo:10 ~hi:20 in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Sim.Dist.sample d r in
    Alcotest.(check bool) "in [10,20]" true (v >= 10 && v <= 20)
  done

let test_uniform_hits_endpoints () =
  let d = Sim.Dist.uniform ~lo:0 ~hi:3 in
  let r = rng () in
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Sim.Dist.sample d r) <- true
  done;
  Alcotest.(check bool) "all endpoints reachable" true
    (Array.for_all Fun.id seen)

let test_exponential_positive () =
  let d = Sim.Dist.exponential ~mean:100. in
  let r = rng () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Sim.Dist.sample d r >= 1)
  done

let test_exponential_mean () =
  let d = Sim.Dist.exponential ~mean:500. in
  let r = rng () in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Sim.Dist.sample d r
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical mean %.1f within 5%% of 500" mean)
    true
    (mean > 475. && mean < 525.)

let test_pareto_bounds () =
  let d = Sim.Dist.pareto ~shape:1.3 ~scale:64 ~cap:4096 in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Sim.Dist.sample d r in
    Alcotest.(check bool) "within [scale, cap]" true (v >= 64 && v <= 4096)
  done

let test_pareto_heavy_tail () =
  let d = Sim.Dist.pareto ~shape:1.1 ~scale:64 ~cap:65536 in
  let r = rng () in
  let big = ref 0 in
  for _ = 1 to 10_000 do
    if Sim.Dist.sample d r > 640 then incr big
  done;
  (* shape 1.1: P(X > 10*scale) ~ 10^-1.1 ~ 8% *)
  Alcotest.(check bool) "tail exists" true (!big > 300 && !big < 2000)

let test_choice_mixture () =
  let d =
    Sim.Dist.choice
      [ (0.5, Sim.Dist.constant 1); (0.5, Sim.Dist.constant 1000) ]
  in
  let r = rng () in
  let ones = ref 0 and n = 10_000 in
  for _ = 1 to n do
    if Sim.Dist.sample d r = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "roughly half" true (frac > 0.45 && frac < 0.55)

let test_choice_weights () =
  let d =
    Sim.Dist.choice
      [ (0.9, Sim.Dist.constant 1); (0.1, Sim.Dist.constant 2) ]
  in
  let r = rng () in
  let ones = ref 0 and n = 10_000 in
  for _ = 1 to n do
    if Sim.Dist.sample d r = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "90/10 split" true (frac > 0.87 && frac < 0.93)

let test_shifted () =
  let d = Sim.Dist.shifted 100 (Sim.Dist.constant 5) in
  Alcotest.(check int) "shifted" 105 (Sim.Dist.sample d (rng ()))

let test_mean_estimates () =
  let close a b = Float.abs (a -. b) /. b < 0.01 in
  Alcotest.(check bool) "constant mean" true
    (close (Sim.Dist.mean_estimate (Sim.Dist.constant 7)) 7.);
  Alcotest.(check bool) "uniform mean" true
    (close (Sim.Dist.mean_estimate (Sim.Dist.uniform ~lo:0 ~hi:10)) 5.);
  Alcotest.(check bool) "exponential mean" true
    (close (Sim.Dist.mean_estimate (Sim.Dist.exponential ~mean:42.)) 42.)

(* ------------------------------------------------------------------ *)
(* Degenerate parameters: clamp-don't-crash semantics (see dist.mli). *)

let test_degenerate_exponential () =
  let r = rng () in
  List.iter
    (fun mean ->
      let d = Sim.Dist.exponential ~mean in
      for _ = 1 to 100 do
        Alcotest.(check int) "degenerate mean samples 1" 1 (Sim.Dist.sample d r)
      done)
    [ 0.; -5.; Float.nan; Float.neg_infinity ]

let test_extreme_exponential_mean () =
  (* Astronomical means must saturate, not hit int_of_float UB. *)
  let r = rng () in
  List.iter
    (fun mean ->
      let d = Sim.Dist.exponential ~mean in
      for _ = 1 to 100 do
        let v = Sim.Dist.sample d r in
        Alcotest.(check bool) "in [1, max_int]" true (v >= 1 && v <= max_int)
      done)
    [ 1e18; 1e300; Float.infinity ]

let test_degenerate_pareto () =
  let r = rng () in
  (* shape <= 0: all mass at the cap. *)
  List.iter
    (fun shape ->
      let d = Sim.Dist.pareto ~shape ~scale:64 ~cap:4096 in
      for _ = 1 to 50 do
        Alcotest.(check int) "heavy-tail degenerate" 4096 (Sim.Dist.sample d r)
      done)
    [ 0.; -1.; Float.nan ];
  (* Tiny shape overflows the variate: clamps to cap, never UB. *)
  let d = Sim.Dist.pareto ~shape:0.001 ~scale:64 ~cap:4096 in
  for _ = 1 to 200 do
    let v = Sim.Dist.sample d r in
    Alcotest.(check bool) "within clamped range" true (v >= 64 && v <= 4096)
  done;
  (* scale/cap clamps: scale >= 1, cap >= scale. *)
  let d = Sim.Dist.pareto ~shape:1.3 ~scale:(-8) ~cap:(-100) in
  for _ = 1 to 50 do
    let v = Sim.Dist.sample d r in
    Alcotest.(check bool) "negative scale/cap clamp to 1" true (v = 1)
  done

let test_reversed_uniform () =
  let d = Sim.Dist.uniform ~lo:20 ~hi:10 in
  let r = rng () in
  for _ = 1 to 200 do
    let v = Sim.Dist.sample d r in
    Alcotest.(check bool) "swapped bounds" true (v >= 10 && v <= 20)
  done

let test_zero_weight_choice () =
  let d =
    Sim.Dist.choice
      [ (0., Sim.Dist.constant 1); (0., Sim.Dist.constant 9) ]
  in
  let r = rng () in
  for _ = 1 to 50 do
    Alcotest.(check int) "zero total weight picks last branch" 9
      (Sim.Dist.sample d r)
  done;
  let d =
    Sim.Dist.choice
      [ (-3., Sim.Dist.constant 1); (1., Sim.Dist.constant 2) ]
  in
  for _ = 1 to 50 do
    Alcotest.(check int) "negative weight clamps to 0" 2 (Sim.Dist.sample d r)
  done

let test_sampler_normalised_guard () =
  let s = Sim.Sampler.create () in
  Alcotest.(check int) "empty trace" 0
    (Array.length (Sim.Sampler.normalised s ~points:10));
  Sim.Sampler.record s ~now:0 ~rss:100;
  Alcotest.(check int) "points = 0" 0
    (Array.length (Sim.Sampler.normalised s ~points:0));
  Alcotest.(check int) "points < 0" 0
    (Array.length (Sim.Sampler.normalised s ~points:(-4)));
  Alcotest.(check int) "points = 1 still works" 1
    (Array.length (Sim.Sampler.normalised s ~points:1))

(* Valid parameters keep their exact pre-clamp sample streams: the CI
   export gates compare runs byte-for-byte, so the clamps must be inert
   in range. Golden first draws for a fixed seed. *)
(* Every kind of branch, one of them never taken. *)
let mixture =
  Sim.Dist.choice
    [
      (0.5, Sim.Dist.uniform ~lo:1 ~hi:10);
      (0.0, Sim.Dist.constant 7);
      (2.0, Sim.Dist.exponential ~mean:100.);
      (1.0, Sim.Dist.pareto ~shape:1.3 ~scale:64 ~cap:4096);
    ]

let test_valid_params_bit_identical () =
  let draws d =
    let r = Sim.Rng.create 5 in
    List.init 4 (fun _ -> Sim.Dist.sample d r)
  in
  let check name expected d =
    Alcotest.(check (list int)) (name ^ " golden stream") expected (draws d)
  in
  check "exponential" [ 53; 76; 152; 146 ] (Sim.Dist.exponential ~mean:100.);
  check "pareto" [ 96; 115; 207; 197 ]
    (Sim.Dist.pareto ~shape:1.3 ~scale:64 ~cap:4096);
  check "uniform" [ 18; 20; 10; 18 ] (Sim.Dist.uniform ~lo:10 ~hi:20);
  check "shifted choice"
    [ 79; 200; 559; 195 ]
    (Sim.Dist.shifted 3 mixture)

(* A draw allocates nothing, whichever constructor it goes through: the
   generators sample sizes and lifetimes on every step. *)
let test_sample_allocates_nothing () =
  let r = Sim.Rng.create 5 in
  let sink = ref 0 in
  List.iter
    (fun (name, d) ->
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        sink := !sink + Sim.Dist.sample d r
      done;
      Alcotest.(check (float 0.))
        (name ^ ": minor words over 10000 draws")
        0.
        (Gc.minor_words () -. before))
    [
      ("uniform", Sim.Dist.uniform ~lo:10 ~hi:20);
      ("exponential", Sim.Dist.exponential ~mean:100.);
      ("pareto", Sim.Dist.pareto ~shape:1.3 ~scale:64 ~cap:4096);
      ("shifted choice", Sim.Dist.shifted 3 mixture);
    ];
  ignore (Sys.opaque_identity !sink)

let prop_degenerate_total =
  QCheck.Test.make ~name:"sampling never raises for arbitrary parameters"
    ~count:500
    QCheck.(
      triple small_int
        (triple (float_range (-1e3) 1e3) small_signed_int small_signed_int)
        (float_range (-10.) 10.))
    (fun (seed, (shape, scale, cap), mean) ->
      let r = Sim.Rng.create seed in
      let p = Sim.Dist.pareto ~shape ~scale ~cap in
      let e = Sim.Dist.exponential ~mean in
      let vp = Sim.Dist.sample p r and ve = Sim.Dist.sample e r in
      vp >= 1 && ve >= 1)

let prop_sample_non_negative =
  QCheck.Test.make ~name:"samples non-negative for non-negative params"
    ~count:300
    QCheck.(triple small_int (int_range 0 1000) (int_range 0 1000))
    (fun (seed, lo, extra) ->
      let r = Sim.Rng.create seed in
      let d = Sim.Dist.uniform ~lo ~hi:(lo + extra) in
      Sim.Dist.sample d r >= 0)

let suite =
  ( "sim.dist",
    [
      Alcotest.test_case "constant" `Quick test_constant;
      Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
      Alcotest.test_case "uniform endpoints" `Quick test_uniform_hits_endpoints;
      Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      Alcotest.test_case "pareto bounds" `Quick test_pareto_bounds;
      Alcotest.test_case "pareto heavy tail" `Quick test_pareto_heavy_tail;
      Alcotest.test_case "choice mixture" `Quick test_choice_mixture;
      Alcotest.test_case "choice weights" `Quick test_choice_weights;
      Alcotest.test_case "shifted" `Quick test_shifted;
      Alcotest.test_case "mean estimates" `Quick test_mean_estimates;
      Alcotest.test_case "degenerate exponential" `Quick
        test_degenerate_exponential;
      Alcotest.test_case "extreme exponential mean" `Quick
        test_extreme_exponential_mean;
      Alcotest.test_case "degenerate pareto" `Quick test_degenerate_pareto;
      Alcotest.test_case "reversed uniform" `Quick test_reversed_uniform;
      Alcotest.test_case "zero-weight choice" `Quick test_zero_weight_choice;
      Alcotest.test_case "sampler normalised guard" `Quick
        test_sampler_normalised_guard;
      Alcotest.test_case "valid params bit-identical" `Quick
        test_valid_params_bit_identical;
      Alcotest.test_case "sample allocates nothing" `Quick
        test_sample_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_degenerate_total;
      QCheck_alcotest.to_alcotest prop_sample_non_negative;
    ] )
