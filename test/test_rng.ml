(* Unit and property tests for the deterministic RNG. *)

let test_deterministic () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sim.Rng.next a) (Sim.Rng.next b)
  done

let test_seed_changes_stream () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Sim.Rng.next a <> Sim.Rng.next b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independent () =
  let parent = Sim.Rng.create 7 in
  let child = Sim.Rng.split parent in
  let child_values = List.init 10 (fun _ -> Sim.Rng.next child) in
  let parent_values = List.init 10 (fun _ -> Sim.Rng.next parent) in
  Alcotest.(check bool) "streams differ" true (child_values <> parent_values)

let test_split_seed_streams () =
  (* The fleet derives every tenant's (and repeat's) seed with
     split_seed: the derived streams must be pairwise distinct and the
     derivation itself deterministic, or per-tenant traffic would be
     correlated (or irreproducible) across the machine. *)
  let streams = 8 and prefix = 16 in
  let derive () =
    List.init streams (fun index ->
        let rng = Sim.Rng.create (Sim.Rng.split_seed ~seed:9100 ~index) in
        List.init prefix (fun _ -> Sim.Rng.next rng))
  in
  let first = derive () in
  Alcotest.(check bool) "derivation deterministic" true (first = derive ());
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "streams %d and %d differ" i j)
              true (a <> b))
        first)
    first;
  let parent = Sim.Rng.create 9100 in
  let parent_prefix = List.init prefix (fun _ -> Sim.Rng.next parent) in
  List.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "stream %d differs from parent seed's stream" i)
        true (a <> parent_prefix))
    first

let test_non_negative () =
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "next >= 0" true (Sim.Rng.next rng >= 0)
  done

let prop_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.float rng bound in
      v >= 0.0 && v < bound)

let prop_bool_probability =
  QCheck.Test.make ~name:"Rng.bool respects extreme probabilities" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create seed in
      (not (Sim.Rng.bool rng 0.0)) && Sim.Rng.bool rng 1.0)

let test_uniformity () =
  (* Chi-squared-lite: each of 10 buckets should receive 10% +- 3%. *)
  let rng = Sim.Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Sim.Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun count ->
      let frac = float_of_int count /. float_of_int n in
      Alcotest.(check bool) "bucket within 3% of uniform" true
        (frac > 0.07 && frac < 0.13))
    buckets

(* The stream is pinned: the first draws of each kind for three seeds,
   as every committed program, trace and figure was drawn. A change to
   the generator's representation must leave every value bit-identical. *)
type golden = {
  seed : int;
  next : int list;
  int1000 : int list;  (** [int _ 1000] *)
  word : int list;
  float : float list;  (** [float _ 1.0] *)
  bool : bool list;  (** [bool _ 0.5] *)
  split : int * int;  (** the child's first [next], then the parent's *)
  split_seed : int * int;  (** indices 0 and 7 *)
}

let goldens =
  [
    {
      seed = 0;
      next = [ 4073552104164651883; 1990071630548588925; 121904254867886419 ];
      int1000 = [ 883; 925; 419 ];
      word =
        [ -1076267828525472041; 3980143261097177850; 243808509735772839 ];
      float = [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6 ];
      bool = [ false; true; true; false; true; true; true; false ];
      split = (3008887562355236763, 1990071630548588925);
      split_seed = (-1076267828525472041, -2107111104054602338);
    };
    {
      seed = 42;
      next = [ 2749113066540076570; 739554815828047797; 767374426118319285 ];
      int1000 = [ 570; 797; 285 ];
      word =
        [ -3725145903774622668; 1479109631656095595; 1534748852236638570 ];
      float =
        [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3 ];
      bool = [ false; true; true; true; false; true; true; true ];
      split = (1542039735285959881, 739554815828047797);
      split_seed = (-3725145903774622668, 1410192177313165993);
    };
    {
      seed = -7;
      next = [ 2947294188056790688; 630266396141297162; 3940839512467280529 ];
      int1000 = [ 688; 162; 529 ];
      word =
        [ -3328783660741194432; 1260532792282594324; -1341693011920214750 ];
      float =
        [ 0x1.47372396bd963p-1; 0x1.17e4fe55fbc3cp-3; 0x1.b5856541cb7c9p-1 ];
      bool = [ false; true; false; true; false; true; true; true ];
      split = (4148648868484795657, 630266396141297162);
      split_seed = (-3328783660741194432, 2512328948276152966);
    };
  ]

let test_golden_values () =
  List.iter
    (fun g ->
      let draws n f =
        let rng = Sim.Rng.create g.seed in
        List.init n (fun _ -> f rng)
      in
      let name what = Printf.sprintf "seed %d: %s" g.seed what in
      Alcotest.(check (list int)) (name "next") g.next (draws 3 Sim.Rng.next);
      Alcotest.(check (list int))
        (name "int 1000") g.int1000
        (draws 3 (fun r -> Sim.Rng.int r 1000));
      Alcotest.(check (list int)) (name "word") g.word (draws 3 Sim.Rng.word);
      Alcotest.(check (list (float 0.)))
        (name "float 1.0") g.float
        (draws 3 (fun r -> Sim.Rng.float r 1.0));
      Alcotest.(check (list (float 0.)))
        (name "bits53 / 2^53") g.float
        (draws 3 (fun r ->
             float_of_int (Sim.Rng.bits53 r) /. 9007199254740992.0));
      Alcotest.(check (list bool))
        (name "bool 0.5") g.bool
        (draws 8 (fun r -> Sim.Rng.bool r 0.5));
      let parent = Sim.Rng.create g.seed in
      let child = Sim.Rng.split parent in
      let child_first = Sim.Rng.next child in
      Alcotest.(check (pair int int))
        (name "split") g.split
        (child_first, Sim.Rng.next parent);
      Alcotest.(check (pair int int))
        (name "split_seed") g.split_seed
        ( Sim.Rng.split_seed ~seed:g.seed ~index:0,
          Sim.Rng.split_seed ~seed:g.seed ~index:7 ))
    goldens

(* A draw allocates nothing: every program step draws a dozen values,
   so a boxed state would make the generator's garbage. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_draws_allocate_nothing () =
  let rng = Sim.Rng.create 5 in
  let n = 100_000 in
  let sink = ref 0 in
  let overhead = minor_words (fun () -> ()) in
  List.iter
    (fun (what, draw) ->
      let words =
        minor_words (fun () ->
            for _ = 1 to n do
              sink := !sink lxor draw ()
            done)
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words over %d %s draws" n what)
        0. (words -. overhead))
    [
      ("next", fun () -> Sim.Rng.next rng);
      ("int", fun () -> Sim.Rng.int rng 1000);
      ("word", fun () -> Sim.Rng.word rng);
      ("bits53", fun () -> Sim.Rng.bits53 rng);
      ("bool", fun () -> Bool.to_int (Sim.Rng.bool rng 0.3));
    ];
  ignore (Sys.opaque_identity !sink)

let suite =
  ( "sim.rng",
    [
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "seed changes stream" `Quick test_seed_changes_stream;
      Alcotest.test_case "split independent" `Quick test_split_independent;
      Alcotest.test_case "split_seed streams independent" `Quick
        test_split_seed_streams;
      Alcotest.test_case "non-negative" `Quick test_non_negative;
      Alcotest.test_case "uniformity" `Quick test_uniformity;
      Alcotest.test_case "golden values" `Quick test_golden_values;
      Alcotest.test_case "draws allocate nothing" `Quick
        test_draws_allocate_nothing;
      QCheck_alcotest.to_alcotest prop_int_bounds;
      QCheck_alcotest.to_alcotest prop_float_bounds;
      QCheck_alcotest.to_alcotest prop_bool_probability;
    ] )
