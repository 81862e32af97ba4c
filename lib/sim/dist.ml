type t =
  | Constant of int
  | Uniform of int * int
  | Exponential of float
  | Pareto of float * int * int
  | Choice of (float * t) array * float (* branches, total weight *)
  | Shifted of int * t

(* Degenerate-parameter policy (see dist.mli): constructors never raise on
   out-of-range numeric parameters — they clamp to the nearest value with
   well-defined semantics. This matters because the arrival processes in
   [Arrival] build distributions from user-tunable rates that can
   legitimately hit 0 or extreme magnitudes. The clamps are chosen so that
   every parameter that was previously accepted produces bit-identical
   samples (the byte-identical-export CI gates depend on this). *)

let finite_or f default = if Float.is_finite f then f else default

let constant n = Constant n

let uniform ~lo ~hi =
  (* Reversed bounds are swapped rather than rejected. *)
  if lo <= hi then Uniform (lo, hi) else Uniform (hi, lo)

let exponential ~mean =
  (* A non-positive (or NaN) mean degenerates to the minimum sample, 1. *)
  let mean = finite_or mean 0. in
  Exponential (if mean > 0. then mean else 0.)

let pareto ~shape ~scale ~cap =
  (* shape <= 0 (or NaN) means an arbitrarily heavy tail: all mass lands on
     [cap]. We encode that as shape = 0 and special-case it in [sample].
     scale is clamped to >= 1 and cap to >= scale. *)
  let shape = finite_or shape 0. in
  let shape = if shape > 0. then shape else 0. in
  let scale = max 1 scale in
  let cap = max scale cap in
  Pareto (shape, scale, cap)

let choice branches =
  (* Negative weights are clamped to 0. A zero (or NaN) total weight
     degenerates to always picking the last branch — [sample] still draws
     from the RNG so stream alignment is preserved. An empty branch list is
     a structural error and still raises. *)
  if branches = [] then invalid_arg "Dist.choice: empty branch list";
  let branches =
    Array.of_list
      (List.map (fun (w, d) -> ((if w > 0. then finite_or w 0. else 0.), d))
         branches)
  in
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0. branches in
  Choice (branches, total)

let shifted k d = Shifted (k, d)

(* Largest float that converts to int without overflow on 64-bit OCaml.
   [int_of_float] on values outside [min_int, max_int] is unspecified, so
   every float->int conversion of an unbounded variate goes through here. *)
let[@inline] to_int_clamped x =
  if Float.is_nan x then 0
  else if x >= 4.611686018427387904e18 then max_int
  else if x <= 0. then 0
  else int_of_float x

(* [Rng.float rng bound], computed here: a float returned from [Rng]
   would be boxed, so a draw would allocate. *)
let[@inline] float_draw rng bound =
  bound *. (float_of_int (Rng.bits53 rng) /. 9007199254740992.0)

let rec sample t rng =
  match t with
  | Constant n -> n
  | Uniform (lo, hi) -> lo + Rng.int rng (hi - lo + 1)
  | Exponential mean ->
    (* u in (0, 1]: [Rng.float] returns [0, 1), so [1 - u'] never hits 0
       and [log u] is finite. u = 1 gives log u = 0, i.e. a sample of 1
       after the floor below. *)
    let u = 1.0 -. float_draw rng 1.0 in
    max 1 (to_int_clamped (-.mean *. log u))
  | Pareto (shape, scale, cap) ->
    let u = 1.0 -. float_draw rng 1.0 in
    if shape <= 0. then begin
      (* Degenerate heavy tail: all mass at the cap. The draw above keeps
         the RNG stream aligned with the non-degenerate case. *)
      ignore u;
      cap
    end
    else
      let x = float_of_int scale /. (u ** (1.0 /. shape)) in
      (* x can overflow to inf for tiny u and small shape. *)
      if not (Float.is_finite x) || x >= float_of_int cap then cap
      else max scale (to_int_clamped x)
  | Choice (branches, total) ->
    let x = float_draw rng (if total > 0. then total else 0.) in
    (* The first branch whose cumulative weight passes [x], else the
       last. *)
    let last = Array.length branches - 1 in
    let i = ref 0 and acc = ref 0. in
    while
      !i < last
      && not
           (let w = fst branches.(!i) in
            w > 0. && x < !acc +. w)
    do
      acc := !acc +. fst branches.(!i);
      incr i
    done;
    sample (snd branches.(!i)) rng
  | Shifted (k, d) -> k + sample d rng

let rec mean_estimate = function
  | Constant n -> float_of_int n
  | Uniform (lo, hi) -> float_of_int (lo + hi) /. 2.0
  | Exponential mean -> Float.max 1. mean
  | Pareto (shape, scale, cap) ->
    if shape > 1.0 then
      let m = shape *. float_of_int scale /. (shape -. 1.0) in
      Float.min m (float_of_int cap)
    else float_of_int cap /. 2.0
  | Choice (branches, total) ->
    if total > 0. then
      Array.fold_left
        (fun acc (w, d) -> acc +. (w /. total *. mean_estimate d))
        0. branches
    else mean_estimate (snd branches.(Array.length branches - 1))
  | Shifted (k, d) -> float_of_int k +. mean_estimate d
