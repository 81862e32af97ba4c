(* SplitMix64 (Steele, Lea, Flood 2014), truncated to OCaml's 63-bit ints.
   Chosen for speed, statistical quality and trivially splittable streams.

   The 64-bit state lives unboxed in an 8-byte buffer, read and written
   with the compiler's 64-bit load and store primitives; with [mix] and
   the draw inlined, an [int64] never leaves registers, so a draw
   allocates nothing. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix state

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))

let split t = of_state (next64 t)

let split_seed ~seed ~index =
  (* Indexed stream derivation: position [index + 1] of the SplitMix64
     sequence rooted at [seed], re-mixed so that consecutive indices give
     uncorrelated child seeds. Pure — does not allocate a generator. *)
  let base = mix (Int64.of_int seed) in
  let z = Int64.add base (Int64.mul golden_gamma (Int64.of_int (index + 1))) in
  Int64.to_int (Int64.shift_right_logical (mix z) 1)

let[@inline] next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let word t = Int64.to_int (Int64.shift_right_logical (next64 t) 1)

let int t bound =
  assert (bound > 0);
  next t mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next64 t) 11)

let[@inline] float t bound =
  bound *. (float_of_int (bits53 t) /. 9007199254740992.0)

let bool t p = float t 1.0 < p
