type t = {
  width : int;
  mutable keys : int array;
  mutable rows : int array;
  mutable used : Bytes.t;
  mutable count : int;
  mutable shift : int;
}

let make ~width bits =
  let n = 1 lsl bits in
  {
    width;
    keys = Array.make (2 * n) 0;
    rows = Array.make (width * n) 0;
    used = Bytes.make n '\000';
    count = 0;
    shift = Sys.int_size - bits;
  }

let create ~width = make ~width 8
let capacity t = Bytes.length t.used
let mask t = capacity t - 1
let count t = t.count

(* Fibonacci hashing: the top bits of the key times 2^63 / phi, made
   odd (the literal wraps to a negative [int]; the product is the same
   modulo 2^63). Consecutive keys land far apart. The second key is
   spread by another odd multiplier first, so a table keyed by [(a, 0)]
   hashes [a] alone. *)
let home t a b =
  ((a lxor (b * 0x2545F4914F6CDD1D)) * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* The key's slot, or [-1 - free] for the free slot ending its run. *)
let rec probe t a b i =
  if Bytes.unsafe_get t.used i = '\000' then -1 - i
  else if t.keys.(2 * i) = a && t.keys.(2 * i + 1) = b then i
  else probe t a b ((i + 1) land mask t)

let find t a b = probe t a b (home t a b)

let copy_row t ~src ~dst =
  let w = t.width in
  for c = 0 to w - 1 do
    t.rows.((w * dst) + c) <- t.rows.((w * src) + c)
  done

let rec add t a b =
  let i = find t a b in
  if i >= 0 then i
  else if 4 * (t.count + 1) > 3 * capacity t then begin
    grow t;
    add t a b
  end
  else begin
    let i = -1 - i in
    Bytes.unsafe_set t.used i '\001';
    t.keys.(2 * i) <- a;
    t.keys.((2 * i) + 1) <- b;
    t.count <- t.count + 1;
    i
  end

(* Double the capacity and enter every entry again. *)
and grow t =
  let keys = t.keys and rows = t.rows and used = t.used in
  let w = t.width in
  let bigger = make ~width:w (Sys.int_size - t.shift + 1) in
  t.keys <- bigger.keys;
  t.rows <- bigger.rows;
  t.used <- bigger.used;
  t.count <- 0;
  t.shift <- bigger.shift;
  for i = 0 to Bytes.length used - 1 do
    if Bytes.unsafe_get used i <> '\000' then begin
      let j = add t keys.(2 * i) keys.((2 * i) + 1) in
      for c = 0 to w - 1 do
        t.rows.((w * j) + c) <- rows.((w * i) + c)
      done
    end
  done

let set t i c v = t.rows.((t.width * i) + c) <- v

(* Empty slot [hole], then move back every later entry of the run
   whose home does not lie cyclically in (hole, j]. *)
let remove t i =
  t.count <- t.count - 1;
  let m = mask t in
  let rec fill hole j =
    let j = (j + 1) land m in
    if Bytes.unsafe_get t.used j = '\000' then Bytes.unsafe_set t.used hole '\000'
    else
      let a = t.keys.(2 * j) and b = t.keys.((2 * j) + 1) in
      if (j - home t a b) land m >= (j - hole) land m then begin
        t.keys.(2 * hole) <- a;
        t.keys.((2 * hole) + 1) <- b;
        copy_row t ~src:j ~dst:hole;
        fill j j
      end
      else fill hole j
  in
  fill i i
