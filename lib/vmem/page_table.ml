let leaf_bits = 9
let leaf_pages = 1 lsl leaf_bits
let leaf_mask = leaf_pages - 1

type 'a t = {
  absent : 'a;
  (* Every slot [absent]; stands for each leaf not allocated, so [find]
     needs no test besides the directory bound. Never written. *)
  empty_leaf : 'a array;
  mutable dir : 'a array array; (* leaf number -> leaf *)
  mutable used : int array; (* leaf number -> entries in the leaf *)
  mutable length : int;
}

let create ~absent =
  let empty_leaf = Array.make leaf_pages absent in
  { absent; empty_leaf; dir = [||]; used = [||]; length = 0 }

(* [lsr] sends a negative page number past the directory. *)
let find t page =
  let leaf = page lsr leaf_bits in
  if leaf < Array.length t.dir then
    Array.unsafe_get (Array.unsafe_get t.dir leaf) (page land leaf_mask)
  else t.absent

let grow t leaf =
  let old = Array.length t.dir in
  let n = max (leaf + 1) (2 * old) in
  let dir = Array.make n t.empty_leaf and used = Array.make n 0 in
  Array.blit t.dir 0 dir 0 old;
  Array.blit t.used 0 used 0 old;
  t.dir <- dir;
  t.used <- used

let set t page v =
  assert (page >= 0 && v != t.absent);
  let leaf = page lsr leaf_bits in
  if leaf >= Array.length t.dir then grow t leaf;
  let slots =
    let s = t.dir.(leaf) in
    if s != t.empty_leaf then s
    else begin
      let s = Array.make leaf_pages t.absent in
      t.dir.(leaf) <- s;
      s
    end
  in
  let i = page land leaf_mask in
  if slots.(i) == t.absent then begin
    t.used.(leaf) <- t.used.(leaf) + 1;
    t.length <- t.length + 1
  end;
  slots.(i) <- v

let remove t page =
  let leaf = page lsr leaf_bits in
  if leaf < Array.length t.dir then begin
    let slots = t.dir.(leaf) and i = page land leaf_mask in
    if slots.(i) != t.absent then begin
      slots.(i) <- t.absent;
      t.length <- t.length - 1;
      t.used.(leaf) <- t.used.(leaf) - 1;
      if t.used.(leaf) = 0 then t.dir.(leaf) <- t.empty_leaf
    end
  end

let length t = t.length

let iter t f =
  for leaf = 0 to Array.length t.dir - 1 do
    let slots = t.dir.(leaf) in
    if slots != t.empty_leaf then begin
      let first = leaf lsl leaf_bits in
      for i = 0 to leaf_pages - 1 do
        let v = slots.(i) in
        if v != t.absent then f (first + i) v
      done
    end
  done
