let page = Vmem.page_size
let small_max = 14336

(* The class table mirrors JeMalloc's layout: an initial linear region of
   16-byte steps, then four classes per power-of-two group. *)
let sizes =
  let linear = [ 8; 16; 32; 48; 64; 80; 96; 112; 128 ] in
  let grouped =
    let rec groups base acc =
      if base >= small_max then List.rev acc
      else
        let delta = base / 4 in
        let cls =
          List.filter_map
            (fun k ->
              let sz = base + (k * delta) in
              if sz <= small_max then Some sz else None)
            [ 1; 2; 3; 4 ]
        in
        groups (base * 2) (List.rev_append cls acc)
    in
    groups 128 []
  in
  Array.of_list (linear @ grouped)

let count = Array.length sizes

let size_of_class i =
  assert (i >= 0 && i < count);
  sizes.(i)

(* Every class size is a multiple of 8, so the first class >= [sz] is
   the first one >= [sz] rounded up to 8: one byte per 8-byte step,
   indexed by [(sz + 7) / 8]. *)
let class_table =
  assert (count <= 256 && Array.for_all (fun sz -> sz mod 8 = 0) sizes);
  let t = Bytes.make ((small_max / 8) + 1) '\000' in
  let cls = ref 0 in
  for k = 1 to small_max / 8 do
    while sizes.(!cls) < 8 * k do
      incr cls
    done;
    Bytes.set t k (Char.chr !cls)
  done;
  t

let class_of_size sz =
  assert (sz >= 1 && sz <= small_max);
  Char.code (Bytes.unsafe_get class_table ((sz + 7) lsr 3))

(* Pick the smallest slab (up to 8 pages) wasting < 1/16 of its space,
   falling back to the least-waste choice. *)
let slab_pages_table =
  Array.map
    (fun sz ->
      let waste p = (p * page) mod sz in
      let rec pick p best best_waste =
        if p > 8 then best
        else
          let w = waste p in
          if w * 16 < p * page then p
          else if w * best < best_waste * p then pick (p + 1) p w
          else pick (p + 1) best best_waste
      in
      let min_pages = (sz + page - 1) / page in
      pick min_pages min_pages (waste min_pages))
    sizes

let slab_pages i =
  assert (i >= 0 && i < count);
  slab_pages_table.(i)

let slab_slots i = slab_pages i * page / size_of_class i

let large_pages sz =
  assert (sz > 0);
  (sz + page - 1) / page

let is_small sz = sz <= small_max
