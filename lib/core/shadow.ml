let page_size = Vmem.page_size

(* One page's mark bits. They are current only while [stamp] equals the
   map's epoch: [clear] advances the epoch, which invalidates every
   bitmap at once, and the first mark on a page in the new epoch zeroes
   its bits and restamps it. *)
type bitmap = {
  mutable stamp : int;
  bits : Bytes.t;
}

(* The page table's [absent] sentinel: its stamp is never current, and
   it is never restamped. *)
let absent = { stamp = -1; bits = Bytes.empty }

type t = {
  granule : int;
  shift : int; (* log2 granule *)
  granules_per_page : int;
  bitmap_bytes : int; (* ceil (granules_per_page / 8) *)
  pages : bitmap Page_table.t; (* heap page index -> bitmap *)
  mutable epoch : int;
  mutable marked_pages : int; (* pages marked in the current epoch *)
}

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ?(granule = Vmem.granule) () =
  assert (granule >= 8 && page_size mod granule = 0);
  let granules_per_page = page_size / granule in
  {
    granule;
    shift = log2 granule;
    granules_per_page;
    bitmap_bytes = (granules_per_page + 7) / 8;
    pages = Page_table.create ~absent;
    epoch = 0;
    marked_pages = 0;
  }

let granule t = t.granule

let clear t =
  t.epoch <- t.epoch + 1;
  t.marked_pages <- 0

let current t b = b.stamp = t.epoch

(* The bitmap of page [page] in the current epoch, created or restamped
   on first use. *)
let bitmap_for_mark t page =
  let b = Page_table.find t.pages page in
  if current t b then b
  else begin
    let b =
      if b == absent then begin
        let b = { stamp = t.epoch; bits = Bytes.make t.bitmap_bytes '\000' } in
        Page_table.set t.pages page b;
        b
      end
      else begin
        Bytes.fill b.bits 0 t.bitmap_bytes '\000';
        b.stamp <- t.epoch;
        b
      end
    in
    t.marked_pages <- t.marked_pages + 1;
    b
  end

let byte bits i = Char.code (Bytes.unsafe_get bits i)

let mark t p =
  assert (Layout.in_heap p);
  let bits = (bitmap_for_mark t (p / page_size)).bits in
  let g = (p mod page_size) lsr t.shift in
  Bytes.unsafe_set bits (g lsr 3)
    (Char.unsafe_chr (byte bits (g lsr 3) lor (1 lsl (g land 7))))

let is_marked t p =
  let b = Page_table.find t.pages (p / page_size) in
  current t b
  &&
  let g = (p mod page_size) lsr t.shift in
  byte b.bits (g lsr 3) land (1 lsl (g land 7)) <> 0

(* Whether any of the page-local granules [lo, hi] is marked in [bits],
   testing whole bytes between the two partial end bytes. *)
let any_marked bits lo hi =
  let first = lo lsr 3 and last = hi lsr 3 in
  let head = (0xff lsl (lo land 7)) land 0xff in
  let tail = 0xff lsr (7 - (hi land 7)) in
  if first = last then byte bits first land head land tail <> 0
  else
    byte bits first land head <> 0
    || byte bits last land tail <> 0
    ||
    let rec middle i = i < last && (byte bits i <> 0 || middle (i + 1)) in
    middle (first + 1)

let range_marked t ~addr ~len =
  assert (len > 0);
  (* Global granule numbers of the first and last granule the range
     intersects; each page in between is looked up once. *)
  let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
  let per_page = t.granules_per_page in
  let rec from page =
    let page_first = page * per_page in
    page_first <= last
    && ((let b = Page_table.find t.pages page in
         current t b
         && any_marked b.bits
              (max first page_first - page_first)
              (min last (page_first + per_page - 1) - page_first))
       || from (page + 1))
  in
  from (addr / page_size)

let iter_marked t f =
  Page_table.iter t.pages (fun page b ->
      if current t b then
        for i = 0 to t.bitmap_bytes - 1 do
          let x = byte b.bits i in
          if x <> 0 then
            for bit = 0 to 7 do
              if x land (1 lsl bit) <> 0 then
                f ((page * page_size) + (((i * 8) + bit) lsl t.shift))
            done
        done)

let marked_granules t =
  let n = ref 0 in
  iter_marked t (fun _ -> incr n);
  !n

let shadow_bytes t = t.marked_pages * t.bitmap_bytes
