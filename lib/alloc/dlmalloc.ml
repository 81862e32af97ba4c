let word = Vmem.word_size
let header_bytes = word
let min_payload = 16
let bin_count = 64
let malloc_cycles = 45
let free_cycles = 40

(* Carve chunks out of extents in 64-page strides. *)
let stride_pages = 64

type t = {
  machine : Machine.t;
  extent : Extent.t;
  bins : int array; (* head payload address per bin; 0 = empty *)
  extra_byte : bool;
  mutable top : int; (* bump pointer inside the current stride *)
  mutable stride_end : int;
  mutable live_bytes : int;
  mutable live_allocs : int;
}

let create ?(extra_byte = false) machine =
  {
    machine;
    extent = Extent.create machine;
    bins = Array.make bin_count 0;
    extra_byte;
    top = 0;
    stride_end = 0;
    live_bytes = 0;
    live_allocs = 0;
  }

let mem t = t.machine.Machine.mem

let round_up size = max min_payload ((size + word - 1) / word * word)

let bin_of_size size =
  let rounded = round_up size in
  if rounded <= 512 then ((rounded + 15) / 16) - 1 (* 16-byte-spaced small bins *)
  else
    (* logarithmic large bins above 512 *)
    let rec log2 n acc = if n <= 512 then acc else log2 (n / 2) (acc + 1) in
    min (bin_count - 1) (31 + log2 rounded 0)

(* In-band metadata accessors. The header word holds size|allocated-bit;
   a free chunk's first two payload words are the fd/bk list links. *)
let header_of _t payload = payload - header_bytes
let read_header t payload = Vmem.load (mem t) (payload - header_bytes)
let chunk_size header_word = header_word land lnot 7
let is_allocated header_word = header_word land 1 = 1

let write_header t payload size ~allocated =
  Vmem.store (mem t) (payload - header_bytes)
    (size lor if allocated then 1 else 0)

let fd t payload = Vmem.load (mem t) payload
let bk t payload = Vmem.load (mem t) (payload + word)
let set_fd t payload v = Vmem.store (mem t) payload v
let set_bk t payload v = Vmem.store (mem t) (payload + word) v

let bin_push t bin payload =
  let head = t.bins.(bin) in
  set_fd t payload head;
  set_bk t payload 0;
  if head <> 0 then set_bk t head payload;
  t.bins.(bin) <- payload

(* The classic unlink: blind writes through the chunk's own fd/bk links.
   If a use-after-free write corrupted them, these stores go wherever the
   attacker pointed them — the exploit of Section 2's footnote. *)
let unlink t bin payload =
  let f = fd t payload and b = bk t payload in
  let blind_store addr v =
    if addr mod word = 0 then
      match Vmem.store (mem t) addr v with
      | () -> ()
      | exception Vmem.Fault _ -> () (* the real program would crash here *)
  in
  if f <> 0 then blind_store (f + word) b;
  if b <> 0 then blind_store b f else t.bins.(bin) <- f

let fresh_chunk t rounded =
  let need = rounded + header_bytes in
  if t.top = 0 || t.top + need > t.stride_end then begin
    let pages = max stride_pages ((need + Vmem.page_size - 1) / Vmem.page_size)
    in
    let base = Extent.alloc t.extent ~pages in
    t.top <- base;
    t.stride_end <- base + (pages * Vmem.page_size)
  end;
  let payload = t.top + header_bytes in
  t.top <- t.top + need;
  payload

let malloc t size =
  assert (size >= 0);
  Machine.charge t.machine malloc_cycles;
  let size = max 1 size + if t.extra_byte then 1 else 0 in
  let rounded = round_up size in
  let bin = bin_of_size rounded in
  (* First fit within the bin's list (bins are size-homogeneous for
     small sizes; large bins may need a short walk). *)
  let rec scan payload =
    if payload = 0 then None
    else if chunk_size (read_header t payload) >= rounded then Some payload
    else scan (fd t payload)
  in
  let payload =
    match scan t.bins.(bin) with
    | Some p ->
      unlink t bin p;
      p
    | None -> fresh_chunk t rounded
  in
  let actual = max rounded (chunk_size (read_header t payload)) in
  write_header t payload actual ~allocated:true;
  Vmem.zero_range (mem t) ~addr:payload ~len:actual;
  Machine.charge_bytes t.machine t.machine.Machine.cost.Sim.Cost.touch_per_byte
    actual;
  t.live_bytes <- t.live_bytes + actual;
  t.live_allocs <- t.live_allocs + 1;
  payload

let usable_size t payload = chunk_size (read_header t payload)

let free t payload =
  Machine.charge t.machine free_cycles;
  let header = read_header t payload in
  if not (is_allocated header) then
    invalid_arg "Dlmalloc.free: double free or not an allocation";
  let size = chunk_size header in
  write_header t payload size ~allocated:false;
  t.live_bytes <- t.live_bytes - size;
  t.live_allocs <- t.live_allocs - 1;
  bin_push t (bin_of_size size) payload

let live_bytes t = t.live_bytes

(* In-band metadata is all there is: an address is live iff its header
   word parses as allocated. Reading the header of an arbitrary address
   may fault (unmapped page) — that is a definitive "not live". *)
let is_live t payload =
  payload > header_bytes
  &&
  match read_header t payload with
  | header -> is_allocated header
  | exception _ -> false

let wilderness t = Extent.wilderness t.extent
let set_extent_hooks t hooks = Extent.set_hooks t.extent hooks

(* dlmalloc trims via sbrk only at the very top; model as no-ops. *)
let purge_tick _t = ()
let purge_all _t = ()

let attach_obs t reg =
  Obs.Registry.derive_gauge reg "alloc.live_allocations" (fun () ->
      t.live_allocs);
  Obs.Registry.derive_gauge reg "alloc.live_bytes" (fun () -> t.live_bytes)

let check_bin_integrity t =
  let ok = ref true in
  Array.iteri
    (fun _ head ->
      let rec walk payload steps =
        if payload <> 0 && steps < 100_000 then begin
          (match
             if not (Vmem.is_mapped (mem t) payload) then None
             else Some (fd t payload)
           with
          | None -> ok := false
          | Some f ->
            if f <> 0 then
              if (not (Vmem.is_mapped (mem t) f)) || bk t f <> payload then
                ok := false;
            if is_allocated (read_header t payload) then ok := false;
            walk f (steps + 1))
        end
      in
      walk head 0)
    t.bins;
  !ok
