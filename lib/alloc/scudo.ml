let header_bytes = 16
let checksum_cycles = 28 (* CRC32-based header checksum, each direction *)
let pool_capacity = 32

type t = {
  heap : Jemalloc.t;
  machine : Machine.t;
  rng : Sim.Rng.t;
  (* Randomisation pool: recently freed slots, released in random order. *)
  pool : int array;
  mutable pool_len : int;
}

let create ?extra_byte machine =
  {
    heap = Jemalloc.create ?extra_byte machine;
    machine;
    rng = Sim.Rng.create 0x5C0D0;
    pool = Array.make pool_capacity 0;
    pool_len = 0;
  }

let malloc t size =
  Machine.charge t.machine checksum_cycles;
  Jemalloc.malloc t.heap (size + header_bytes)

let free t addr =
  Machine.charge t.machine checksum_cycles;
  if t.pool_len < pool_capacity then begin
    t.pool.(t.pool_len) <- addr;
    t.pool_len <- t.pool_len + 1
  end
  else begin
    (* Pool full: evict a random victim to the heap, keep the newcomer.
       Reuse order thus never matches free order. *)
    let i = Sim.Rng.int t.rng pool_capacity in
    Jemalloc.free t.heap t.pool.(i);
    t.pool.(i) <- addr
  end

let usable_size t addr = Jemalloc.usable_size t.heap addr

(* Slots parked in the randomisation pool were already freed by the
   caller: the underlying heap still counts them live, the app does not. *)
let is_live t addr =
  Jemalloc.is_live t.heap addr
  &&
  let pooled = ref false in
  for i = 0 to t.pool_len - 1 do
    if t.pool.(i) = addr then pooled := true
  done;
  not !pooled
let live_bytes t = Jemalloc.live_bytes t.heap
let wilderness t = Jemalloc.wilderness t.heap
let set_extent_hooks t hooks = Jemalloc.set_extent_hooks t.heap hooks

let drain_pool t =
  for i = 0 to t.pool_len - 1 do
    Jemalloc.free t.heap t.pool.(i)
  done;
  t.pool_len <- 0

let purge_tick t = Jemalloc.purge_tick t.heap

let purge_all t =
  drain_pool t;
  Jemalloc.purge_all t.heap

let pool_size t = t.pool_len
let attach_obs t reg = Jemalloc.attach_obs t.heap reg
