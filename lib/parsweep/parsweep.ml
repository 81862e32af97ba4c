type page = Vmem.page = { base : int; bytes : Bytes.t; write_gen : int }
type chunk = { cid : int; pages : page array; chunk_bytes : int }

let default_chunk_pages = 32

(* The chunk array's initial element: a static constant, so [Array.make]
   never forces a minor collection to promote it (as [Array.init] does
   for a young first chunk once the array passes 256 words). *)
let no_chunk = { cid = 0; pages = [||]; chunk_bytes = 0 }

let shard ?(chunk_pages = default_chunk_pages) pages =
  assert (chunk_pages > 0);
  let n = Array.length pages in
  let chunks = Array.make ((n + chunk_pages - 1) / chunk_pages) no_chunk in
  for cid = 0 to Array.length chunks - 1 do
    let first = cid * chunk_pages in
    let pages = Array.sub pages first (min chunk_pages (n - first)) in
    let chunk_bytes =
      Array.fold_left (fun acc p -> acc + Bytes.length p.bytes) 0 pages
    in
    chunks.(cid) <- { cid; pages; chunk_bytes }
  done;
  chunks

type stats = {
  domains : int;
  chunks : int;
  total_bytes : int;
  seeded_bytes : int array;
}

let imbalance s =
  if Array.length s.seeded_bytes = 0 then 0
  else
    Array.fold_left max min_int s.seeded_bytes
    - Array.fold_left min max_int s.seeded_bytes

let map_chunks ~domains ~scan chunks =
  let n = Array.length chunks in
  let d = max 1 (min domains (max 1 n)) in
  (* Static round-robin seeding: chunk [i] belongs to modeled marker
     [i mod d]. The per-marker bytes are the model's input; the scans
     themselves all run here, in array order. *)
  let seeded_bytes = Array.make d 0 in
  Array.iter
    (fun c ->
      let owner = c.cid mod d in
      seeded_bytes.(owner) <- seeded_bytes.(owner) + c.chunk_bytes)
    chunks;
  let total_bytes = Array.fold_left (fun acc c -> acc + c.chunk_bytes) 0 chunks in
  (Array.map scan chunks, { domains = d; chunks = n; total_bytes; seeded_bytes })

(* Modeled finish time of a batched stage pipeline: stage [s] of batch
   [k] may start only when stage [s-1] of the same batch and stage [s]
   of the previous batch have both finished. Each stage's total cycles
   are split across batches with the remainder spread deterministically
   (integer prefix shares), so the projection is a pure function of the
   stage totals. One domain (or one batch) degenerates to the sequential
   sum — there is nobody to overlap with. *)
let pipeline_cycles ~domains ~batches stage_cycles =
  let stages = Array.length stage_cycles in
  let total = Array.fold_left ( + ) 0 stage_cycles in
  if stages = 0 then 0
  else if domains <= 1 || batches <= 1 then total
  else begin
    let b = batches in
    let share s k =
      let c = stage_cycles.(s) in
      (c * (k + 1) / b) - (c * k / b)
    in
    let finish = Array.make stages 0 in
    for k = 0 to b - 1 do
      for s = 0 to stages - 1 do
        let prev_stage = if s = 0 then 0 else finish.(s - 1) in
        finish.(s) <- max prev_stage finish.(s) + share s k
      done
    done;
    min total finish.(stages - 1)
  end

let critical_path_cycles ~single_per_byte ~bandwidth_per_byte stats =
  let slowest =
    Array.fold_left
      (fun acc b -> max acc (Sim.Cost.bytes_cost single_per_byte b))
      0 stats.seeded_bytes
  in
  max slowest (Sim.Cost.bytes_cost bandwidth_per_byte stats.total_bytes)
