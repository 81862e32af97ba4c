(* Micro-benchmarks of single-layer primitives, timed with Bechamel.
   Each test calls the simulator's own entry points; results are
   reported per operation (or per page, per entry) in sorted order. *)

open Bechamel

let chunk_pages = 256

(* A heap with a known page count for the mark stage: 1024 objects of
   1 KiB, each holding a word, plus the root regions. *)
let marked_instance () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) -> Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  let ms = Minesweeper.Instance.create machine in
  for i = 0 to 1023 do
    let p = Minesweeper.Instance.malloc ms 1024 in
    Vmem.store machine.Alloc.Machine.mem p (p + i)
  done;
  let plan = Minesweeper.Pipeline.mark_only (Minesweeper.Instance.Sweep.plan ms) in
  let pages =
    (Minesweeper.Instance.Sweep.run ms plan).Minesweeper.Pipeline.scanned_bytes
    / Vmem.page_size
  in
  (ms, plan, pages)

let pages_for_map_chunks () =
  let rng = Sim.Rng.create 42 in
  Array.init chunk_pages (fun i ->
      let bytes = Bytes.create Vmem.page_size in
      for w = 0 to (Vmem.page_size / 8) - 1 do
        Bytes.set_int64_le bytes (w * 8) (Int64.of_int (Sim.Rng.word rng))
      done;
      { Parsweep.base = Layout.heap_base + (i * Vmem.page_size); bytes; write_gen = 0 })

(* A deliberately light scan (one word per page), so the map_chunks
   tests time the pool's sharding, spawn, steal and join, not the scan. *)
let first_words_in_heap (c : Parsweep.chunk) =
  Array.fold_left
    (fun n (p : Parsweep.page) ->
      if Layout.in_heap (Int64.to_int (Bytes.get_int64_le p.Parsweep.bytes 0)) then n + 1 else n)
    0 c.Parsweep.pages

(* (metric name, Bechamel test, divisor turning ns/run into the unit) *)
let tests () =
  let mem = Vmem.create () in
  Vmem.map mem ~addr:Layout.stack_base ~len:Layout.stack_size;
  let shadow = Minesweeper.Shadow.create () in
  let je = Alloc.Jemalloc.create (Alloc.Machine.create ()) in
  let ms = Minesweeper.Instance.create (Alloc.Machine.create ()) in
  let q = Minesweeper.Quarantine.create (Alloc.Machine.create ()) ~threads:1 in
  let batch = 64 in
  let marked, plan, pages = marked_instance () in
  let chunks = Parsweep.shard (pages_for_map_chunks ()) in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    ( "micro.vmem.store_load_ns",
      t "vmem store+load" (fun () ->
          Vmem.store mem Layout.stack_base 42;
          ignore (Vmem.load mem Layout.stack_base)),
      1. );
    ( "micro.core.shadow_mark_test_ns",
      t "shadow mark+test" (fun () ->
          Minesweeper.Shadow.mark shadow (Layout.heap_base + 4096);
          ignore (Minesweeper.Shadow.range_marked shadow ~addr:Layout.heap_base ~len:8192)),
      1. );
    ( "micro.alloc.malloc_free_ns",
      t "jemalloc malloc+free 64B" (fun () ->
          Alloc.Jemalloc.free je (Alloc.Jemalloc.malloc je 64)),
      1. );
    ( "micro.core.ms_malloc_free_ns",
      t "minesweeper malloc+free 64B" (fun () ->
          Minesweeper.Instance.free ms (Minesweeper.Instance.malloc ms 64)),
      1. );
    ( "micro.core.quarantine_push_flush_ns",
      t "quarantine push+flush_all" (fun () ->
          for i = 0 to batch - 1 do
            Minesweeper.Quarantine.push q ~thread:0
              { Minesweeper.Quarantine.addr = Layout.heap_base + (i * 64); usable = 64;
                unmapped_len = 0; failures = 0 }
          done;
          Minesweeper.Quarantine.flush_all q;
          List.iter (Minesweeper.Quarantine.release q) (Minesweeper.Quarantine.lock_in q)),
      float_of_int batch );
    ( "micro.core.mark_ns_per_page",
      t "Sweep.run mark-only" (fun () ->
          ignore (Minesweeper.Instance.Sweep.run marked plan)),
      float_of_int pages );
    ( "micro.parsweep.map_chunks_d1_us",
      t "map_chunks 1 domain" (fun () ->
          ignore (Parsweep.map_chunks ~domains:1 ~scan:first_words_in_heap chunks)),
      1e3 );
    ( "micro.parsweep.map_chunks_d2_us",
      t "map_chunks 2 domains" (fun () ->
          ignore (Parsweep.map_chunks ~domains:2 ~scan:first_words_in_heap chunks)),
      1e3 );
  ]

let run ?(quota = 0.25) () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (metric, test, per) ->
      let results = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
      let ns =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some [ est ] -> est | _ -> acc)
          results nan
      in
      (metric, ns /. per))
    (tests ())
  |> List.sort compare
