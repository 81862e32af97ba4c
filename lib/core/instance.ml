(* The body is generic over the allocator backend; see instance.mli. *)

module type S = Instance_intf.S

type error = Instance_intf.error =
  | Unknown_pointer of int
  | Double_free of int
  | Size_overflow

let pp_error = Instance_intf.pp_error
let error_to_string = Instance_intf.error_to_string

type sweep_event = Instance_intf.sweep_event =
  | Sweep_locked of { sweep : int; entries : int }
  | Stage_boundary of { sweep : int; stage : Pipeline.stage; enter : bool }
  | Mark_page of { sweep : int; base : int }
  | Mark_completed of { sweep : int; scanned_bytes : int }
  | Stw_fence of { sweep : int }
  | Rescan_page of { sweep : int; base : int }
  | Sweep_completed of { sweep : int }

(* ---- The word scan ------------------------------------------------- *)

(* Every sweep reads program memory through this one kernel: the Mark
   stage (both modes) and the stop-the-world rescan. It sits outside the
   functor so it compiles once. The frame's length bounds the loop, so
   the check is once per page and every word is then read by an
   unchecked load. Other modules' constants are bound to locals first:
   a build without cross-module optimization (dune's dev profile) would
   otherwise reload them on every word. *)

external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* Word [k] of a frame, little-endian as {!Vmem.store} writes it. *)
let unsafe_word bytes k =
  let w = unsafe_get64 bytes (k lsl 3) in
  Int64.to_int (if big_endian () then swap64 w else w)

let empty_hits : int array = [||]

(* The words of one page frame in [heap_base, limit), in page order, as a
   fresh exactly sized array. Two passes (count, then fill): the common
   page has no hits and returns the shared empty array. *)
let page_hits bytes ~limit =
  let words = Bytes.length bytes lsr 3 and lo = Layout.heap_base in
  let n = ref 0 in
  for k = 0 to words - 1 do
    let w = unsafe_word bytes k in
    if w >= lo && w < limit then incr n
  done;
  if !n = 0 then empty_hits
  else begin
    let hits = Array.make !n 0 in
    let i = ref 0 in
    for k = 0 to words - 1 do
      let w = unsafe_word bytes k in
      if w >= lo && w < limit then begin
        Array.unsafe_set hits !i w;
        incr i
      end
    done;
    hits
  end

(* All words of a page that lie in the heap *address range*, deduped and
   sorted. The wilderness is deliberately not consulted here: it grows
   between sweeps, so a summary filtered by today's wilderness would miss
   pointers into tomorrow's heap. Filtering happens at mark time. *)
let summarize_page bytes =
  let hits = page_hits bytes ~limit:Layout.heap_limit in
  Array.sort Int.compare hits;
  (* Drop repeats in place: [hits.(0 .. !n-1)] holds the distinct words
     seen so far. *)
  let n = ref 0 in
  Array.iteri
    (fun i w ->
      if i = 0 || w <> hits.(!n - 1) then begin
        hits.(!n) <- w;
        incr n
      end)
    hits;
  if !n = Array.length hits then hits else Array.sub hits 0 !n

module Make (B : Alloc.Backend.S) = struct
  type backend = B.t

let page = Vmem.page_size
let word = Vmem.word_size

module R = Obs.Registry
module Ring = Obs.Trace_ring

type sweep_state = {
  entries : Quarantine.entry list;
  completion : int;
  started : int;
  plan : Pipeline.plan;
  scanned_bytes : int;
  replayed_words : int;
  flush_batches : int;
  (* Mark/Merge stage reports in pipeline order; Release/Purge are
     appended when the sweep finishes. *)
  head_reports : Pipeline.stage_report list;
  (* Modeled critical path of the parallel mark, substituted for the
     Mark stage in the pipelined projection. *)
  mark_pipelined : int;
}

(* Incremental sweeping (Config.Incremental): what the last scan of a
   page found. [targets] holds every word of the page that lay in the
   heap address range [heap_base, heap_limit) at capture time, deduped
   and sorted; the wilderness filter is applied at replay time because
   the wilderness moves between sweeps. [gen] is the vmem scan
   generation current when the summary was captured: the summary is
   coherent iff the page's write generation is still below it. *)
type page_summary = {
  gen : int;
  targets : int array;
}

(* Telemetry of the modeled parallel mark, registered only when the
   configuration asks for more than one marker domain: a domains=1 run
   exports exactly the historical metric set, which is what lets the
   check.sh gate byte-compare 1-domain and n-domain exports after
   stripping the [par.*] lines. *)
type par_telemetry = {
  par_domains : R.gauge;
  par_chunks : R.counter;
  par_imbalance : R.gauge;
  par_mark_cycles_est : R.counter;
  par_mark_cycles_seq_est : R.counter;
}

(* Per-stage telemetry of the sweep pipeline, registered at every domain
   count. All of it is a modeled projection over the stage reports —
   nothing here feeds the simulated clock — and every series except
   [sweep.stage.pipeline_cycles_est] is domain-independent; determinism
   gates strip the whole [sweep.stage.*] prefix alongside [par.*]. *)
type stage_telemetry = {
  st_mark_cycles : R.counter;
  st_merge_cycles : R.counter;
  st_release_cycles : R.counter;
  st_purge_cycles : R.counter;
  st_seq_cycles : R.counter;
  st_pipe_cycles : R.counter;
  st_batches : R.counter;
  st_flush_batches : R.counter;
}

type t = {
  machine : Alloc.Machine.t;
  je : B.t;
  config : Config.t;
  quarantine : Quarantine.t;
  shadow : Shadow.t;
  registry : R.t;
  ring : Ring.t;
  stats : Stats.Live.t;
  scan_hist : R.histogram; (* per-sweep scanned bytes distribution *)
  alloc_hist : R.histogram; (* malloc request sizes *)
  pause_hist : R.histogram;
      (* mutator-visible pause distribution: STW rescans and allocation
         pauses — the fleet layer aggregates this across tenants *)
  unmapped_pages : (int, unit) Hashtbl.t; (* page index -> () *)
  par : par_telemetry option;
  stage_obs : stage_telemetry;
  mutable summaries : (int, page_summary) Hashtbl.t; (* page index *)
  mutable sweep : sweep_state option;
  mutable last_decay_tick : int;
  mutable post_sweep_hook : (unit -> unit) option;
  mutable sync_observer : (sweep_event -> unit) option;
  mutable last_outcome : Pipeline.outcome option;
  (* Purge-stage accounting: the vmem decommit observer counts decommits
     only while [purging_now] is set around [B.purge_all]. *)
  mutable purging_now : bool;
  mutable purge_decommits : int;
  mutable purge_decommit_bytes : int;
}

let decay_tick_interval = 1_000_000

(* Parallel sweeping divides the compute cost, but the wall-clock floor
   of a sweep is DRAM bandwidth: ~16 bytes per cycle however many helper
   threads run. *)
let bandwidth_cycles_per_byte = 0.0625

(* The shared span ring: sized for the event traffic plus a handful of
   profiling spans per sweep, so a sweep's phase spans are retained long
   enough for coverage checks even under free-heavy workloads. *)
let ring_capacity = 8192

let cost t = t.machine.Alloc.Machine.cost
let mem t = t.machine.Alloc.Machine.mem
let now t = Alloc.Machine.now t.machine

let count = R.Counter.incr

let emit_sync t ev =
  match t.sync_observer with None -> () | Some f -> f ev

let sweep_number t = R.Counter.value t.stats.Stats.Live.sweeps

let create ?(config = Config.default) ?(threads = 1) ?obs machine =
  let je = B.create ~extra_byte:true machine in
  let registry = match obs with Some r -> r | None -> R.create () in
  let ring = Ring.create ~capacity:ring_capacity () in
  let par =
    if config.Config.domains > 1 then begin
      let p =
        {
          par_domains = R.gauge registry "par.domains";
          par_chunks = R.counter registry "par.chunks";
          par_imbalance = R.gauge registry "par.imbalance";
          par_mark_cycles_est = R.counter registry "par.mark_cycles_est";
          par_mark_cycles_seq_est = R.counter registry "par.mark_cycles_seq_est";
        }
      in
      R.Gauge.set p.par_domains config.Config.domains;
      Some p
    end
    else None
  in
  let stage_obs =
    {
      st_mark_cycles = R.counter registry "sweep.stage.mark_cycles_est";
      st_merge_cycles = R.counter registry "sweep.stage.merge_cycles_est";
      st_release_cycles = R.counter registry "sweep.stage.release_cycles_est";
      st_purge_cycles = R.counter registry "sweep.stage.purge_cycles_est";
      st_seq_cycles = R.counter registry "sweep.stage.seq_cycles_est";
      st_pipe_cycles = R.counter registry "sweep.stage.pipeline_cycles_est";
      st_batches = R.counter registry "sweep.stage.batches";
      st_flush_batches = R.counter registry "sweep.stage.flush_batches";
    }
  in
  let t =
    {
      machine;
      je;
      config;
      quarantine = Quarantine.create machine ~threads;
      shadow = Shadow.create ~granule:config.Config.shadow_granule ();
      registry;
      ring;
      stats = Stats.Live.create registry;
      scan_hist = R.histogram registry "ms.sweep_scan_bytes";
      alloc_hist = R.histogram registry "ms.alloc_request_bytes";
      pause_hist = R.histogram registry "ms.sweep_pause_cycles";
      unmapped_pages = Hashtbl.create 1024;
      par;
      stage_obs;
      summaries = Hashtbl.create 1024;
      sweep = None;
      last_decay_tick = 0;
      post_sweep_hook = None;
      sync_observer = None;
      last_outcome = None;
      purging_now = false;
      purge_decommits = 0;
      purge_decommit_bytes = 0;
    }
  in
  (* The surrounding layers publish their accounting into the same
     registry as read-through metrics — one export covers the stack. *)
  Vmem.attach_obs (mem t) registry;
  B.attach_obs je registry;
  (* Purge-stage accounting: every decommit the allocator performs while
     the Purge stage runs is one madvise-equivalent syscall. *)
  Vmem.set_decommit_observer (mem t) (fun ~addr:_ ~len ->
      if t.purging_now then begin
        t.purge_decommits <- t.purge_decommits + 1;
        t.purge_decommit_bytes <- t.purge_decommit_bytes + len
      end);
  R.derive_gauge registry "ms.quarantine_bytes" (fun () ->
      Quarantine.total_bytes t.quarantine);
  R.derive_gauge registry "ms.shadow_resident_bytes" (fun () ->
      Shadow.shadow_bytes t.shadow);
  (* Integrate with the allocator's extent life-cycle (Section 4.5):
     purged extents are decommitted *and* protected so that sweeps skip
     them instead of demand-allocating them back in, and are restored on
     reuse. *)
  B.set_extent_hooks je
    {
      Alloc.Extent.on_decommit =
        (fun ~addr ~pages ->
          Vmem.protect (mem t) ~addr ~len:(pages * page) Vmem.No_access);
      on_commit =
        (fun ~addr ~pages ->
          Vmem.protect (mem t) ~addr ~len:(pages * page) Vmem.Read_write);
    };
  t

(* Page-aligned sub-range of [addr, addr+len) fully covered by it. Only
   large allocations (beyond the slab classes) are worth the two
   syscalls; sub-page and slab-interior ranges stay mapped. *)
let unmap_min_bytes = 16384

let covered_pages ~addr ~len =
  if len < unmap_min_bytes then None
  else
    let lo = (addr + page - 1) / page * page in
    let hi = (addr + len) / page * page in
    if hi - lo >= page then Some (lo, hi - lo) else None

(* ------------------------------------------------------------------ *)
(* Marking phase: the Mark and Merge stages of the sweep pipeline       *)

(* Bracket one pipeline stage: a [Stage_boundary] pair for the race
   checker and a [Ring.Stage] span for the profile. Every attribute is
   domain-independent (item count, bytes, single-threaded cycle
   estimate), so stage spans compare byte-identical across domain
   counts. [f] returns [(items, bytes, cycles_est, result)]. *)
let in_stage t stage f =
  let sweep = sweep_number t in
  emit_sync t (Stage_boundary { sweep; stage; enter = true });
  let pending =
    Ring.enter ~now:(now t) Ring.Stage (Pipeline.stage_name stage)
  in
  let items, bytes, cycles, result = f () in
  Ring.exit t.ring pending ~now:(now t) ~bytes
    ~attrs:[ ("sweep", sweep); ("items", items); ("cycles_est", cycles) ]
    ();
  emit_sync t (Stage_boundary { sweep; stage; enter = false });
  ({ Pipeline.stage; cycles; items; bytes }, result)

(* ---- Chunk scans (lib/parsweep) ------------------------------------ *)

(* Record a modeled parallel mark into the [par.*] telemetry: chunk
   counts, static-assignment imbalance and the modeled critical path.
   The per-domain mark spans carry the static byte assignment. *)
let record_par t (stats : Parsweep.stats) =
  match t.par with
  | None -> ()
  | Some p ->
    let c = cost t in
    R.Gauge.set p.par_domains stats.Parsweep.domains;
    count p.par_chunks stats.Parsweep.chunks;
    R.Gauge.set p.par_imbalance (Parsweep.imbalance stats);
    count p.par_mark_cycles_est
      (Parsweep.critical_path_cycles
         ~single_per_byte:c.Sim.Cost.mark_single_per_byte
         ~bandwidth_per_byte:bandwidth_cycles_per_byte stats);
    count p.par_mark_cycles_seq_est
      (Sim.Cost.bytes_cost c.Sim.Cost.mark_single_per_byte
         stats.Parsweep.total_bytes);
    let sweep = sweep_number t in
    Array.iteri
      (fun d bytes ->
        let pending =
          Ring.enter ~now:(now t) Ring.Mark (Printf.sprintf "mark-domain-%d" d)
        in
        Ring.exit t.ring pending ~now:(now t) ~bytes
          ~attrs:[ ("sweep", sweep); ("domain", d) ]
          ())
      stats.Parsweep.seeded_bytes

(* Full scan as a Mark/Merge stage pair, the same at every domain
   count. The Mark stage computes per-page hit arrays over a canonical
   (base-sorted, zero-copy) snapshot; the domain count only sets the
   modeled marker assignment. The Merge stage then walks the chunks in
   chunk-id order: emits the Mark_page events, writes the shadow map
   and counts swept bytes. The merge is the only writer of instance
   state, so the outcome is byte-identical for any domain count. Returns
   [(swept_bytes, stage_reports, mark_pipelined)]. *)
let run_full_scan t =
  Shadow.clear t.shadow;
  let c = cost t in
  let wilderness = B.wilderness t.je in
  let pages =
    Array.map
      (fun (base, bytes, write_gen) -> { Parsweep.base; bytes; write_gen })
      (Vmem.snapshot_readable_pages (mem t))
  in
  let chunks = Parsweep.shard pages in
  let scan (ch : Parsweep.chunk) =
    Array.map
      (fun (p : Parsweep.page) ->
        page_hits p.Parsweep.bytes ~limit:wilderness)
      ch.Parsweep.pages
  in
  let mark_report, (per_chunk, stats) =
    in_stage t Pipeline.Mark (fun () ->
        let per_chunk, stats =
          Parsweep.map_chunks ~domains:t.config.Config.domains ~scan chunks
        in
        let bytes = stats.Parsweep.total_bytes in
        ( Array.length pages,
          bytes,
          Sim.Cost.bytes_cost c.Sim.Cost.mark_single_per_byte bytes,
          (per_chunk, stats) ))
  in
  let sweep = sweep_number t in
  let merge_report, swept =
    in_stage t Pipeline.Merge (fun () ->
        let swept = ref 0 in
        Array.iteri
          (fun ci hits_per_page ->
            let chunk = chunks.(ci) in
            Array.iteri
              (fun pi hits ->
                emit_sync t
                  (Mark_page
                     { sweep; base = chunk.Parsweep.pages.(pi).Parsweep.base });
                Array.iter (Shadow.mark t.shadow) hits;
                swept := !swept + page)
              hits_per_page)
          per_chunk;
        let pages_n = !swept / page in
        (pages_n, !swept, pages_n * c.Sim.Cost.merge_per_page, !swept))
  in
  record_par t stats;
  count t.stats.Stats.Live.swept_bytes swept;
  let mark_pipelined =
    Parsweep.critical_path_cycles
      ~single_per_byte:c.Sim.Cost.mark_single_per_byte
      ~bandwidth_per_byte:bandwidth_cycles_per_byte stats
  in
  (swept, [ mark_report; merge_report ], mark_pipelined)

(* Incremental marking as a Mark/Merge stage pair, the same at every
   domain count: rescan only pages written (or zeroed, decommitted,
   protected, remapped) since their summary was captured; replay the
   cached summary for the rest. Every page is classified (replay vs
   rescan) up front; the Mark stage runs [summarize_page] — the
   expensive part — over the rescan pages only, so only they enter the
   modeled marker assignment. The Merge stage then walks the full
   canonical snapshot: replayed pages take their cached targets,
   rescanned pages the fresh summary, and the table is rebuilt from
   scratch so entries for unmapped pages fall away. Every counter, gauge
   and Mark_page event is identical at any domain count. Returns
   [(rescanned_bytes, replayed_targets, stage_reports, mark_pipelined)]. *)
let run_incremental t =
  Shadow.clear t.shadow;
  let c = cost t in
  let m = mem t in
  let gen = Vmem.advance_generation m in
  let wilderness = B.wilderness t.je in
  let snapshot = Vmem.snapshot_readable_pages m in
  let replayable base write_gen =
    match Hashtbl.find_opt t.summaries (base / page) with
    | Some s -> write_gen < s.gen
    | None -> false
  in
  let rescan_pages =
    Array.of_list
      (List.filter_map
         (fun (base, bytes, write_gen) ->
           if replayable base write_gen then None
           else Some { Parsweep.base; bytes; write_gen })
         (Array.to_list snapshot))
  in
  let chunks = Parsweep.shard rescan_pages in
  let scan (ch : Parsweep.chunk) =
    Array.map
      (fun (p : Parsweep.page) -> summarize_page p.Parsweep.bytes)
      ch.Parsweep.pages
  in
  let mark_report, (per_chunk, stats) =
    in_stage t Pipeline.Mark (fun () ->
        let per_chunk, stats =
          Parsweep.map_chunks ~domains:t.config.Config.domains ~scan chunks
        in
        let bytes = stats.Parsweep.total_bytes in
        ( Array.length rescan_pages,
          bytes,
          Sim.Cost.bytes_cost c.Sim.Cost.mark_single_per_byte bytes,
          (per_chunk, stats) ))
  in
  let fresh_targets = Hashtbl.create (max 64 (Array.length rescan_pages)) in
  Array.iteri
    (fun ci targets_per_page ->
      Array.iteri
        (fun pi targets ->
          Hashtbl.replace fresh_targets
            (chunks.(ci).Parsweep.pages.(pi).Parsweep.base / page)
            targets)
        targets_per_page)
    per_chunk;
  let sweep = sweep_number t in
  let merge_report, (rescanned, replayed) =
    in_stage t Pipeline.Merge (fun () ->
        let fresh = Hashtbl.create (max 64 (Hashtbl.length t.summaries)) in
        let rescanned = ref 0 and replayed = ref 0 in
        let skipped_pages = ref 0 and rescanned_pages = ref 0 in
        Array.iter
          (fun (base, _bytes, write_gen) ->
            emit_sync t (Mark_page { sweep; base });
            let index = base / page in
            match Hashtbl.find_opt t.summaries index with
            | Some s when write_gen < s.gen ->
              (* Untouched since capture: the cached targets are exactly
                 what a rescan would find. *)
              Array.iter
                (fun v -> if v < wilderness then Shadow.mark t.shadow v)
                s.targets;
              replayed := !replayed + Array.length s.targets;
              incr skipped_pages;
              Hashtbl.replace fresh index { gen; targets = s.targets }
            | Some _ | None ->
              let targets =
                match Hashtbl.find_opt fresh_targets index with
                | Some targets -> targets
                | None -> assert false
              in
              Array.iter
                (fun v -> if v < wilderness then Shadow.mark t.shadow v)
                targets;
              rescanned := !rescanned + page;
              incr rescanned_pages;
              Hashtbl.replace fresh index { gen; targets })
          snapshot;
        t.summaries <- fresh;
        count t.stats.Stats.Live.swept_bytes !rescanned;
        count t.stats.Stats.Live.sweep_pages_skipped !skipped_pages;
        count t.stats.Stats.Live.sweep_pages_rescanned !rescanned_pages;
        R.Gauge.set t.stats.Stats.Live.summary_cache_bytes
          (Hashtbl.fold
             (fun _ s acc -> acc + (3 * word) + (Array.length s.targets * word))
             fresh 0);
        let pages_n = Array.length snapshot in
        ( pages_n,
          !rescanned,
          pages_n * c.Sim.Cost.merge_per_page,
          (!rescanned, !replayed) ))
  in
  record_par t stats;
  let mark_pipelined =
    Parsweep.critical_path_cycles
      ~single_per_byte:c.Sim.Cost.mark_single_per_byte
      ~bandwidth_per_byte:bandwidth_cycles_per_byte stats
  in
  (rescanned, replayed, [ mark_report; merge_report ], mark_pipelined)

(* Audit-only reference marks: build the mark set each strategy would
   produce right now into a scratch shadow, charging no simulated cost
   and mutating no instance state (no generation advance, no summary
   swap). [Sanitizer.Invariants] compares the two for equality. *)
let reference_full_mark t =
  let shadow = Shadow.create ~granule:t.config.Config.shadow_granule () in
  let wilderness = B.wilderness t.je in
  Vmem.iter_readable_pages (mem t) (fun _base bytes ->
      let words = page / word in
      for k = 0 to words - 1 do
        let w = Int64.to_int (Bytes.get_int64_le bytes (k * word)) in
        if w >= Layout.heap_base && w < wilderness then Shadow.mark shadow w
      done);
  shadow

let reference_incremental_mark t =
  let shadow = Shadow.create ~granule:t.config.Config.shadow_granule () in
  let wilderness = B.wilderness t.je in
  let mark v = if v < wilderness then Shadow.mark shadow v in
  Vmem.iter_readable_pages_gen (mem t) (fun base bytes ~write_gen ->
      match Hashtbl.find_opt t.summaries (base / page) with
      | Some s when write_gen < s.gen -> Array.iter mark s.targets
      | Some _ | None -> Array.iter mark (summarize_page bytes));
  shadow

let mark_dirty_pages t =
  let swept = ref 0 in
  let sweep = sweep_number t in
  let wilderness = B.wilderness t.je in
  Vmem.iter_soft_dirty_pages (mem t) (fun base bytes ->
      emit_sync t (Rescan_page { sweep; base });
      Array.iter (Shadow.mark t.shadow) (page_hits bytes ~limit:wilderness);
      swept := !swept + page);
  !swept

(* ------------------------------------------------------------------ *)
(* Release phase                                                       *)

let restore_unmapped t (e : Quarantine.entry) =
  if e.Quarantine.unmapped_len > 0 then begin
    match covered_pages ~addr:e.Quarantine.addr ~len:e.Quarantine.usable with
    | None -> assert false
    | Some (lo, len) ->
      Vmem.protect (mem t) ~addr:lo ~len Vmem.Read_write;
      Alloc.Machine.charge t.machine (cost t).Sim.Cost.syscall;
      for i = 0 to (len / page) - 1 do
        Hashtbl.remove t.unmapped_pages ((lo / page) + i)
      done;
      e.Quarantine.unmapped_len <- 0
  end

let release_entry t (e : Quarantine.entry) =
  restore_unmapped t e;
  Quarantine.release t.quarantine e;
  B.free t.je e.Quarantine.addr;
  count t.stats.Stats.Live.releases 1;
  count t.stats.Stats.Live.released_bytes e.Quarantine.usable

let release_all t entries =
  let c = cost t in
  List.iter
    (fun (e : Quarantine.entry) ->
      Alloc.Machine.charge t.machine c.Sim.Cost.release_per_entry;
      let blocked =
        t.config.Config.sweeping
        &&
        (Alloc.Machine.charge_bytes t.machine
           (c.Sim.Cost.shadow_test_per_granule /. float_of_int Vmem.granule)
           e.Quarantine.usable;
         Shadow.range_marked t.shadow ~addr:e.Quarantine.addr
           ~len:e.Quarantine.usable)
      in
      if blocked then begin
        count t.stats.Stats.Live.failed_frees 1;
        if t.config.Config.keep_failed then Quarantine.requeue_failed t.quarantine e
        else release_entry t e
      end
      else release_entry t e)
    entries

(* ------------------------------------------------------------------ *)
(* Sweep orchestration                                                 *)

let sweep_sink t =
  match t.config.Config.concurrency with
  | Config.Sequential -> Alloc.Machine.App
  | Config.Concurrent _ -> Alloc.Machine.Background

(* Quarantine entries locked in per batched flush during sweep setup
   (each batch takes the quarantine lock once); also the batch
   granularity of the stage-overlap model. *)
let flush_batch = 64
let batches entries = max 1 ((entries + flush_batch - 1) / flush_batch)

(* A lifecycle event: one zero-length span in the shared ring. *)
let log_event t phase label attrs =
  Ring.emit t.ring ~phase ~label ~t_start:(now t) ~t_end:(now t) ~attrs ()

(* Fold a finished sweep's outcome into the [sweep.stage.*] telemetry
   and publish it as [last_outcome]. *)
let publish_outcome t (o : Pipeline.outcome) =
  let so = t.stage_obs in
  List.iter
    (fun (r : Pipeline.stage_report) ->
      let ctr =
        match r.Pipeline.stage with
        | Pipeline.Mark -> so.st_mark_cycles
        | Pipeline.Merge -> so.st_merge_cycles
        | Pipeline.Release -> so.st_release_cycles
        | Pipeline.Purge -> so.st_purge_cycles
      in
      count ctr r.Pipeline.cycles)
    o.Pipeline.reports;
  count so.st_seq_cycles o.Pipeline.sequential_cycles;
  count so.st_pipe_cycles o.Pipeline.pipelined_cycles;
  count so.st_batches (batches o.Pipeline.entries);
  count so.st_flush_batches o.Pipeline.flush_batches;
  t.last_outcome <- Some o

let finish_sweep t state =
  let plan = state.plan in
  (* Mostly concurrent mode: brief stop-the-world re-scan of the pages
     written during the sweep, so moved dangling pointers are seen. *)
  if t.config.Config.sweeping && plan.Pipeline.stop_the_world then begin
    let c = cost t in
    emit_sync t (Stw_fence { sweep = sweep_number t });
    let pending = Ring.enter ~now:(now t) Ring.Scan "stw-rescan" in
    let dirty_bytes =
      Alloc.Machine.with_sink t.machine Alloc.Machine.Background (fun () ->
          mark_dirty_pages t)
    in
    (* The re-scan is real marking work: account it with the rest of the
       swept bytes, and separately so pause work stays visible. *)
    count t.stats.Stats.Live.swept_bytes dirty_bytes;
    count t.stats.Stats.Live.stw_rescanned_bytes dirty_bytes;
    let scan_cycles = Sim.Cost.bytes_cost c.Sim.Cost.sweep_per_byte dirty_bytes in
    let pause =
      c.Sim.Cost.stw_signal + (scan_cycles / (plan.Pipeline.helpers + 1))
    in
    Sim.Clock.stall t.machine.Alloc.Machine.clock pause;
    Sim.Clock.background t.machine.Alloc.Machine.clock scan_cycles;
    count t.stats.Stats.Live.stw_pauses 1;
    count t.stats.Stats.Live.stw_cycles pause;
    R.Histogram.observe t.pause_hist pause;
    Ring.exit t.ring pending ~now:(now t) ~bytes:dirty_bytes
      ~attrs:[ ("sweep", sweep_number t); ("pause_cycles", pause) ]
      ();
    log_event t Ring.Scan "stw" [ ("cycles", pause) ]
  end;
  let c = cost t in
  let released_before = R.Counter.value t.stats.Stats.Live.releases in
  let failed_before = R.Counter.value t.stats.Stats.Live.failed_frees in
  let released_bytes_before = R.Counter.value t.stats.Stats.Live.released_bytes in
  let pending = Ring.enter ~now:(now t) Ring.Quarantine "release" in
  let release_report, () =
    in_stage t Pipeline.Release (fun () ->
        Alloc.Machine.with_sink t.machine (sweep_sink t) (fun () ->
            release_all t state.entries);
        let entries_n = List.length state.entries in
        let bytes =
          R.Counter.value t.stats.Stats.Live.released_bytes
          - released_bytes_before
        in
        (entries_n, bytes, entries_n * c.Sim.Cost.release_per_entry, ()))
  in
  let purge_reports =
    if List.mem Pipeline.Purge plan.Pipeline.stages then begin
      let report, () =
        in_stage t Pipeline.Purge (fun () ->
            t.purge_decommits <- 0;
            t.purge_decommit_bytes <- 0;
            t.purging_now <- true;
            Alloc.Machine.with_sink t.machine (sweep_sink t) (fun () ->
                let p = Ring.enter ~now:(now t) Ring.Purge "purge" in
                B.purge_all t.je;
                Ring.exit t.ring p ~now:(now t)
                  ~attrs:[ ("sweep", sweep_number t) ]
                  ());
            t.purging_now <- false;
            ( t.purge_decommits,
              t.purge_decommit_bytes,
              t.purge_decommits * c.Sim.Cost.syscall,
              () ))
      in
      [ report ]
    end
    else []
  in
  let released = R.Counter.value t.stats.Stats.Live.releases - released_before in
  let failed = R.Counter.value t.stats.Stats.Live.failed_frees - failed_before in
  Ring.exit t.ring pending ~now:(now t)
    ~bytes:(R.Counter.value t.stats.Stats.Live.released_bytes
            - released_bytes_before)
    ~attrs:[ ("sweep", sweep_number t); ("released", released);
             ("failed", failed) ]
    ();
  log_event t Ring.Mark "sweep-finish"
    [ ("sweep", sweep_number t); ("released", released); ("failed", failed) ];
  let entries_n = List.length state.entries in
  let reports = state.head_reports @ (release_report :: purge_reports) in
  let sequential_cycles, pipelined_cycles =
    Pipeline.modeled_cycles plan
      ~batches:(batches entries_n)
      ~mark_pipelined:state.mark_pipelined reports
  in
  publish_outcome t
    {
      Pipeline.sweep = sweep_number t;
      plan;
      scanned_bytes = state.scanned_bytes;
      replayed_words = state.replayed_words;
      entries = entries_n;
      released;
      requeued = (if t.config.Config.keep_failed then failed else 0);
      flush_batches = state.flush_batches;
      reports;
      sequential_cycles;
      pipelined_cycles;
    };
  t.sweep <- None;
  emit_sync t (Sweep_completed { sweep = sweep_number t });
  match t.post_sweep_hook with None -> () | Some hook -> hook ()

let start_sweep_plan t (plan : Pipeline.plan) =
  count t.stats.Stats.Live.sweeps 1;
  log_event t Ring.Mark "sweep-start"
    [ ("sweep", sweep_number t);
      ("quarantined_bytes", Quarantine.total_bytes t.quarantine) ];
  (* Batched quarantine flush: drain every thread buffer into the global
     list taking the lock once per [flush_batch] entries, so the lock-in
     below sees the complete set at amortised per-entry cost. *)
  let flush_batches = Quarantine.flush_batch t.quarantine ~batch:flush_batch in
  let entries = Quarantine.lock_in t.quarantine in
  emit_sync t
    (Sweep_locked { sweep = sweep_number t; entries = List.length entries });
  if plan.Pipeline.stop_the_world then Vmem.clear_soft_dirty (mem t);
  let c = cost t in
  let sink = sweep_sink t in
  let busy = ref 0 in
  (* Bytes the marking phase actually moved through memory; also the
     basis for the DRAM-bandwidth wall-clock floor below. Incremental
     mode reads rescanned pages plus the cached summaries it replays,
     not the whole readable footprint. *)
  let scanned_bytes = ref 0 in
  let replayed_words = ref 0 in
  let head_reports = ref [] in
  let mark_pipelined = ref 0 in
  if List.mem Pipeline.Mark plan.Pipeline.stages then begin
    (* The mark span's [bytes] carries exactly what this phase charged to
       [swept_bytes]: summing mark + scan spans reproduces the counter. *)
    (match plan.Pipeline.mode with
    | Config.Full_scan ->
      let pending = Ring.enter ~now:(now t) Ring.Mark "mark-full" in
      let swept, reports, mp =
        Alloc.Machine.with_sink t.machine sink (fun () -> run_full_scan t)
      in
      Ring.exit t.ring pending ~now:(now t) ~bytes:swept
        ~attrs:[ ("sweep", sweep_number t) ]
        ();
      scanned_bytes := swept;
      head_reports := reports;
      mark_pipelined := mp
    | Config.Incremental ->
      let pending = Ring.enter ~now:(now t) Ring.Mark "mark-incremental" in
      let rescanned, replayed, reports, mp =
        Alloc.Machine.with_sink t.machine sink (fun () -> run_incremental t)
      in
      Ring.exit t.ring pending ~now:(now t) ~bytes:rescanned
        ~attrs:[ ("sweep", sweep_number t); ("replayed_words", replayed) ]
        ();
      scanned_bytes := rescanned + (replayed * word);
      replayed_words := replayed;
      head_reports := reports;
      mark_pipelined := mp);
    R.Histogram.observe t.scan_hist !scanned_bytes;
    busy := Sim.Cost.bytes_cost c.Sim.Cost.sweep_per_byte !scanned_bytes
  end;
  emit_sync t
    (Mark_completed
       { sweep = sweep_number t; scanned_bytes = !scanned_bytes });
  (* The release phase charges itself per entry in [release_all]; the
     wall-clock duration below accounts for it via the same estimate. *)
  let release_estimate = List.length entries * c.Sim.Cost.release_per_entry in
  let state completion =
    {
      entries;
      completion;
      started = now t;
      plan;
      scanned_bytes = !scanned_bytes;
      replayed_words = !replayed_words;
      flush_batches;
      head_reports = !head_reports;
      mark_pipelined = !mark_pipelined;
    }
  in
  match t.config.Config.concurrency with
  | Config.Sequential ->
    Alloc.Machine.charge t.machine !busy;
    finish_sweep t (state (now t))
  | Config.Concurrent { helpers; _ } ->
    Sim.Clock.background t.machine.Alloc.Machine.clock !busy;
    let parallel = (!busy + release_estimate) / (helpers + 1) in
    let floor_cycles =
      if List.mem Pipeline.Mark plan.Pipeline.stages then
        Sim.Cost.bytes_cost bandwidth_cycles_per_byte !scanned_bytes
      else 0
    in
    let duration = max parallel floor_cycles in
    t.sweep <- Some (state (now t + duration))

let start_sweep t = start_sweep_plan t (Pipeline.plan_of_config t.config)

(* Execute one complete sweep cycle under [plan], synchronously, and
   return its outcome — the [Sweep.run] entry point. A plan without a
   Release stage (see {!Pipeline.mark_only}) runs just the Mark/Merge
   stages: no quarantine flush or lock-in, no release decisions, no
   sweep counted and no simulated cost charged. *)
let run_pipeline t (plan : Pipeline.plan) =
  if not (List.mem Pipeline.Release plan.Pipeline.stages) then begin
    let scanned_bytes, replayed_words, reports, mark_pipelined =
      match plan.Pipeline.mode with
      | Config.Full_scan ->
        let swept, reports, mp = run_full_scan t in
        (swept, 0, reports, mp)
      | Config.Incremental ->
        let rescanned, replayed, reports, mp = run_incremental t in
        (rescanned + (replayed * word), replayed, reports, mp)
    in
    let sequential_cycles, pipelined_cycles =
      Pipeline.modeled_cycles plan ~batches:1 ~mark_pipelined reports
    in
    let outcome =
      {
        Pipeline.sweep = sweep_number t;
        plan;
        scanned_bytes;
        replayed_words;
        entries = 0;
        released = 0;
        requeued = 0;
        flush_batches = 0;
        reports;
        sequential_cycles;
        pipelined_cycles;
      }
    in
    publish_outcome t outcome;
    outcome
  end
  else begin
    if t.sweep = None then start_sweep_plan t plan;
    (match t.sweep with
    | Some state -> finish_sweep t state
    | None -> ());
    match t.last_outcome with Some o -> o | None -> assert false
  end

let trigger_due t =
  let q = t.quarantine in
  let fresh = Quarantine.fresh_mapped_bytes q in
  let heap =
    B.live_bytes t.je
    - Quarantine.failed_bytes q
    - Quarantine.unmapped_bytes q
  in
  let by_threshold =
    fresh >= t.config.Config.threshold_min_bytes
    && float_of_int fresh >= t.config.Config.threshold *. float_of_int (max heap 1)
  in
  let by_unmapped =
    float_of_int (Quarantine.unmapped_bytes q)
    >= t.config.Config.unmap_factor
       *. float_of_int (Vmem.committed_bytes (mem t))
  in
  by_threshold || by_unmapped

let maybe_sweep t =
  if t.sweep = None && t.config.Config.quarantining && trigger_due t then
    start_sweep t

let tick t =
  (match t.sweep with
  | Some state when now t >= state.completion ->
    finish_sweep t state;
    maybe_sweep t
  | Some _ | None -> ());
  if not t.config.Config.purging then begin
    let n = now t in
    if n - t.last_decay_tick >= decay_tick_interval then begin
      t.last_decay_tick <- n;
      Alloc.Machine.with_sink t.machine Alloc.Machine.Background (fun () ->
          B.purge_tick t.je)
    end
  end

let drain t =
  Quarantine.flush_all t.quarantine;
  match t.sweep with
  | Some state ->
    finish_sweep t state
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Allocation entry points                                             *)

let malloc t size =
  tick t;
  (match t.sweep with
  | Some state ->
    (* Allocation pausing: if the quarantine has outgrown the heap while
       a sweep is still running, stall until it completes rather than
       letting memory balloon (Section 5.7). *)
    let heap = max 1 (B.live_bytes t.je) in
    if
      float_of_int (Quarantine.fresh_mapped_bytes t.quarantine)
      >= t.config.Config.pause_factor *. float_of_int heap
    then begin
      let pending = Ring.enter ~now:(now t) Ring.Alloc_slow "alloc-stall" in
      let wait = max 0 (state.completion - now t) in
      Sim.Clock.stall t.machine.Alloc.Machine.clock wait;
      Ring.exit t.ring pending ~now:(now t)
        ~attrs:[ ("cycles", wait) ]
        ();
      log_event t Ring.Alloc_slow "alloc-pause" [ ("cycles", wait) ];
      count t.stats.Stats.Live.alloc_pauses 1;
      count t.stats.Stats.Live.alloc_pause_cycles wait;
      R.Histogram.observe t.pause_hist wait;
      tick t
    end
  | None -> ());
  R.Histogram.observe t.alloc_hist size;
  B.malloc t.je size

let zero_entry t addr usable skip =
  (* Zero the freed data (Section 4.1), skipping any middle range that is
     about to be unmapped anyway (its reincarnation is zero-filled by the
     OS). *)
  let c = cost t in
  let zero ~addr ~len =
    if len > 0 then begin
      Vmem.zero_range (mem t) ~addr ~len;
      Alloc.Machine.charge_bytes t.machine c.Sim.Cost.zero_per_byte len
    end
  in
  match skip with
  | None -> zero ~addr ~len:usable
  | Some (lo, len) ->
    zero ~addr ~len:(lo - addr);
    zero ~addr:(lo + len) ~len:(addr + usable - lo - len)

let unmap_entry t (e : Quarantine.entry) (lo, len) =
  Vmem.decommit (mem t) ~addr:lo ~len;
  Vmem.protect (mem t) ~addr:lo ~len Vmem.No_access;
  Alloc.Machine.charge t.machine (2 * (cost t).Sim.Cost.syscall);
  for i = 0 to (len / page) - 1 do
    Hashtbl.replace t.unmapped_pages ((lo / page) + i) ()
  done;
  e.Quarantine.unmapped_len <- len;
  log_event t Ring.Quarantine "unmap" [ ("addr", lo); ("len", len) ];
  count t.stats.Stats.Live.unmapped_allocations 1;
  count t.stats.Stats.Live.unmapped_bytes len

let forward_free t addr =
  (* Quarantining disabled (partial versions 1-2): optionally unmap-and-
     remap large allocations and zero small ones, then recycle at once. *)
  let usable = B.usable_size t.je addr in
  if t.config.Config.unmapping || t.config.Config.zeroing then begin
    match
      if t.config.Config.unmapping then covered_pages ~addr ~len:usable
      else None
    with
    | Some (lo, len) ->
      Vmem.decommit (mem t) ~addr:lo ~len;
      Vmem.commit (mem t) ~addr:lo ~len;
      Alloc.Machine.charge t.machine (2 * (cost t).Sim.Cost.syscall);
      if t.config.Config.zeroing then zero_entry t addr usable (Some (lo, len))
    | None -> if t.config.Config.zeroing then zero_entry t addr usable None
  end;
  B.free t.je addr

(* The quarantining path proper: [addr] is known live and not yet
   quarantined. *)
let quarantine_free t ~thread addr =
  let usable = B.usable_size t.je addr in
  log_event t Ring.Quarantine "free" [ ("addr", addr); ("usable", usable) ];
  let e = { Quarantine.addr; usable; unmapped_len = 0; failures = 0 } in
  let covered =
    if t.config.Config.unmapping then covered_pages ~addr ~len:usable
    else None
  in
  if t.config.Config.zeroing then zero_entry t addr usable covered;
  (match covered with
  | Some range -> unmap_entry t e range
  | None -> ());
  Quarantine.push t.quarantine ~thread e;
  (* Unmapped entries are rare and large: flush them to the global
     quarantine at once so the 9x-footprint trigger sees them. *)
  if e.Quarantine.unmapped_len > 0 then
    Quarantine.flush_thread t.quarantine ~thread;
  R.Gauge.set_max t.stats.Stats.Live.peak_quarantine_bytes
    (Quarantine.total_bytes t.quarantine);
  maybe_sweep t

let free_result t ?(thread = 0) addr =
  tick t;
  if not t.config.Config.quarantining then
    if not (B.is_live t.je addr) then Error (Unknown_pointer addr)
    else begin
      count t.stats.Stats.Live.frees_intercepted 1;
      forward_free t addr;
      Ok ()
    end
  else if Quarantine.contains t.quarantine addr then begin
    (* Double free while quarantined: idempotent (Section 3). *)
    count t.stats.Stats.Live.frees_intercepted 1;
    count t.stats.Stats.Live.double_frees 1;
    log_event t Ring.Quarantine "double-free" [ ("addr", addr) ];
    Error (Double_free addr)
  end
  else if not (B.is_live t.je addr) then Error (Unknown_pointer addr)
  else begin
    count t.stats.Stats.Live.frees_intercepted 1;
    quarantine_free t ~thread addr;
    Ok ()
  end

let free t ?(thread = 0) addr =
  match free_result t ~thread addr with
  | Ok () | Error (Double_free _) -> ()
  | Error (Unknown_pointer _) ->
    invalid_arg (Printf.sprintf "Instance.free: unknown pointer %#x" addr)
  | Error Size_overflow -> assert false

(* calloc/realloc complete the drop-in allocator API. realloc frees
   through the quarantine like any other free: the old range stays
   protected until sweeps prove it safe. *)

let calloc_result t count size =
  assert (count >= 0 && size >= 0);
  (* Reject requests whose total size overflows, like a real allocator:
     returning a short block for [count * size] bytes would hand the
     program silently truncated memory. *)
  if size <> 0 && count > max_int / size then Error Size_overflow
  else
    (* The backend already serves zeroed memory. *)
    Ok (malloc t (count * size))

let realloc_result t ?(thread = 0) addr size =
  if addr = 0 then Ok (malloc t size)
  else if t.config.Config.quarantining && Quarantine.contains t.quarantine addr
  then Error (Double_free addr)
  else if not (B.is_live t.je addr) then Error (Unknown_pointer addr)
  else if size = 0 then
    match free_result t ~thread addr with
    | Ok () -> Ok 0
    | Error e -> Error e
  else begin
    let old_usable = B.usable_size t.je addr in
    let fresh = malloc t size in
    let copy = min size old_usable in
    let m = mem t in
    let rec copy_words off =
      if off + word <= copy then begin
        Vmem.store m (fresh + off) (Vmem.load m (addr + off));
        copy_words (off + word)
      end
    in
    copy_words 0;
    (* Partial trailing word: usable sizes are word-multiples on both
       sides, so a masked word-granularity read-modify-write stays inside
       both blocks while copying only the surviving tail bytes. *)
    let full = copy - (copy mod word) in
    let tail = copy - full in
    if tail > 0 then begin
      let mask = (1 lsl (8 * tail)) - 1 in
      let old_w = Vmem.load m (addr + full) in
      let cur = Vmem.load m (fresh + full) in
      Vmem.store m (fresh + full) ((old_w land mask) lor (cur land (lnot mask)))
    end;
    Alloc.Machine.charge_bytes t.machine (cost t).Sim.Cost.touch_per_byte copy;
    free t ~thread addr;
    Ok fresh
  end

let is_quarantined t addr = Quarantine.contains t.quarantine addr

let note_prevented_uaf t = count t.stats.Stats.Live.uaf_prevented 1

let backend t = t.je
let live_bytes t = B.live_bytes t.je
let machine t = t.machine
let config t = t.config
let stats t = Stats.snapshot t.stats
let reset_stats t = Stats.reset t.stats
let registry t = t.registry
let trace_ring t = t.ring
let quarantine_bytes t = Quarantine.total_bytes t.quarantine
let quarantine_entries t = Quarantine.entry_count t.quarantine
let shadow_resident_bytes t = Shadow.shadow_bytes t.shadow
let sweep_in_progress t = t.sweep <> None
let quarantine t = t.quarantine
let shadow t = t.shadow

let iter_unmapped_pages t f =
  Hashtbl.iter (fun page_index () -> f (page_index * page)) t.unmapped_pages

let set_post_sweep_hook t hook = t.post_sweep_hook <- Some hook
let set_sync_observer t f = t.sync_observer <- Some f
let clear_sync_observer t = t.sync_observer <- None

let force_sweep t =
  if t.sweep <> None || not t.config.Config.quarantining then false
  else begin
    start_sweep t;
    true
  end

(* ------------------------------------------------------------------ *)
(* The sweep pipeline API                                              *)

module Sweep = struct
  let plan t = Pipeline.plan_of_config t.config
  let run = run_pipeline
  let last t = t.last_outcome
end
end

include Make (Alloc.Jemalloc)

let jemalloc = backend
