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
  | Mark_completed of { sweep : int; scanned_bytes : int }
  | Stw_fence of { sweep : int }
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

(* [f w] for every word [w] of one page frame in [heap_base, limit), in
   page order. Most pages hold no such word, so [f] rarely runs. *)
let iter_hits bytes ~limit f =
  let words = Bytes.length bytes lsr 3 and lo = Layout.heap_base in
  for k = 0 to words - 1 do
    let w = unsafe_word bytes k in
    if w >= lo && w < limit then f w
  done

let no_targets : int array = [||]

(* All words of a page that lie in the heap *address range*, deduped and
   sorted. The wilderness is deliberately not consulted here: it grows
   between sweeps, so a summary filtered by today's wilderness would miss
   pointers into tomorrow's heap. Filtering happens at mark time. Two
   passes (count, then fill): the common page has no hits and returns
   the shared empty array. *)
let summarize_page bytes =
  let limit = Layout.heap_limit in
  let n = ref 0 in
  iter_hits bytes ~limit (fun _ -> incr n);
  if !n = 0 then no_targets
  else begin
    let hits = Array.make !n 0 and i = ref 0 in
    iter_hits bytes ~limit (fun w ->
        Array.unsafe_set hits !i w;
        incr i);
    Array.sort Int.compare hits;
    (* Drop repeats in place: [hits.(0 .. !n-1)] holds the distinct
       words seen so far. *)
    n := 0;
    Array.iteri
      (fun i w ->
        if i = 0 || w <> hits.(!n - 1) then begin
          hits.(!n) <- w;
          incr n
        end)
      hits;
    if !n = Array.length hits then hits else Array.sub hits 0 !n
  end

module Make (B : Alloc.Backend.S) = struct
  type backend = B.t

let page = Vmem.page_size
let word = Vmem.word_size

module R = Obs.Registry
module Ring = Obs.Trace_ring

type sweep_state = {
  entries : Quarantine.entry list;
  completion : int;
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
   generation of the last sweep that captured or replayed the summary:
   the summary is coherent iff the page's write generation is still
   below it. *)
type page_summary = {
  mutable gen : int;
  targets : int array;
}

(* The summary cache's [absent] entry. No write generation is below 0,
   so a page without a summary is always rescanned; it is never
   mutated. *)
let no_summary = { gen = 0; targets = no_targets }

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

(* The instance's counters and gauges, registered as [ms.<field>]. The
   registry cell is the only copy: exports, figures and referees read
   it by name. *)
type counters = {
  frees_intercepted : R.counter;
  double_frees : R.counter;
  sweeps : R.counter;
  swept_bytes : R.counter;
      (* bytes every marking phase scanned, the stop-the-world dirty
         re-scans included; clean pages replayed from the summary cache
         do not count *)
  stw_rescanned_bytes : R.counter; (* the stop-the-world re-scans' share *)
  sweep_pages_skipped : R.counter; (* incremental: summaries replayed *)
  sweep_pages_rescanned : R.counter; (* incremental: pages rescanned *)
  summary_cache_bytes : R.gauge;
  releases : R.counter;
  released_bytes : R.counter;
  failed_frees : R.counter; (* release attempts blocked by a mark *)
  unmapped_allocations : R.counter;
  unmapped_bytes : R.counter;
  stw_pauses : R.counter;
  stw_cycles : R.counter;
  alloc_pauses : R.counter;
  alloc_pause_cycles : R.counter;
  peak_quarantine_bytes : R.gauge;
}

type t = {
  machine : Alloc.Machine.t;
  je : B.t;
  config : Config.t;
  quarantine : Quarantine.t;
  shadow : Shadow.t;
  registry : R.t;
  ring : Ring.t;
  ms : counters;
  scan_hist : R.histogram; (* per-sweep scanned bytes distribution *)
  alloc_hist : R.histogram; (* malloc request sizes *)
  pause_hist : R.histogram;
      (* mutator-visible pause distribution: STW rescans and allocation
         pauses — the fleet layer aggregates this across tenants *)
  unmapped_pages : (int, unit) Hashtbl.t; (* page index -> () *)
  par : par_telemetry option;
  stage_obs : stage_telemetry;
  summaries : page_summary Page_table.t; (* keyed by page index *)
  mutable sweep : sweep_state option;
  mutable last_decay_tick : int;
  mutable post_sweep_hook : (unit -> unit) option;
  mutable sync_observer : (sweep_event -> unit) option;
      (* matched at each emission site, so no event is built without an
         observer *)
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

let sweep_number t = R.Counter.value t.ms.sweeps

let create ?(config = Config.default) ?(threads = 1) machine =
  let je = B.create ~extra_byte:true machine in
  let registry = R.create () in
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
  let ms =
    let c name = R.counter registry ("ms." ^ name) in
    let g name = R.gauge registry ("ms." ^ name) in
    (* Accesses to quarantined memory are not observed: the counter
       stays registered, at 0, for the export's fixed name set. *)
    ignore (c "uaf_prevented" : R.counter);
    {
      frees_intercepted = c "frees_intercepted";
      double_frees = c "double_frees";
      sweeps = c "sweeps";
      swept_bytes = c "swept_bytes";
      stw_rescanned_bytes = c "stw_rescanned_bytes";
      sweep_pages_skipped = c "sweep_pages_skipped";
      sweep_pages_rescanned = c "sweep_pages_rescanned";
      summary_cache_bytes = g "summary_cache_bytes";
      releases = c "releases";
      released_bytes = c "released_bytes";
      failed_frees = c "failed_frees";
      unmapped_allocations = c "unmapped_allocations";
      unmapped_bytes = c "unmapped_bytes";
      stw_pauses = c "stw_pauses";
      stw_cycles = c "stw_cycles";
      alloc_pauses = c "alloc_pauses";
      alloc_pause_cycles = c "alloc_pause_cycles";
      peak_quarantine_bytes = g "peak_quarantine_bytes";
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
      ms;
      scan_hist = R.histogram registry "ms.sweep_scan_bytes";
      alloc_hist = R.histogram registry "ms.alloc_request_bytes";
      pause_hist = R.histogram registry "ms.sweep_pause_cycles";
      unmapped_pages = Hashtbl.create 1024;
      par;
      stage_obs;
      summaries = Page_table.create ~absent:no_summary;
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
  (match t.sync_observer with
  | Some f -> f (Stage_boundary { sweep; stage; enter = true })
  | None -> ());
  let pending =
    Ring.enter ~now:(now t) Ring.Stage (Pipeline.stage_name stage)
  in
  let items, bytes, cycles, result = f () in
  Ring.exit t.ring pending ~now:(now t) ~bytes
    ~attrs:[ ("sweep", sweep); ("items", items); ("cycles_est", cycles) ]
    ();
  (match t.sync_observer with
  | Some f -> f (Stage_boundary { sweep; stage; enter = false })
  | None -> ());
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

(* The Mark stage over [pages]: [scan] reads each page once, chunk by
   chunk in address order, on the calling domain. The domain count only
   sets the modeled assignment of the chunks to markers. *)
let mark_stage t pages scan =
  let c = cost t in
  in_stage t Pipeline.Mark (fun () ->
      let (_ : unit array), stats =
        Parsweep.map_chunks ~domains:t.config.Config.domains
          ~scan:(fun (ch : Parsweep.chunk) -> Array.iter scan ch.Parsweep.pages)
          (Parsweep.shard pages)
      in
      let bytes = stats.Parsweep.total_bytes in
      ( Array.length pages,
        bytes,
        Sim.Cost.bytes_cost c.Sim.Cost.mark_single_per_byte bytes,
        stats ))

(* The Merge stage over a snapshot of [pages] pages. A single marker has
   no results to combine; the report carries what n markers would pay
   to combine theirs, [merge_per_page] cycles a page. [f] is the work
   the Mark stage left to it. *)
let merge_stage t ~pages ~bytes f =
  in_stage t Pipeline.Merge (fun () ->
      let result = f () in
      (pages, bytes, pages * (cost t).Sim.Cost.merge_per_page, result))

(* Close a marking phase: the [par.*] telemetry of its Mark stage, then
   its span, whose [bytes] carry exactly what the phase charged to
   [swept_bytes] (summing mark + scan spans reproduces the counter).
   Returns the modeled critical path of the parallel mark. *)
let close_mark t pending stats ~bytes ~attrs =
  record_par t stats;
  Ring.exit t.ring pending ~now:(now t) ~bytes ~attrs ();
  Parsweep.critical_path_cycles
    ~single_per_byte:(cost t).Sim.Cost.mark_single_per_byte
    ~bandwidth_per_byte:bandwidth_cycles_per_byte stats

(* Full scan: the Mark stage reads every readable page and marks the
   shadow map as it reads. Returns
   [(scanned_bytes, replayed_words, stage_reports, mark_pipelined)]. *)
let run_full_scan t =
  let pending = Ring.enter ~now:(now t) Ring.Mark "mark-full" in
  Shadow.clear t.shadow;
  let wilderness = B.wilderness t.je and mark = Shadow.mark t.shadow in
  let pages = Vmem.snapshot_readable_pages (mem t) in
  let mark_report, stats =
    mark_stage t pages (fun p -> iter_hits p.Vmem.bytes ~limit:wilderness mark)
  in
  let swept = stats.Parsweep.total_bytes in
  let merge_report, () =
    merge_stage t ~pages:(Array.length pages) ~bytes:swept ignore
  in
  count t.ms.swept_bytes swept;
  let mark_pipelined =
    close_mark t pending stats ~bytes:swept
      ~attrs:[ ("sweep", sweep_number t) ]
  in
  (swept, 0, [ mark_report; merge_report ], mark_pipelined)

(* Drop the summaries of pages that are no longer readable: every
   summary this sweep captured or replayed carries [gen]. *)
let prune_summaries t gen =
  let stale = ref [] in
  Page_table.iter t.summaries (fun i s ->
      if s.gen < gen then stale := i :: !stale);
  List.iter (Page_table.remove t.summaries) !stale

(* What the summary cache holds: a three-word entry per page plus its
   targets. *)
let summary_cache_bytes t =
  let bytes = ref 0 in
  Page_table.iter t.summaries (fun _ s ->
      bytes := !bytes + (3 * word) + (Array.length s.targets * word));
  !bytes

(* Incremental marking: rescan only the pages written (or zeroed,
   decommitted, protected, remapped) since their summary was captured,
   and replay the cached summary for the rest. The Mark stage rescans
   the dirty pages, so only they enter the modeled marker assignment:
   it marks what it finds and writes each page's summary into the
   cache. The Merge stage replays the cached summaries of the clean
   pages. Every counter and gauge is the same at any domain count.
   Returns [(scanned_bytes, replayed_words, stage_reports,
   mark_pipelined)]. *)
let run_incremental t =
  let pending = Ring.enter ~now:(now t) Ring.Mark "mark-incremental" in
  Shadow.clear t.shadow;
  let m = mem t in
  let gen = Vmem.advance_generation m in
  let wilderness = B.wilderness t.je and summaries = t.summaries in
  let mark v = if v < wilderness then Shadow.mark t.shadow v in
  let snapshot = Vmem.snapshot_readable_pages m in
  let dirty (p : Vmem.page) =
    p.Vmem.write_gen >= (Page_table.find summaries (p.Vmem.base / page)).gen
  in
  let rescan =
    Array.make
      (Array.fold_left (fun n p -> if dirty p then n + 1 else n) 0 snapshot)
      Vmem.no_page
  in
  let n = ref 0 in
  Array.iter
    (fun p ->
      if dirty p then begin
        rescan.(!n) <- p;
        incr n
      end)
    snapshot;
  let mark_report, stats =
    mark_stage t rescan (fun p ->
        let targets = summarize_page p.Vmem.bytes in
        Array.iter mark targets;
        Page_table.set summaries (p.Vmem.base / page) { gen; targets })
  in
  let rescanned = stats.Parsweep.total_bytes in
  let pages = Array.length snapshot in
  let merge_report, replayed =
    merge_stage t ~pages ~bytes:rescanned (fun () ->
        let replayed = ref 0 in
        Array.iter
          (fun (p : Vmem.page) ->
            let s = Page_table.find summaries (p.Vmem.base / page) in
            if s.gen < gen then begin
              (* Untouched since capture: the cached targets are exactly
                 what a rescan would find. *)
              Array.iter mark s.targets;
              replayed := !replayed + Array.length s.targets;
              s.gen <- gen
            end)
          snapshot;
        if Page_table.length summaries > pages then prune_summaries t gen;
        count t.ms.swept_bytes rescanned;
        count t.ms.sweep_pages_skipped (pages - Array.length rescan);
        count t.ms.sweep_pages_rescanned (Array.length rescan);
        R.Gauge.set t.ms.summary_cache_bytes (summary_cache_bytes t);
        !replayed)
  in
  let mark_pipelined =
    close_mark t pending stats ~bytes:rescanned
      ~attrs:[ ("sweep", sweep_number t); ("replayed_words", replayed) ]
  in
  ( rescanned + (replayed * word),
    replayed,
    [ mark_report; merge_report ],
    mark_pipelined )

(* The one dispatch on the marking mode: a sweep and a mark-only
   [Sweep.run] both mark through it. *)
let mark t = function
  | Config.Full_scan -> run_full_scan t
  | Config.Incremental -> run_incremental t

(* Audit-only reference marks: build the mark set each strategy would
   produce right now into a scratch shadow, charging no simulated cost
   and mutating no instance state (no generation advance, no summary
   written). [Sanitizer.Invariants] compares the two for equality. *)
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
      let s = Page_table.find t.summaries (base / page) in
      Array.iter mark
        (if write_gen < s.gen then s.targets else summarize_page bytes));
  shadow

let mark_dirty_pages t =
  let swept = ref 0 in
  let wilderness = B.wilderness t.je and mark = Shadow.mark t.shadow in
  Vmem.iter_soft_dirty_pages (mem t) (fun _base bytes ->
      iter_hits bytes ~limit:wilderness mark;
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
  count t.ms.releases 1;
  count t.ms.released_bytes e.Quarantine.usable

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
        count t.ms.failed_frees 1;
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

(* A per-sweep lifecycle event: one zero-length span in the shared ring.
   The per-call ones ([free], [double-free], [unmap]) go through
   [Ring.event], which builds no attribute list. *)
let log_event t phase label attrs =
  Ring.emit t.ring ~phase ~label ~t_start:(now t) ~t_end:(now t) ~attrs ()

(* The outcome of a finished sweep whose stages reported [reports]:
   folded into the [sweep.stage.*] telemetry, published as
   [last_outcome] and returned. *)
let publish_outcome t state ~released ~requeued reports =
  let entries = List.length state.entries in
  let sequential_cycles, pipelined_cycles =
    Pipeline.modeled_cycles state.plan ~batches:(batches entries)
      ~mark_pipelined:state.mark_pipelined reports
  in
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
    reports;
  count so.st_seq_cycles sequential_cycles;
  count so.st_pipe_cycles pipelined_cycles;
  count so.st_batches (batches entries);
  count so.st_flush_batches state.flush_batches;
  let o =
    {
      Pipeline.sweep = sweep_number t;
      plan = state.plan;
      scanned_bytes = state.scanned_bytes;
      replayed_words = state.replayed_words;
      entries;
      released;
      requeued;
      flush_batches = state.flush_batches;
      reports;
      sequential_cycles;
      pipelined_cycles;
    }
  in
  t.last_outcome <- Some o;
  o

let finish_sweep t state =
  let plan = state.plan in
  (* Mostly concurrent mode: brief stop-the-world re-scan of the pages
     written during the sweep, so moved dangling pointers are seen. *)
  if t.config.Config.sweeping && plan.Pipeline.stop_the_world then begin
    let c = cost t in
    (match t.sync_observer with
    | Some f -> f (Stw_fence { sweep = sweep_number t })
    | None -> ());
    let pending = Ring.enter ~now:(now t) Ring.Scan "stw-rescan" in
    let dirty_bytes = mark_dirty_pages t in
    (* The re-scan is real marking work: account it with the rest of the
       swept bytes, and separately so pause work stays visible. *)
    count t.ms.swept_bytes dirty_bytes;
    count t.ms.stw_rescanned_bytes dirty_bytes;
    let scan_cycles = Sim.Cost.bytes_cost c.Sim.Cost.sweep_per_byte dirty_bytes in
    let pause =
      c.Sim.Cost.stw_signal + (scan_cycles / (plan.Pipeline.helpers + 1))
    in
    Sim.Clock.stall t.machine.Alloc.Machine.clock pause;
    Sim.Clock.background t.machine.Alloc.Machine.clock scan_cycles;
    count t.ms.stw_pauses 1;
    count t.ms.stw_cycles pause;
    R.Histogram.observe t.pause_hist pause;
    Ring.exit t.ring pending ~now:(now t) ~bytes:dirty_bytes
      ~attrs:[ ("sweep", sweep_number t); ("pause_cycles", pause) ]
      ();
    log_event t Ring.Scan "stw" [ ("cycles", pause) ]
  end;
  let c = cost t in
  let released_before = R.Counter.value t.ms.releases in
  let failed_before = R.Counter.value t.ms.failed_frees in
  let released_bytes_before = R.Counter.value t.ms.released_bytes in
  let pending = Ring.enter ~now:(now t) Ring.Quarantine "release" in
  let release_report, () =
    in_stage t Pipeline.Release (fun () ->
        Alloc.Machine.with_sink t.machine (sweep_sink t) (fun () ->
            release_all t state.entries);
        let entries_n = List.length state.entries in
        let bytes =
          R.Counter.value t.ms.released_bytes - released_bytes_before
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
  let released = R.Counter.value t.ms.releases - released_before in
  let failed = R.Counter.value t.ms.failed_frees - failed_before in
  Ring.exit t.ring pending ~now:(now t)
    ~bytes:(R.Counter.value t.ms.released_bytes - released_bytes_before)
    ~attrs:[ ("sweep", sweep_number t); ("released", released);
             ("failed", failed) ]
    ();
  log_event t Ring.Mark "sweep-finish"
    [ ("sweep", sweep_number t); ("released", released); ("failed", failed) ];
  ignore
    (publish_outcome t state ~released
       ~requeued:(if t.config.Config.keep_failed then failed else 0)
       (state.head_reports @ (release_report :: purge_reports)));
  t.sweep <- None;
  (match t.sync_observer with
  | Some f -> f (Sweep_completed { sweep = sweep_number t })
  | None -> ());
  match t.post_sweep_hook with None -> () | Some hook -> hook ()

let start_sweep_plan t (plan : Pipeline.plan) =
  count t.ms.sweeps 1;
  log_event t Ring.Mark "sweep-start"
    [ ("sweep", sweep_number t);
      ("quarantined_bytes", Quarantine.total_bytes t.quarantine) ];
  (* Batched quarantine flush: drain every thread buffer into the global
     list taking the lock once per [flush_batch] entries, so the lock-in
     below sees the complete set at amortised per-entry cost. *)
  let flush_batches = Quarantine.flush_batch t.quarantine ~batch:flush_batch in
  let entries = Quarantine.lock_in t.quarantine in
  (match t.sync_observer with
  | Some f ->
    f (Sweep_locked { sweep = sweep_number t; entries = List.length entries })
  | None -> ());
  if plan.Pipeline.stop_the_world then Vmem.clear_soft_dirty (mem t);
  (* Bytes the marking phase actually moved through memory; also the
     basis for the DRAM-bandwidth wall-clock floor below. Incremental
     mode reads rescanned pages plus the cached summaries it replays,
     not the whole readable footprint. *)
  let scanned_bytes, replayed_words, head_reports, mark_pipelined =
    if List.mem Pipeline.Mark plan.Pipeline.stages then begin
      let ((scanned, _, _, _) as marked) = mark t plan.Pipeline.mode in
      R.Histogram.observe t.scan_hist scanned;
      marked
    end
    else (0, 0, [], 0)
  in
  (match t.sync_observer with
  | Some f -> f (Mark_completed { sweep = sweep_number t; scanned_bytes })
  | None -> ());
  let c = cost t in
  let busy = Sim.Cost.bytes_cost c.Sim.Cost.sweep_per_byte scanned_bytes in
  (* The release phase charges itself per entry in [release_all]; the
     wall-clock duration below accounts for it via the same estimate. *)
  let release_estimate = List.length entries * c.Sim.Cost.release_per_entry in
  let state completion =
    {
      entries;
      completion;
      plan;
      scanned_bytes;
      replayed_words;
      flush_batches;
      head_reports;
      mark_pipelined;
    }
  in
  match t.config.Config.concurrency with
  | Config.Sequential ->
    Alloc.Machine.charge t.machine busy;
    finish_sweep t (state (now t))
  | Config.Concurrent { helpers; _ } ->
    Sim.Clock.background t.machine.Alloc.Machine.clock busy;
    let parallel = (busy + release_estimate) / (helpers + 1) in
    let floor_cycles =
      Sim.Cost.bytes_cost bandwidth_cycles_per_byte scanned_bytes
    in
    t.sweep <- Some (state (now t + max parallel floor_cycles))

let start_sweep t = start_sweep_plan t (Pipeline.plan_of_config t.config)

(* Execute one complete sweep cycle under [plan], synchronously, and
   return its outcome — the [Sweep.run] entry point. A plan without a
   Release stage (see {!Pipeline.mark_only}) runs just the Mark/Merge
   stages: no quarantine flush or lock-in, no release decisions, no
   sweep counted and no simulated cost charged. *)
let run_pipeline t (plan : Pipeline.plan) =
  if not (List.mem Pipeline.Release plan.Pipeline.stages) then begin
    let scanned_bytes, replayed_words, head_reports, mark_pipelined =
      mark t plan.Pipeline.mode
    in
    publish_outcome t
      {
        entries = [];
        completion = now t;
        plan;
        scanned_bytes;
        replayed_words;
        flush_batches = 0;
        head_reports;
        mark_pipelined;
      }
      ~released:0 ~requeued:0 head_reports
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
      count t.ms.alloc_pauses 1;
      count t.ms.alloc_pause_cycles wait;
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
  Ring.event t.ring Ring.Quarantine "unmap" ~now:(now t) ~attrs:2 "addr" lo
    "len" len;
  count t.ms.unmapped_allocations 1;
  count t.ms.unmapped_bytes len

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
  Ring.event t.ring Ring.Quarantine "free" ~now:(now t) ~attrs:2 "addr" addr
    "usable" usable;
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
  R.Gauge.set_max t.ms.peak_quarantine_bytes
    (Quarantine.total_bytes t.quarantine);
  maybe_sweep t

let free_result t ?(thread = 0) addr =
  tick t;
  if not t.config.Config.quarantining then
    if not (B.is_live t.je addr) then Error (Unknown_pointer addr)
    else begin
      count t.ms.frees_intercepted 1;
      forward_free t addr;
      Ok ()
    end
  else if Quarantine.contains t.quarantine addr then begin
    (* Double free while quarantined: idempotent (Section 3). *)
    count t.ms.frees_intercepted 1;
    count t.ms.double_frees 1;
    Ring.event t.ring Ring.Quarantine "double-free" ~now:(now t) ~attrs:1
      "addr" addr "" 0;
    Error (Double_free addr)
  end
  else if not (B.is_live t.je addr) then Error (Unknown_pointer addr)
  else begin
    count t.ms.frees_intercepted 1;
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

let backend t = t.je
let live_bytes t = B.live_bytes t.je
let machine t = t.machine
let config t = t.config
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
