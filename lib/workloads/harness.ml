type scheme =
  | Baseline
  | Mine_sweeper of Minesweeper.Config.t
  | Mark_us
  | Ff_malloc
  | Scudo_baseline
  | Scudo_sweeper of Minesweeper.Config.t
  | Cr_count
  | P_sweeper
  | Dang_san
  | Dl_baseline
  | Dl_sweeper of Minesweeper.Config.t
  | Pooled of Alloc.Poolalloc.plan option
      (** site-keyed pooling; [None] falls back to one recycling pool
          per site ([identity_plan]) when no siteflow plan is at hand *)

(* MineSweeper instantiated over the Scudo backend (Section 7). *)
module Scudo_ms = Minesweeper.Instance.Make (Alloc.Backends.Scudo_backend)

(* ...and over the in-band-metadata dlmalloc model (Section 2 footnote). *)
module Dl_ms = Minesweeper.Instance.Make (Alloc.Backends.Dlmalloc_backend)

(* Scheme names derive from the canonical preset table in
   {!Minesweeper.Config}: one place ties a configuration to a name. *)
let ms_suffix config =
  match Minesweeper.Config.preset_name config with
  | Some "default" -> ""
  | Some (("mostly" | "incremental" | "incremental-mostly") as preset) ->
    "-" ^ preset
  | Some _ | None -> "-variant"

let scheme_name = function
  | Baseline -> "baseline"
  | Mine_sweeper config -> "minesweeper" ^ ms_suffix config
  | Mark_us -> "markus"
  | Ff_malloc -> "ffmalloc"
  | Cr_count -> "crcount"
  | Dl_baseline -> "dlmalloc"
  | Dl_sweeper config ->
    if Minesweeper.Config.preset_name config = Some "default" then
      "dlmalloc-minesweeper"
    else "dlmalloc-minesweeper-variant"
  | P_sweeper -> "psweeper"
  | Dang_san -> "dangsan"
  | Scudo_baseline -> "scudo"
  | Scudo_sweeper config ->
    if Minesweeper.Config.preset_name config = Some "default" then
      "scudo-minesweeper"
    else "scudo-minesweeper-variant"
  | Pooled _ -> "pooled"

type t = {
  scheme : string;
  machine : Alloc.Machine.t;
  obs : Obs.Registry.t option;
  trace : Obs.Trace_ring.t option;
  malloc : int -> int;
  malloc_site : site:int -> int -> int;
      (** site-attributed allocation; every scheme except [Pooled]
          ignores the site and behaves exactly like [malloc] *)
  free : thread:int -> int -> unit;
  tick : unit -> unit;
  drain : unit -> unit;
  reclaim : unit -> unit;
      (** release memory now: force a sweep/purge cycle regardless of
          thresholds — the lever a machine-wide RSS-pressure policy
          (fleet layer) pulls on a tenant *)
  quarantine_bytes : unit -> int;
      (** bytes currently held back from reuse (quarantine / deferred /
          pending), 0 for schemes with no retention *)
  live_bytes : unit -> int;
  metadata_bytes : unit -> int;
  cold_penalty : int -> int;
  is_protected_addr : int -> bool;
  tolerates_double_free : bool;
  on_pointer_write : slot:int -> old_value:int -> value:int -> unit;
  sweeps : unit -> int;
  failed_frees : unit -> int;
  extra : unit -> (string * float) list;
}

let no_pointer_tracking ~slot:_ ~old_value:_ ~value:_ = ()

let quarantine_entry_overhead = 48 (* bytes of metadata per quarantined entry *)

let cold_penalty_fn machine factor =
  let per_byte = machine.Alloc.Machine.cost.Sim.Cost.cold_alloc_per_byte in
  fun size ->
    if factor = 0.0 then 0
    else int_of_float (factor *. per_byte *. float_of_int (min size 8192))

let decay_interval = 1_000_000

(* Matches the [Profile.make] default: a plan-free [Pooled None] stack
   segregates the same site universe the generators attribute to. *)
let default_pool_sites = 8

let build scheme ~threads machine =
  match scheme with
  | Baseline ->
    let je = Alloc.Jemalloc.create ~extra_byte:false machine in
    let last_decay = ref 0 in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Alloc.Jemalloc.malloc je;
      malloc_site = (fun ~site:_ size -> Alloc.Jemalloc.malloc je size);
      free = (fun ~thread:_ addr -> Alloc.Jemalloc.free je addr);
      tick =
        (fun () ->
          let n = Alloc.Machine.now machine in
          if n - !last_decay >= decay_interval then begin
            last_decay := n;
            Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
                Alloc.Jemalloc.purge_tick je)
          end);
      drain = (fun () -> ());
      reclaim =
        (fun () ->
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Jemalloc.purge_all je));
      quarantine_bytes = (fun () -> 0);
      live_bytes = (fun () -> Alloc.Jemalloc.live_bytes je);
      metadata_bytes = (fun () -> 0);
      cold_penalty = cold_penalty_fn machine 0.0;
      is_protected_addr = (fun _ -> false);
      tolerates_double_free = false;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra = (fun () -> []);
    }
  | Mine_sweeper config ->
    let ms = Minesweeper.Instance.create ~config ~threads machine in
    (* The instance registers [ms.]/[vmem.] metrics at creation; the
       allocator joins the same registry here so one export covers the
       whole stack. *)
    Alloc.Jemalloc.attach_obs
      (Minesweeper.Instance.jemalloc ms)
      (Minesweeper.Instance.registry ms);
    (* [Instance.stats] is a point-in-time snapshot: take a fresh one at
       every read rather than holding the build-time (all-zero) one. *)
    let stats () = Minesweeper.Instance.stats ms in
    let factor = if config.Minesweeper.Config.quarantining then 1.0 else 0.0 in
    {
      scheme = scheme_name scheme;
      machine;
      obs = Some (Minesweeper.Instance.registry ms);
      trace = Some (Minesweeper.Instance.trace_ring ms);
      malloc = Minesweeper.Instance.malloc ms;
      malloc_site = (fun ~site:_ size -> Minesweeper.Instance.malloc ms size);
      free = (fun ~thread addr -> Minesweeper.Instance.free ms ~thread addr);
      tick = (fun () -> Minesweeper.Instance.tick ms);
      drain = (fun () -> Minesweeper.Instance.drain ms);
      reclaim =
        (fun () ->
          (* Start a sweep even below threshold, then force-finish it:
             the pipeline's release+purge stages hand pages back. *)
          ignore (Minesweeper.Instance.force_sweep ms : bool);
          Minesweeper.Instance.drain ms);
      quarantine_bytes = (fun () -> Minesweeper.Instance.quarantine_bytes ms);
      live_bytes =
        (fun () ->
          Alloc.Jemalloc.live_bytes (Minesweeper.Instance.jemalloc ms));
      metadata_bytes =
        (fun () ->
          (* shadow map + out-of-line quarantine bookkeeping + the
             incremental mode's per-page pointer-summary cache *)
          Minesweeper.Instance.shadow_resident_bytes ms
          + (quarantine_entry_overhead * Minesweeper.Instance.quarantine_entries ms)
          + (stats ()).Minesweeper.Stats.summary_cache_bytes);
      cold_penalty = cold_penalty_fn machine factor;
      is_protected_addr = (fun addr -> Minesweeper.Instance.is_quarantined ms addr);
      tolerates_double_free = config.Minesweeper.Config.quarantining;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> (stats ()).Minesweeper.Stats.sweeps);
      failed_frees = (fun () -> (stats ()).Minesweeper.Stats.failed_frees);
      extra =
        (fun () ->
          let s = stats () in
          (* With more than one modeled marker domain, surface the
             par.* telemetry to the experiments layer: the speedup
             figure reads the modeled critical-path cycles from here. *)
          let reg = Minesweeper.Instance.registry ms in
          let par =
            List.filter_map
              (fun name ->
                match Obs.Registry.read reg ("par." ^ name) with
                | Some v -> Some ("par_" ^ name, float_of_int v)
                | None -> None)
              [ "domains"; "chunks"; "imbalance"; "mark_cycles_est";
                "mark_cycles_seq_est" ]
          in
          (* The sweep pipeline's per-stage projections (always
             registered): the pipeline figure reads the modeled
             sequential vs overlapped cycle totals from here. *)
          let pipe =
            List.filter_map
              (fun name ->
                match Obs.Registry.read reg ("sweep.stage." ^ name) with
                | Some v -> Some ("pipe_" ^ name, float_of_int v)
                | None -> None)
              [ "mark_cycles_est"; "merge_cycles_est"; "release_cycles_est";
                "purge_cycles_est"; "seq_cycles_est"; "pipeline_cycles_est";
                "batches"; "flush_batches" ]
          in
          [
            ("double_frees", float_of_int s.Minesweeper.Stats.double_frees);
            ("stw_pauses", float_of_int s.Minesweeper.Stats.stw_pauses);
            ("alloc_pauses", float_of_int s.Minesweeper.Stats.alloc_pauses);
            ("unmapped", float_of_int s.Minesweeper.Stats.unmapped_allocations);
            ("swept_bytes", float_of_int s.Minesweeper.Stats.swept_bytes);
            ("stw_rescanned_bytes",
             float_of_int s.Minesweeper.Stats.stw_rescanned_bytes);
            ("pages_skipped",
             float_of_int s.Minesweeper.Stats.sweep_pages_skipped);
            ("pages_rescanned",
             float_of_int s.Minesweeper.Stats.sweep_pages_rescanned);
            ("summary_cache_bytes",
             float_of_int s.Minesweeper.Stats.summary_cache_bytes);
          ]
          @ par @ pipe);
    }
  | Mark_us ->
    let mk = Markus.create machine in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Markus.malloc mk;
      malloc_site = (fun ~site:_ size -> Markus.malloc mk size);
      free = (fun ~thread:_ addr -> Markus.free mk addr);
      tick = (fun () -> Markus.tick mk);
      drain = (fun () -> Markus.drain mk);
      reclaim =
        (fun () ->
          Markus.drain mk;
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Jemalloc.purge_all (Markus.jemalloc mk)));
      quarantine_bytes = (fun () -> Markus.quarantine_bytes mk);
      live_bytes = (fun () -> Alloc.Jemalloc.live_bytes (Markus.jemalloc mk));
      metadata_bytes = (fun () -> 0);
      cold_penalty = cold_penalty_fn machine 1.15;
      is_protected_addr = (fun addr -> Markus.is_quarantined mk addr);
      tolerates_double_free = true;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> Markus.sweeps mk);
      failed_frees = (fun () -> Markus.failed_frees mk);
      extra =
        (fun () ->
          [ ("visited_bytes", float_of_int (Markus.marked_visited_bytes mk)) ]);
    }
  | Scudo_baseline ->
    let sc = Alloc.Scudo.create machine in
    let last_decay = ref 0 in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Alloc.Scudo.malloc sc;
      malloc_site = (fun ~site:_ size -> Alloc.Scudo.malloc sc size);
      free = (fun ~thread:_ addr -> Alloc.Scudo.free sc addr);
      tick =
        (fun () ->
          let n = Alloc.Machine.now machine in
          if n - !last_decay >= decay_interval then begin
            last_decay := n;
            Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
                Alloc.Scudo.purge_tick sc)
          end);
      drain = (fun () -> ());
      reclaim =
        (fun () ->
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Scudo.purge_all sc));
      quarantine_bytes = (fun () -> 0);
      live_bytes = (fun () -> Alloc.Scudo.live_bytes sc);
      metadata_bytes = (fun () -> 0);
      (* The randomisation pool delays some reuse: a small cold share. *)
      cold_penalty = cold_penalty_fn machine 0.1;
      is_protected_addr = (fun _ -> false);
      tolerates_double_free = false;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra =
        (fun () -> [ ("pool", float_of_int (Alloc.Scudo.pool_size sc)) ]);
    }
  | Scudo_sweeper config ->
    let ms = Scudo_ms.create ~config ~threads machine in
    let stats () = Scudo_ms.stats ms in
    let factor = if config.Minesweeper.Config.quarantining then 1.0 else 0.0 in
    {
      scheme = scheme_name scheme;
      machine;
      obs = Some (Scudo_ms.registry ms);
      trace = Some (Scudo_ms.trace_ring ms);
      malloc = Scudo_ms.malloc ms;
      malloc_site = (fun ~site:_ size -> Scudo_ms.malloc ms size);
      free = (fun ~thread addr -> Scudo_ms.free ms ~thread addr);
      tick = (fun () -> Scudo_ms.tick ms);
      drain = (fun () -> Scudo_ms.drain ms);
      reclaim =
        (fun () ->
          ignore (Scudo_ms.force_sweep ms : bool);
          Scudo_ms.drain ms);
      quarantine_bytes = (fun () -> Scudo_ms.quarantine_bytes ms);
      live_bytes = (fun () -> Scudo_ms.live_bytes ms);
      metadata_bytes =
        (fun () ->
          Scudo_ms.shadow_resident_bytes ms
          + (quarantine_entry_overhead * Scudo_ms.quarantine_entries ms));
      cold_penalty = cold_penalty_fn machine factor;
      is_protected_addr = (fun addr -> Scudo_ms.is_quarantined ms addr);
      tolerates_double_free = config.Minesweeper.Config.quarantining;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> (stats ()).Minesweeper.Stats.sweeps);
      failed_frees = (fun () -> (stats ()).Minesweeper.Stats.failed_frees);
      extra = (fun () -> []);
    }
  | Dl_baseline ->
    let dl = Alloc.Dlmalloc.create machine in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Alloc.Dlmalloc.malloc dl;
      malloc_site = (fun ~site:_ size -> Alloc.Dlmalloc.malloc dl size);
      free = (fun ~thread:_ addr -> Alloc.Dlmalloc.free dl addr);
      tick = (fun () -> ());
      drain = (fun () -> ());
      reclaim =
        (fun () ->
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Dlmalloc.purge_all dl));
      quarantine_bytes = (fun () -> 0);
      live_bytes = (fun () -> Alloc.Dlmalloc.live_bytes dl);
      metadata_bytes = (fun () -> 0) (* metadata lives in-band *);
      cold_penalty = cold_penalty_fn machine 0.0;
      is_protected_addr = (fun _ -> false);
      tolerates_double_free = false;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra =
        (fun () ->
          [
            ("bin_integrity",
             if Alloc.Dlmalloc.check_bin_integrity dl then 1.0 else 0.0);
          ]);
    }
  | Dl_sweeper config ->
    let ms = Dl_ms.create ~config ~threads machine in
    let stats () = Dl_ms.stats ms in
    {
      scheme = scheme_name scheme;
      machine;
      obs = Some (Dl_ms.registry ms);
      trace = Some (Dl_ms.trace_ring ms);
      malloc = Dl_ms.malloc ms;
      malloc_site = (fun ~site:_ size -> Dl_ms.malloc ms size);
      free = (fun ~thread addr -> Dl_ms.free ms ~thread addr);
      tick = (fun () -> Dl_ms.tick ms);
      drain = (fun () -> Dl_ms.drain ms);
      reclaim =
        (fun () ->
          ignore (Dl_ms.force_sweep ms : bool);
          Dl_ms.drain ms);
      quarantine_bytes = (fun () -> Dl_ms.quarantine_bytes ms);
      live_bytes = (fun () -> Dl_ms.live_bytes ms);
      metadata_bytes =
        (fun () ->
          Dl_ms.shadow_resident_bytes ms
          + (quarantine_entry_overhead * Dl_ms.quarantine_entries ms));
      cold_penalty = cold_penalty_fn machine 1.0;
      is_protected_addr = (fun addr -> Dl_ms.is_quarantined ms addr);
      tolerates_double_free = config.Minesweeper.Config.quarantining;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> (stats ()).Minesweeper.Stats.sweeps);
      failed_frees = (fun () -> (stats ()).Minesweeper.Stats.failed_frees);
      extra = (fun () -> []);
    }
  | Cr_count ->
    let cr = Ptrtrack.Crcount.create machine in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Ptrtrack.Crcount.malloc cr;
      malloc_site = (fun ~site:_ size -> Ptrtrack.Crcount.malloc cr size);
      free = (fun ~thread:_ addr -> Ptrtrack.Crcount.free cr addr);
      tick = (fun () -> ());
      drain = (fun () -> ());
      reclaim = (fun () -> ());
      quarantine_bytes = (fun () -> Ptrtrack.Crcount.pending_bytes cr);
      live_bytes = (fun () -> Ptrtrack.Crcount.live_bytes cr);
      metadata_bytes = (fun () -> Ptrtrack.Crcount.metadata_bytes cr);
      cold_penalty = cold_penalty_fn machine 0.2;
      is_protected_addr = (fun addr -> Ptrtrack.Crcount.is_pending cr addr);
      tolerates_double_free = true;
      on_pointer_write =
        (fun ~slot ~old_value ~value ->
          Ptrtrack.Crcount.on_pointer_write cr ~slot ~old_value ~value);
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra =
        (fun () ->
          [ ("pending_bytes", float_of_int (Ptrtrack.Crcount.pending_bytes cr)) ]);
    }
  | P_sweeper ->
    let ps = Ptrtrack.Psweeper.create machine in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Ptrtrack.Psweeper.malloc ps;
      malloc_site = (fun ~site:_ size -> Ptrtrack.Psweeper.malloc ps size);
      free = (fun ~thread:_ addr -> Ptrtrack.Psweeper.free ps addr);
      tick = (fun () -> Ptrtrack.Psweeper.tick ps);
      drain = (fun () -> Ptrtrack.Psweeper.drain ps);
      reclaim = (fun () -> Ptrtrack.Psweeper.drain ps);
      quarantine_bytes = (fun () -> Ptrtrack.Psweeper.deferred_bytes ps);
      live_bytes = (fun () -> Ptrtrack.Psweeper.live_bytes ps);
      metadata_bytes = (fun () -> Ptrtrack.Psweeper.metadata_bytes ps);
      cold_penalty = cold_penalty_fn machine 0.4;
      is_protected_addr = (fun addr -> Ptrtrack.Psweeper.is_deferred ps addr);
      tolerates_double_free = true;
      on_pointer_write =
        (fun ~slot ~old_value ~value ->
          Ptrtrack.Psweeper.on_pointer_write ps ~slot ~old_value ~value);
      sweeps = (fun () -> Ptrtrack.Psweeper.sweeps ps);
      failed_frees = (fun () -> 0);
      extra =
        (fun () ->
          [
            ("deferred_bytes",
             float_of_int (Ptrtrack.Psweeper.deferred_bytes ps));
          ]);
    }
  | Dang_san ->
    let ds = Ptrtrack.Dangsan.create machine in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Ptrtrack.Dangsan.malloc ds;
      malloc_site = (fun ~site:_ size -> Ptrtrack.Dangsan.malloc ds size);
      free = (fun ~thread:_ addr -> Ptrtrack.Dangsan.free ds addr);
      tick = (fun () -> ());
      drain = (fun () -> ());
      reclaim = (fun () -> ());
      quarantine_bytes = (fun () -> 0);
      live_bytes = (fun () -> Ptrtrack.Dangsan.live_bytes ds);
      metadata_bytes = (fun () -> Ptrtrack.Dangsan.metadata_bytes ds);
      cold_penalty = cold_penalty_fn machine 0.1;
      is_protected_addr = (fun _ -> false);
      tolerates_double_free = false;
      on_pointer_write =
        (fun ~slot ~old_value ~value ->
          Ptrtrack.Dangsan.on_pointer_write ds ~slot ~old_value ~value);
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra =
        (fun () ->
          [ ("log_entries", float_of_int (Ptrtrack.Dangsan.log_entries ds)) ]);
    }
  | Ff_malloc ->
    let ff = Ffmalloc.create machine in
    {
      scheme = scheme_name scheme;
      machine;
      obs = None;
      trace = None;
      malloc = Ffmalloc.malloc ff;
      malloc_site = (fun ~site:_ size -> Ffmalloc.malloc ff size);
      free = (fun ~thread:_ addr -> Ffmalloc.free ff addr);
      tick = (fun () -> ());
      drain = (fun () -> ());
      reclaim = (fun () -> ()) (* never reuses: nothing held back to purge *);
      quarantine_bytes = (fun () -> 0);
      live_bytes = (fun () -> Ffmalloc.live_bytes ff);
      metadata_bytes = (fun () -> 0);
      cold_penalty = cold_penalty_fn machine 0.05;
      is_protected_addr = (fun addr -> Ffmalloc.is_freed_address ff addr);
      tolerates_double_free = false;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra =
        (fun () ->
          [ ("va_consumed", float_of_int (Ffmalloc.va_consumed ff)) ]);
    }
  | Pooled plan ->
    let plan =
      match plan with
      | Some p -> p
      | None -> Alloc.Poolalloc.identity_plan ~sites:default_pool_sites
    in
    let pa = Alloc.Poolalloc.create ~plan machine in
    let reg = Obs.Registry.create () in
    Alloc.Poolalloc.attach_obs pa reg;
    {
      scheme = scheme_name scheme;
      machine;
      obs = Some reg;
      trace = None;
      malloc = Alloc.Poolalloc.malloc pa;
      malloc_site =
        (fun ~site size -> Alloc.Poolalloc.malloc_site pa ~site size);
      free = (fun ~thread:_ addr -> Alloc.Poolalloc.free pa addr);
      tick = (fun () -> ());
      drain = (fun () -> ());
      reclaim =
        (fun () ->
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Poolalloc.purge_all pa));
      quarantine_bytes = (fun () -> Alloc.Poolalloc.retired_bytes pa);
      live_bytes = (fun () -> Alloc.Poolalloc.live_bytes pa);
      metadata_bytes = (fun () -> 0);
      (* Segregation delays spatial reuse a little; far milder than a
         quarantine since pools recycle their own slots immediately. *)
      cold_penalty = cold_penalty_fn machine 0.05;
      is_protected_addr = (fun _ -> false);
      tolerates_double_free = false;
      on_pointer_write = no_pointer_tracking;
      sweeps = (fun () -> 0);
      failed_frees = (fun () -> 0);
      extra =
        (fun () ->
          [
            ("pools",
             float_of_int (Alloc.Poolalloc.plan pa).Alloc.Poolalloc.pools);
            ("footprint_bytes",
             float_of_int (Alloc.Poolalloc.footprint_bytes pa));
            ("retired_bytes",
             float_of_int (Alloc.Poolalloc.retired_bytes pa));
          ]);
    }
