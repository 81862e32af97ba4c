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

(* MineSweeper instantiated over the Scudo backend (Section 7) and over
   the in-band-metadata dlmalloc model (Section 2 footnote). *)
module Scudo_ms = Minesweeper.Instance.Make (Alloc.Scudo)
module Dl_ms = Minesweeper.Instance.Make (Alloc.Dlmalloc)

(* Scheme names derive from the canonical preset table in
   {!Minesweeper.Config}: one place ties a configuration to a name, and
   one rule suffixes it for every protected stack. *)
let protected_name base config =
  match Minesweeper.Config.preset_name config with
  | Some "default" -> base
  | Some (("mostly" | "incremental" | "incremental-mostly") as preset) ->
    base ^ "-" ^ preset
  | Some _ | None -> base ^ "-variant"

let scheme_name = function
  | Baseline -> "baseline"
  | Mine_sweeper config -> protected_name "minesweeper" config
  | Mark_us -> "markus"
  | Ff_malloc -> "ffmalloc"
  | Cr_count -> "crcount"
  | Dl_baseline -> "dlmalloc"
  | Dl_sweeper config -> protected_name "dlmalloc-minesweeper" config
  | P_sweeper -> "psweeper"
  | Dang_san -> "dangsan"
  | Scudo_baseline -> "scudo"
  | Scudo_sweeper config -> protected_name "scudo-minesweeper" config
  | Pooled _ -> "pooled"

(* The one name table: the CLI and the figures resolve every scheme and
   suite name here. [schemes] go by the name [scheme_name] prints; the
   aliases add the CLI's short spellings and the figures' ablation
   variants, which [scheme_name] prints as "minesweeper-variant". *)
let schemes =
  let open Minesweeper.Config in
  [
    Baseline; Mine_sweeper default; Mine_sweeper mostly_concurrent;
    Mine_sweeper incremental; Mine_sweeper incremental_mostly; Mark_us;
    Ff_malloc; Scudo_baseline; Scudo_sweeper default; Dl_baseline;
    Dl_sweeper default; Cr_count; P_sweeper; Dang_san; Pooled None;
  ]

(* The figures' ablation ladders: each rung is the label a figure
   prints, the scheme name the CLI accepts and the figures' run log
   shows, and the configuration. Both ladders end at the shipping
   default, which the scheme table already names. *)
let optimisation_levels =
  let open Minesweeper.Config in
  [
    ("Unoptimised", "ms-unopt", unoptimised);
    ("+ Zeroing", "ms-zero", plus_zeroing);
    ("+ Unmapping", "ms-unmap", plus_unmapping);
    ("+ Concurrency", "ms-conc", plus_concurrency);
    ("+ Purging", "minesweeper", plus_purging);
  ]

let partial_versions =
  let open Minesweeper.Config in
  [
    ("Base overheads", "ms-partial-base", partial_base);
    ("+ Unmapping + Zeroing", "ms-partial-uz", partial_unmap_zero);
    ("+ Quarantine", "ms-partial-q", partial_quarantine);
    ("+ Concurrency", "ms-partial-c", partial_concurrency);
    ("+ Sweep", "ms-partial-s", partial_sweep);
    ("+ Failed Frees", "minesweeper", partial_full);
  ]

let scheme_aliases =
  let open Minesweeper.Config in
  let ms c = Mine_sweeper c in
  [
    ("ms", ms default); ("mostly", ms mostly_concurrent);
    ("incremental", ms incremental); ("ms-inc", ms incremental);
    ("incremental-mostly", ms incremental_mostly); ("ff", Ff_malloc);
    ("scudo-ms", Scudo_sweeper default); ("dl-ms", Dl_sweeper default);
  ]
  @ List.filter_map
      (fun (_, name, config) ->
        if name = scheme_name (ms config) then None else Some (name, ms config))
      (optimisation_levels @ partial_versions)

let scheme_names = List.map scheme_name schemes @ List.map fst scheme_aliases

let unknown what name names =
  Error
    (Printf.sprintf "unknown %s %S (expected one of: %s)" what name
       (String.concat ", " names))

let scheme_of_name name =
  match List.find_opt (fun s -> scheme_name s = name) schemes with
  | Some s -> Ok s
  | None -> (
    match List.assoc_opt name scheme_aliases with
    | Some s -> Ok s
    | None -> unknown "scheme" name scheme_names)

let suites =
  [
    ("spec2006", Spec2006.all); ("spec2017", Spec2017.all);
    ("mimalloc", Mimalloc_bench.all);
  ]

let find_profile ~suite name =
  match List.assoc_opt suite suites with
  | None -> unknown "suite" suite (List.map fst suites)
  | Some profiles -> (
    match List.find_opt (fun p -> p.Profile.name = name) profiles with
    | Some p -> Ok p
    | None ->
      unknown (suite ^ " benchmark") name
        (List.map (fun p -> p.Profile.name) profiles))

type core =
  | Sweeper of Minesweeper.Instance.t
  | Pool of Alloc.Poolalloc.t
  | Sealed

type t = {
  scheme : string;
  machine : Alloc.Machine.t;
  core : core;
  obs : Obs.Registry.t option;
  trace : Obs.Trace_ring.t option;
  malloc : int -> int;
  malloc_site : (site:int -> int -> int) option;
      (** site-attributed allocation, for [Pooled] only: every other
          scheme ignores the site and is served through [malloc] *)
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

(* An unprotected allocator stack over any backend: decay purging on the
   background sink, no retention. [cold] is the share of served
   allocations paying the cold-reuse penalty. *)
let plain (module B : Alloc.Backend.S) ~cold ~scheme machine =
  let a = B.create machine in
  let last_decay = ref 0 in
  {
    scheme;
    machine;
    core = Sealed;
    obs = None;
    trace = None;
    malloc = B.malloc a;
    malloc_site = None;
    free = (fun ~thread:_ addr -> B.free a addr);
    tick =
      (fun () ->
        let n = Alloc.Machine.now machine in
        if n - !last_decay >= decay_interval then begin
          last_decay := n;
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              B.purge_tick a)
        end);
    drain = (fun () -> ());
    reclaim =
      (fun () ->
        Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
            B.purge_all a));
    quarantine_bytes = (fun () -> 0);
    live_bytes = (fun () -> B.live_bytes a);
    metadata_bytes = (fun () -> 0);
    cold_penalty = cold_penalty_fn machine cold;
    is_protected_addr = (fun _ -> false);
    tolerates_double_free = false;
    on_pointer_write = no_pointer_tracking;
    sweeps = (fun () -> 0);
    failed_frees = (fun () -> 0);
  }

(* MineSweeper over any backend. The instance registers the [ms.],
   [vmem.] and [alloc.] metrics of the whole stack in one registry;
   [core] shows it to the referees where they can read it. *)
let protected (type i) (module I : Minesweeper.Instance.S with type t = i)
    ~(core : i -> core) config ~scheme ~threads machine =
  let ms = I.create ~config ~threads machine in
  (* Each read closure holds its one registry cell, found once here:
     msbench's traced [serve] reads [sweeps] around every malloc and
     free. *)
  let cell name =
    match Obs.Registry.find (I.registry ms) ("ms." ^ name) with
    | Some (Obs.Registry.Counter c) -> fun () -> Obs.Registry.Counter.value c
    | Some (Obs.Registry.Gauge g) -> fun () -> Obs.Registry.Gauge.value g
    | Some _ | None -> invalid_arg ("Harness.protected: no ms." ^ name)
  in
  let summary_cache_bytes = cell "summary_cache_bytes" in
  let quarantining = config.Minesweeper.Config.quarantining in
  {
    scheme;
    machine;
    core = core ms;
    obs = Some (I.registry ms);
    trace = Some (I.trace_ring ms);
    malloc = I.malloc ms;
    malloc_site = None;
    free = (fun ~thread addr -> I.free ms ~thread addr);
    tick = (fun () -> I.tick ms);
    drain = (fun () -> I.drain ms);
    reclaim =
      (fun () ->
        (* Start a sweep even below threshold, then force-finish it:
           the pipeline's release+purge stages hand pages back. *)
        ignore (I.force_sweep ms : bool);
        I.drain ms);
    quarantine_bytes = (fun () -> I.quarantine_bytes ms);
    live_bytes = (fun () -> I.live_bytes ms);
    metadata_bytes =
      (fun () ->
        (* shadow map + out-of-line quarantine bookkeeping + the
           incremental mode's per-page pointer-summary cache *)
        I.shadow_resident_bytes ms
        + (quarantine_entry_overhead * I.quarantine_entries ms)
        + summary_cache_bytes ());
    cold_penalty = cold_penalty_fn machine (if quarantining then 1.0 else 0.0);
    is_protected_addr = I.is_quarantined ms;
    tolerates_double_free = quarantining;
    on_pointer_write = no_pointer_tracking;
    sweeps = cell "sweeps";
    failed_frees = cell "failed_frees";
  }

(* What a stack does where its scheme does nothing: no registry or span
   ring, no background work, nothing retained, protected or tracked, no
   metadata, no sweeps, and the allocation site ignored. The schemes
   built from it state only what differs. *)
let defaults ~scheme machine ~malloc ~free ~live_bytes ~cold =
  {
    scheme;
    machine;
    core = Sealed;
    obs = None;
    trace = None;
    malloc;
    malloc_site = None;
    free = (fun ~thread:_ addr -> free addr);
    tick = ignore;
    drain = ignore;
    reclaim = ignore;
    quarantine_bytes = (fun () -> 0);
    live_bytes;
    metadata_bytes = (fun () -> 0);
    cold_penalty = cold_penalty_fn machine cold;
    is_protected_addr = (fun _ -> false);
    tolerates_double_free = false;
    on_pointer_write = no_pointer_tracking;
    sweeps = (fun () -> 0);
    failed_frees = (fun () -> 0);
  }

let instance t =
  match t.core with
  | Sweeper ms -> ms
  | Pool _ | Sealed ->
    invalid_arg
      ("Harness.instance: " ^ t.scheme ^ " has no MineSweeper instance")

let pool t =
  match t.core with
  | Pool pa -> pa
  | Sweeper _ | Sealed ->
    invalid_arg ("Harness.pool: " ^ t.scheme ^ " has no pool allocator")

let build scheme ~threads machine =
  let name = scheme_name scheme in
  let plain m ~cold = plain m ~cold ~scheme:name machine in
  let protected m ~core config =
    protected m ~core config ~scheme:name ~threads machine
  in
  let sealed _ = Sealed in
  let defaults = defaults ~scheme:name machine in
  match scheme with
  | Baseline -> plain (module Alloc.Jemalloc) ~cold:0.0
  | Scudo_baseline ->
    (* The randomisation pool delays some reuse: a small cold share. *)
    plain (module Alloc.Scudo) ~cold:0.1
  | Dl_baseline -> plain (module Alloc.Dlmalloc) ~cold:0.0
  | Mine_sweeper config ->
    protected (module Minesweeper.Instance)
      ~core:(fun ms -> Sweeper ms)
      config
  | Scudo_sweeper config -> protected (module Scudo_ms) ~core:sealed config
  | Dl_sweeper config -> protected (module Dl_ms) ~core:sealed config
  | Mark_us ->
    let mk = Markus.create machine in
    {
      (defaults ~malloc:(Markus.malloc mk) ~free:(Markus.free mk)
         ~live_bytes:(fun () -> Alloc.Jemalloc.live_bytes (Markus.jemalloc mk))
         ~cold:1.15)
      with
      tick = (fun () -> Markus.tick mk);
      drain = (fun () -> Markus.drain mk);
      reclaim =
        (fun () ->
          Markus.drain mk;
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Jemalloc.purge_all (Markus.jemalloc mk)));
      quarantine_bytes = (fun () -> Markus.quarantine_bytes mk);
      is_protected_addr = Markus.is_quarantined mk;
      tolerates_double_free = true;
      sweeps = (fun () -> Markus.sweeps mk);
      failed_frees = (fun () -> Markus.failed_frees mk);
    }
  | Cr_count ->
    let cr = Ptrtrack.Crcount.create machine in
    {
      (defaults ~malloc:(Ptrtrack.Crcount.malloc cr)
         ~free:(Ptrtrack.Crcount.free cr)
         ~live_bytes:(fun () -> Ptrtrack.Crcount.live_bytes cr) ~cold:0.2)
      with
      quarantine_bytes = (fun () -> Ptrtrack.Crcount.pending_bytes cr);
      metadata_bytes = (fun () -> Ptrtrack.Crcount.metadata_bytes cr);
      is_protected_addr = Ptrtrack.Crcount.is_pending cr;
      tolerates_double_free = true;
      on_pointer_write = Ptrtrack.Crcount.on_pointer_write cr;
    }
  | P_sweeper ->
    let ps = Ptrtrack.Psweeper.create machine in
    {
      (defaults ~malloc:(Ptrtrack.Psweeper.malloc ps)
         ~free:(Ptrtrack.Psweeper.free ps)
         ~live_bytes:(fun () -> Ptrtrack.Psweeper.live_bytes ps) ~cold:0.4)
      with
      tick = (fun () -> Ptrtrack.Psweeper.tick ps);
      drain = (fun () -> Ptrtrack.Psweeper.drain ps);
      reclaim = (fun () -> Ptrtrack.Psweeper.drain ps);
      quarantine_bytes = (fun () -> Ptrtrack.Psweeper.deferred_bytes ps);
      metadata_bytes = (fun () -> Ptrtrack.Psweeper.metadata_bytes ps);
      is_protected_addr = Ptrtrack.Psweeper.is_deferred ps;
      tolerates_double_free = true;
      on_pointer_write = Ptrtrack.Psweeper.on_pointer_write ps;
      sweeps = (fun () -> Ptrtrack.Psweeper.sweeps ps);
    }
  | Dang_san ->
    let ds = Ptrtrack.Dangsan.create machine in
    {
      (defaults ~malloc:(Ptrtrack.Dangsan.malloc ds)
         ~free:(Ptrtrack.Dangsan.free ds)
         ~live_bytes:(fun () -> Ptrtrack.Dangsan.live_bytes ds) ~cold:0.1)
      with
      metadata_bytes = (fun () -> Ptrtrack.Dangsan.metadata_bytes ds);
      on_pointer_write = Ptrtrack.Dangsan.on_pointer_write ds;
    }
  | Ff_malloc ->
    (* Never reuses: nothing is held back, so [reclaim] does nothing. *)
    let ff = Ffmalloc.create machine in
    {
      (defaults ~malloc:(Ffmalloc.malloc ff) ~free:(Ffmalloc.free ff)
         ~live_bytes:(fun () -> Ffmalloc.live_bytes ff) ~cold:0.05)
      with
      is_protected_addr = Ffmalloc.is_freed_address ff;
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
    (* Segregation delays spatial reuse a little ([cold]); far milder
       than a quarantine since pools recycle their own slots
       immediately. *)
    {
      (defaults ~malloc:(Alloc.Poolalloc.malloc pa)
         ~free:(Alloc.Poolalloc.free pa)
         ~live_bytes:(fun () -> Alloc.Poolalloc.live_bytes pa) ~cold:0.05)
      with
      core = Pool pa;
      obs = Some reg;
      malloc_site = Some (Alloc.Poolalloc.malloc_site pa);
      reclaim =
        (fun () ->
          Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () ->
              Alloc.Poolalloc.purge_all pa));
      quarantine_bytes = (fun () -> Alloc.Poolalloc.retired_bytes pa);
    }

let fresh scheme ~threads =
  let machine = Alloc.Machine.create () in
  let t = build scheme ~threads:(max 1 threads) machine in
  Alloc.Machine.map_roots machine;
  t

(* Program text + statics: PSRecord measures whole-process RSS, so every
   run carries the image's constant resident share. *)
let static_rss = 3 * 1024 * 1024

let default_rss_limit = 768 * 1024 * 1024

exception Out_of_memory_budget

let rss t =
  static_rss + Vmem.committed_bytes t.machine.Alloc.Machine.mem
  + t.metadata_bytes ()

let sample_rss t sampler ~limit =
  let rss = rss t in
  Sim.Sampler.record sampler ~now:(Alloc.Machine.now t.machine) ~rss;
  if rss > limit then raise Out_of_memory_budget
