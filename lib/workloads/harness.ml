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

let scheme_aliases =
  let open Minesweeper.Config in
  let ms c = Mine_sweeper c in
  [
    ("ms", ms default); ("mostly", ms mostly_concurrent);
    ("incremental", ms incremental); ("ms-inc", ms incremental);
    ("incremental-mostly", ms incremental_mostly); ("ff", Ff_malloc);
    ("scudo-ms", Scudo_sweeper default); ("dl-ms", Dl_sweeper default);
    ("ms-unopt", ms unoptimised); ("ms-zero", ms plus_zeroing);
    ("ms-unmap", ms plus_unmapping); ("ms-conc", ms plus_concurrency);
    ("ms-partial-base", ms partial_base);
    ("ms-partial-uz", ms partial_unmap_zero);
    ("ms-partial-q", ms partial_quarantine);
    ("ms-partial-c", ms partial_concurrency);
    ("ms-partial-s", ms partial_sweep);
  ]

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
    obs = None;
    trace = None;
    malloc = B.malloc a;
    malloc_site = (fun ~site:_ size -> B.malloc a size);
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
   [vmem.] and [alloc.] metrics of the whole stack in one registry. *)
let protected (module I : Minesweeper.Instance.S) config ~scheme ~threads
    machine =
  let ms = I.create ~config ~threads machine in
  (* [I.stats] is a point-in-time snapshot: take a fresh one at every
     read rather than holding the build-time (all-zero) one. *)
  let stats () = I.stats ms in
  let quarantining = config.Minesweeper.Config.quarantining in
  {
    scheme;
    machine;
    obs = Some (I.registry ms);
    trace = Some (I.trace_ring ms);
    malloc = I.malloc ms;
    malloc_site = (fun ~site:_ size -> I.malloc ms size);
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
        + (stats ()).Minesweeper.Stats.summary_cache_bytes);
    cold_penalty = cold_penalty_fn machine (if quarantining then 1.0 else 0.0);
    is_protected_addr = I.is_quarantined ms;
    tolerates_double_free = quarantining;
    on_pointer_write = no_pointer_tracking;
    sweeps = (fun () -> (stats ()).Minesweeper.Stats.sweeps);
    failed_frees = (fun () -> (stats ()).Minesweeper.Stats.failed_frees);
  }

let build scheme ~threads machine =
  let name = scheme_name scheme in
  let plain m ~cold = plain m ~cold ~scheme:name machine in
  let protected m config = protected m config ~scheme:name ~threads machine in
  match scheme with
  | Baseline -> plain (module Alloc.Jemalloc) ~cold:0.0
  | Scudo_baseline ->
    (* The randomisation pool delays some reuse: a small cold share. *)
    plain (module Alloc.Scudo) ~cold:0.1
  | Dl_baseline -> plain (module Alloc.Dlmalloc) ~cold:0.0
  | Mine_sweeper config -> protected (module Minesweeper.Instance) config
  | Scudo_sweeper config -> protected (module Scudo_ms) config
  | Dl_sweeper config -> protected (module Dl_ms) config
  | Mark_us ->
    let mk = Markus.create machine in
    {
      scheme = name;
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
    }
  | Cr_count ->
    let cr = Ptrtrack.Crcount.create machine in
    {
      scheme = name;
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
    }
  | P_sweeper ->
    let ps = Ptrtrack.Psweeper.create machine in
    {
      scheme = name;
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
    }
  | Dang_san ->
    let ds = Ptrtrack.Dangsan.create machine in
    {
      scheme = name;
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
    }
  | Ff_malloc ->
    let ff = Ffmalloc.create machine in
    {
      scheme = name;
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
      scheme = name;
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
    }
