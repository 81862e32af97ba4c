(* Multi-tenant fleet simulation: N server instances, one machine, one
   shared physical-page budget. See fleet.mli and DESIGN §15.

   Every tenant owns a full stack (its own Alloc.Machine, so its own
   address space and clock); the machine layer couples them three ways:

   - scheduling: tenant steps (one served request each) interleave in a
     deterministic order, so the fleet makes progress as one machine;
   - interference: stall cycles (STW rescans, allocation pauses) and a
     share of background cycles (sweep marking competing for DRAM
     bandwidth) that one tenant incurs are charged to every neighbour
     inside its next request's measurement window;
   - memory: the sum of committed bytes across tenant address spaces is
     held under a physical budget by a reclaim-then-kill pressure
     policy, exactly like the kernel's direct reclaim / OOM killer. *)

module R = Obs.Registry

type scheduler =
  | Round_robin
  | Priority

type purge_order =
  | Largest_quarantine
  | Round_robin_purge

let scheduler_name = function
  | Round_robin -> "round-robin"
  | Priority -> "priority"

let scheduler_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "priority" -> Some Priority
  | _ -> None

let purge_order_name = function
  | Largest_quarantine -> "largest-quarantine"
  | Round_robin_purge -> "round-robin"

let purge_order_of_string = function
  | "largest-quarantine" | "largest" -> Some Largest_quarantine
  | "round-robin" | "rr" -> Some Round_robin_purge
  | _ -> None

type tenant_spec = {
  tname : string;
  profile : Workloads.Server.profile;
  scheme : Workloads.Harness.scheme;
  weight : int;
  quarantine_budget : int;
}

let tenant ?(weight = 1) ?(quarantine_budget = 0) ?name profile scheme =
  {
    tname =
      (match name with
      | Some n -> n
      | None -> profile.Workloads.Server.name);
    profile;
    scheme;
    weight = max 1 weight;
    quarantine_budget = max 0 quarantine_budget;
  }

let default_budget = 192 * 1024 * 1024

type config = {
  budget : int;
  scheduler : scheduler;
  purge_order : purge_order;
}

let config ?(budget = default_budget) ?(scheduler = Round_robin)
    ?(purge_order = Largest_quarantine) () =
  { budget = max 1 budget; scheduler; purge_order }

(* Interference, per mille of a tenant's new cycles charged to each
   neighbour: all of its stall (an STW pause fences the shared machine)
   and a quarter of its background sweep work (marking saturates a share
   of DRAM bandwidth). *)
let stall_share_pm = 1000
let bg_share_pm = 250

type tenant_result = {
  name : string;
  scheme : string;
  server : Workloads.Server.result;
  injected_stall_cycles : int;
  reclaims : int;
  quarantine_trims : int;
  killed : bool;
}

type result = {
  budget : int;
  scheduler : scheduler;
  purge_order : purge_order;
  tenants : tenant_result list;
  steps : int;
  committed_peak : int;
  committed_peak_raw : int;
  overshoot : int;
  pressure_events : int;
  total_reclaims : int;
  oom_kills : int;
  agg_latency : Workloads.Server.quantiles;
  agg_stall : Workloads.Server.quantiles;
  agg_pause : Workloads.Server.quantiles;
  registry : R.t;
}

module Machine = struct
  type tenant = {
    spec : tenant_spec;
    index : int;
    machine : Alloc.Machine.t;
    stack : Workloads.Harness.t;
    session : Workloads.Server.session;
    mutable alive : bool; (* still scheduled: not finished, not killed *)
    mutable killed : bool;
    mutable pending_stall : int; (* neighbour interference not yet served *)
    mutable consumed_stall : int; (* injected during the current step *)
    mutable injected_total : int;
    mutable reclaims : int;
    mutable quarantine_trims : int;
    mutable last_stalled : int;
    mutable last_bg : int;
  }

  type t = {
    cfg : config;
    tenants : tenant array;
    reg : R.t;
    c_steps : R.counter;
    c_pressure : R.counter;
    c_reclaims : R.counter;
    c_trims : R.counter;
    c_injected : R.counter;
    c_oom_kills : R.counter;
    g_peak : R.gauge;
    g_peak_raw : R.gauge;
    mutable purge_cursor : int; (* next start index for round-robin purge *)
    mutable ran : bool;
  }

  (* Physical pages only: simulated metadata (shadow maps, quarantine
     entries) lives outside the paged address spaces and is charged to
     per-tenant RSS reports, not to the machine budget. Killed tenants'
     pages are back with the OS, so they leave the sum. *)
  let committed_bytes t =
    Array.fold_left
      (fun acc tn ->
        if tn.killed then acc
        else acc + Vmem.committed_bytes tn.machine.Alloc.Machine.mem)
      0 t.tenants

  let registry t = t.reg

  let create ?seed (cfg : config) specs =
    if specs = [] then invalid_arg "Fleet.Machine.create: no tenants";
    let base_seed = Option.value seed ~default:9100 in
    let reg = R.create () in
    let tenants =
      Array.of_list
        (List.mapi
           (fun i (spec : tenant_spec) ->
             let machine = Alloc.Machine.create () in
             let stack =
               Workloads.Harness.build spec.scheme ~threads:1 machine
             in
             let tseed = Sim.Rng.split_seed ~seed:base_seed ~index:i in
             (* Per-session OOM limits are disabled: the machine budget
                (enforce_budget below) is the only memory authority, and
                it reclaims before it kills. *)
             let session =
               Workloads.Server.start ~rss_limit:max_int ~seed:tseed
                 spec.profile stack
             in
             {
               spec;
               index = i;
               machine;
               stack;
               session;
               alive = true;
               killed = false;
               pending_stall = 0;
               consumed_stall = 0;
               injected_total = 0;
               reclaims = 0;
               quarantine_trims = 0;
               last_stalled = 0;
               last_bg = 0;
             })
           specs)
    in
    let t =
      {
        cfg;
        tenants;
        reg;
        c_steps = R.counter reg "fleet.steps";
        c_pressure = R.counter reg "fleet.pressure_events";
        c_reclaims = R.counter reg "fleet.reclaims";
        c_trims = R.counter reg "fleet.quarantine_trims";
        c_injected = R.counter reg "fleet.injected_stall_cycles";
        c_oom_kills = R.counter reg "fleet.oom_kills";
        g_peak = R.gauge reg "fleet.committed_peak";
        g_peak_raw = R.gauge reg "fleet.committed_peak_raw";
        purge_cursor = 0;
        ran = false;
      }
    in
    R.derive_gauge reg "fleet.committed_bytes" (fun () -> committed_bytes t);
    R.derive_gauge reg "fleet.budget_bytes" (fun () -> cfg.budget);
    R.derive_gauge reg "fleet.tenants" (fun () -> Array.length tenants);
    R.derive_gauge reg "fleet.wall_cycles" (fun () ->
        Array.fold_left
          (fun acc tn ->
            max acc (Sim.Clock.wall tn.machine.Alloc.Machine.clock))
          0 t.tenants);
    Array.iter
      (fun tn ->
        (* Interference consumption: the session pulls whatever neighbour
           stall accumulated since its last request and pays it inside
           the request window. *)
        Workloads.Server.set_external_stall tn.session (fun () ->
            let n = tn.pending_stall in
            tn.pending_stall <- 0;
            tn.consumed_stall <- tn.consumed_stall + n;
            tn.injected_total <- tn.injected_total + n;
            R.Counter.incr t.c_injected n;
            n);
        (* Within-step budget watermark: every page commit anywhere on
           the machine updates the raw peak, finer than the step-boundary
           enforcement below can see. *)
        Vmem.set_commit_observer tn.machine.Alloc.Machine.mem
          (fun ~addr:_ ~len:_ -> R.Gauge.set_max t.g_peak_raw (committed_bytes t)))
      tenants;
    t

  (* -- pressure policy ---------------------------------------------- *)

  let reclaim_tenant t tn =
    tn.reclaims <- tn.reclaims + 1;
    R.Counter.incr t.c_reclaims 1;
    tn.stack.Workloads.Harness.reclaim ()

  (* Purge order over the tenants [eligible] admits. Largest-quarantine-
     first is the paper-motivated policy: quarantine is the memory a
     sweep can actually hand back, so pressure goes where the reclaimable
     bytes are. Round-robin rotates a cursor so pressure cost is spread
     evenly regardless of who caused it. Both are deterministic (explicit
     tie-break on index). *)
  let purge_sequence t eligible =
    let alive = Array.to_list t.tenants |> List.filter eligible in
    match t.cfg.purge_order with
    | Largest_quarantine ->
      List.stable_sort
        (fun a b ->
          let qa = a.stack.Workloads.Harness.quarantine_bytes () in
          let qb = b.stack.Workloads.Harness.quarantine_bytes () in
          if qa <> qb then compare qb qa else compare a.index b.index)
        alive
    | Round_robin_purge ->
      let n = Array.length t.tenants in
      let start = t.purge_cursor mod n in
      t.purge_cursor <- t.purge_cursor + 1;
      List.stable_sort
        (fun a b ->
          let pos i = (i - start + n) mod n in
          compare (pos a.index) (pos b.index))
        alive

  let kill_largest t eligible =
    let victim =
      Array.fold_left
        (fun acc tn ->
          if not (eligible tn) then acc
          else
            let rss = Vmem.committed_bytes tn.machine.Alloc.Machine.mem in
            match acc with
            | Some (_, best) when best >= rss -> acc
            | _ -> Some (tn, rss))
        None t.tenants
    in
    match victim with
    | None -> ()
    | Some (tn, _) ->
      tn.alive <- false;
      tn.killed <- true;
      R.Counter.incr t.c_oom_kills 1

  (* Reactive enforcement at quantum boundaries, like kernel reclaim:
     first ask tenants to give memory back (sweep + purge) in policy
     order, then OOM-kill the largest resident tenant until the budget
     holds. Alive tenants go first; when none is left (the step that
     crossed the budget was its tenant's last), the finished ones still
     hold pages and go through the same two stages. Post-enforcement
     committed bytes never exceed the budget. *)
  let enforce_budget t =
    let over () = committed_bytes t > t.cfg.budget in
    let enforce eligible =
      List.iter
        (fun tn -> if over () then reclaim_tenant t tn)
        (purge_sequence t eligible);
      while over () && Array.exists eligible t.tenants do
        kill_largest t eligible
      done
    in
    if over () then begin
      R.Counter.incr t.c_pressure 1;
      enforce (fun tn -> tn.alive);
      if over () then enforce (fun tn -> not tn.killed)
    end;
    R.Gauge.set_max t.g_peak (committed_bytes t);
    R.Gauge.set_max t.g_peak_raw (committed_bytes t)

  (* -- scheduling --------------------------------------------------- *)

  (* One scheduling quantum: serve one request, trim the tenant's own
     quarantine if it overran its budget, propagate the interference the
     step generated, then enforce the machine budget. *)
  let step_tenant t tn =
    if tn.alive then begin
      tn.consumed_stall <- 0;
      let more = Workloads.Server.step tn.session in
      R.Counter.incr t.c_steps 1;
      if not more then tn.alive <- false;
      if
        tn.spec.quarantine_budget > 0
        && tn.stack.Workloads.Harness.quarantine_bytes ()
           > tn.spec.quarantine_budget
      then begin
        tn.quarantine_trims <- tn.quarantine_trims + 1;
        R.Counter.incr t.c_trims 1;
        reclaim_tenant t tn
      end;
      let clk = tn.machine.Alloc.Machine.clock in
      let stalled = Sim.Clock.stalled clk in
      let bg = Sim.Clock.background_busy clk in
      (* The tenant's own new stall, minus what we injected into it this
         step (no echo), plus a bandwidth share of its sweep work. *)
      let d_stall = max 0 (stalled - tn.last_stalled - tn.consumed_stall) in
      let d_bg = max 0 (bg - tn.last_bg) in
      tn.last_stalled <- stalled;
      tn.last_bg <- bg;
      let share =
        (d_stall * stall_share_pm / 1000) + (d_bg * bg_share_pm / 1000)
      in
      if share > 0 then
        Array.iter
          (fun other ->
            if other.index <> tn.index && other.alive then
              other.pending_stall <- other.pending_stall + share)
          t.tenants;
      enforce_budget t
    end

  let quantum t =
    match t.cfg.scheduler with
    | Round_robin -> Array.iter (fun tn -> step_tenant t tn) t.tenants
    | Priority ->
      (* Static priorities: heavier tenants run longer bursts, ordered
         heaviest-first (stable on index). *)
      let order =
        List.stable_sort
          (fun a b ->
            if a.spec.weight <> b.spec.weight then
              compare b.spec.weight a.spec.weight
            else compare a.index b.index)
          (Array.to_list t.tenants)
      in
      List.iter
        (fun tn ->
          for _ = 1 to tn.spec.weight do
            step_tenant t tn
          done)
        order

  let quantiles_of_merged reg name =
    match R.find reg name with
    | Some (R.Histogram h) ->
      {
        Workloads.Server.p50 = R.Histogram.quantile h 0.5;
        p99 = R.Histogram.quantile h 0.99;
        p999 = R.Histogram.quantile h 0.999;
      }
    | Some _ | None -> { Workloads.Server.p50 = 0.; p99 = 0.; p999 = 0. }

  let run t =
    if t.ran then invalid_arg "Fleet.Machine.run: already ran";
    t.ran <- true;
    R.Gauge.set_max t.g_peak (committed_bytes t);
    R.Gauge.set_max t.g_peak_raw (committed_bytes t);
    while Array.exists (fun tn -> tn.alive) t.tenants do
      quantum t
    done;
    let tenants =
      Array.to_list t.tenants
      |> List.map (fun tn ->
             {
               name = tn.spec.tname;
               scheme = tn.stack.Workloads.Harness.scheme;
               server = Workloads.Server.finish tn.session;
               injected_stall_cycles = tn.injected_total;
               reclaims = tn.reclaims;
               quarantine_trims = tn.quarantine_trims;
               killed = tn.killed;
             })
    in
    (* Merge the per-tenant registries twice: once namespaced per tenant
       under "fleet.t<i>." for drill-down, once under a shared
       "fleet.agg." prefix so histograms add bucket-wise into
       machine-wide distributions — the cross-tenant p50/p99 sweep-pause
       and stall quantiles read straight off the merged histograms. *)
    Array.iter
      (fun tn ->
        let src = Workloads.Server.registry tn.session in
        R.merge_into ~prefix:(Printf.sprintf "fleet.t%d." tn.index) src
          ~into:t.reg;
        R.merge_into ~prefix:"fleet.agg." src ~into:t.reg)
      t.tenants;
    let peak = R.Gauge.value t.g_peak in
    let peak_raw = R.Gauge.value t.g_peak_raw in
    {
      budget = t.cfg.budget;
      scheduler = t.cfg.scheduler;
      purge_order = t.cfg.purge_order;
      tenants;
      steps = R.Counter.value t.c_steps;
      committed_peak = peak;
      committed_peak_raw = peak_raw;
      overshoot = max 0 (peak_raw - t.cfg.budget);
      pressure_events = R.Counter.value t.c_pressure;
      total_reclaims = R.Counter.value t.c_reclaims;
      oom_kills = R.Counter.value t.c_oom_kills;
      agg_latency = quantiles_of_merged t.reg "fleet.agg.srv.latency";
      agg_stall = quantiles_of_merged t.reg "fleet.agg.srv.stall_latency";
      agg_pause = quantiles_of_merged t.reg "fleet.agg.ms.sweep_pause_cycles";
      registry = t.reg;
    }
end

let scale_specs factor specs =
  if factor = 1.0 then specs
  else
    List.map
      (fun s -> { s with profile = Workloads.Server.scale factor s.profile })
      specs

let run ?(scale = 1.0) ?seed cfg specs =
  let specs = scale_specs scale specs in
  Machine.run (Machine.create ?seed cfg specs)

let run_repeats ?(scale = 1.0) ?(seed = 9100) ~repeats cfg specs =
  List.init (max 1 repeats) (fun i ->
      let seed =
        if i = 0 then seed else Sim.Rng.split_seed ~seed ~index:i
      in
      run ~scale ~seed cfg specs)

(* The acceptance scenario: one tenant with leaking handlers and
   dangling pointers next to four well-behaved ones, all on the same
   scheme. *)
let noisy_neighbour ?(steady = 4) scheme =
  let leak =
    match Workloads.Server.find "slow-leak" with
    | Some p -> p
    | None -> invalid_arg "Fleet.noisy_neighbour: no slow-leak profile"
  in
  let quiet =
    match Workloads.Server.find "steady" with
    | Some p -> p
    | None -> invalid_arg "Fleet.noisy_neighbour: no steady profile"
  in
  tenant ~name:"leaker" leak scheme
  :: List.init (max 1 steady) (fun i ->
         tenant ~name:(Printf.sprintf "steady%d" i) quiet scheme)
