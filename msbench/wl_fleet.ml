(* fleet: the noisy-neighbour machine (one slow-leak tenant and four
   steady ones, default preset, round-robin scheduler, largest-quarantine
   purge order). Reclaims are forced by a per-tenant quarantine budget
   under the default machine budget, which never binds.

   The machine-budget path (pressure events, reclaim in purge order, OOM
   kill) cannot be timed: a tenant's committed memory grows until it
   finishes, and only its quarantine can be reclaimed, so every budget
   below the tenants' natural peak OOM-kills one of them on most seeds
   (measured at scales 0.05, 0.3 and 1, with and without quarantine
   budgets), and a workload whose operations fail cannot measure
   throughput. An untimed check runs that path instead, on a small
   fleet under a tight budget, where kills are allowed. *)

open Workloads

let repeats = 8
let default_seed = 9100
let quarantine_budget = 128 * 1024
let config = Fleet.config ()
let k_create = Span.key "fleet.create"
let k_run = Span.key "fleet.run"
let k_export = Span.key "fleet.export"

(* The check's fleet takes about 0.2 s. Its natural committed peak is
   about 6 MiB on every seed tried, so this budget binds. *)
let tight_scale = 0.05
let tight_budget = 5888 * 1024

let tenants = Fleet.noisy_neighbour (Harness.Mine_sweeper Minesweeper.Config.default)

let make ~seed ~scale =
  let budgeted =
    List.map
      (fun (s : Fleet.tenant_spec) ->
        { s with profile = Server.scale scale s.profile; quarantine_budget })
      tenants
  in
  let fleet_seed r =
    if seed = 0 then
      if r = 0 then default_seed else Sim.Rng.split_seed ~seed:default_seed ~index:r
    else Sim.Rng.split_seed ~seed ~index:r
  in
  let seen = Array.make repeats false in
  let pooled = Obs.Registry.create () in
  let totals = Stack_layers.tally () in
  let add = Stack_layers.add totals in
  let peak_raw = ref 0 in
  let run_unit ~key =
    let m, setup, _ =
      Runner.timed (fun () ->
          Span.with_ k_create (fun () -> Fleet.Machine.create ~seed:(fleet_seed key) config budgeted))
    in
    let (r, export), wall, cpu =
      Runner.timed (fun () ->
          let r = Span.with_ k_run (fun () -> Fleet.Machine.run m) in
          (r, Span.with_ k_export (fun () -> Obs.Export.metrics_to_string r.Fleet.registry)))
    in
    let unserved =
      List.fold_left
        (fun a (t : Fleet.tenant_result) ->
          a + t.server.Server.requests - t.server.Server.completed)
        0 r.tenants
    in
    if not seen.(key) then begin
      seen.(key) <- true;
      Obs.Registry.merge_into r.registry ~into:pooled;
      peak_raw := max !peak_raw r.committed_peak_raw;
      add "reclaims" r.total_reclaims;
      List.iteri
        (fun i (t : Fleet.tenant_result) ->
          add "injected_stall" t.injected_stall_cycles;
          add "app_busy" t.server.Server.app_busy;
          add "stalled" t.server.Server.stalled;
          Stack_layers.add_all totals Stack_layers.core_counters (fun name ->
              Obs.Registry.read r.registry (Printf.sprintf "fleet.t%d.%s" i name)))
        r.tenants
    end;
    {
      Runner.key;
      ops = r.steps;
      failed = unserved;
      setup;
      wall;
      cpu;
      digest = Runner.digest_of_strings [ export ];
    }
  in
  (* The machine-budget path, untimed: enforcement must hold the
     committed peak within the budget, and the budget must bind. *)
  let tight =
    lazy
      (Fleet.run ~seed:(fleet_seed 0) ~scale:tight_scale
         (Fleet.config ~budget:tight_budget ())
         tenants)
  in
  let layers () =
    let n = Stack_layers.get totals in
    let t = Lazy.force tight in
    [
      ("fleet.run_s", k_run.Span.total);
      ("fleet.export_s", k_export.Span.total);
      ("fleet.reclaims", n "reclaims");
      ("fleet.injected_stall_gcycles", n "injected_stall" /. 1e9);
      ("fleet.tight.pressure_events", float_of_int t.pressure_events);
      ("fleet.tight.reclaims", float_of_int t.total_reclaims);
      ("fleet.tight.oom_kills", float_of_int t.oom_kills);
      ("sim.peak_rss_mb", float_of_int !peak_raw /. 1048576.);
      ("sim.app_busy_gcycles", n "app_busy" /. 1e9);
      ("sim.stalled_gcycles", n "stalled" /. 1e9);
    ]
    @ Stack_layers.core totals
    @ Stack_layers.latency pooled ~latency:"fleet.agg.srv.latency"
        ~stall:"fleet.agg.srv.stall_latency"
  in
  let checks () =
    let t = Lazy.force tight in
    [
      ("under a tight budget the budget binds and holds the committed peak",
       t.pressure_events > 0 && t.committed_peak <= t.budget);
    ]
  in
  { Runner.keys = repeats; run_unit; layers; checks }
