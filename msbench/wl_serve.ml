(* serve: open-loop server traffic through the session API. Each input
   is one [bursty] (MMPP) request stream served by a benchmark-built
   stack: the mostly-concurrent preset, so this is the workload that
   runs the stop-the-world re-scan. Arrival timelines are precomputed by
   [Server.start], so the generator is never late and latency counts
   from the scheduled arrival.

   One marker domain: with two on a 2-core shared host, every sweep
   waits for the second core, and a unit's wall time rose up to 1.5x
   above its CPU time for tens of seconds while the speed kernel did
   not move, so five processes of the same input spread 43-50 % even
   after correction (5 % with one domain). The parsweep pool is timed
   by the [micro.parsweep.map_chunks_d2_us] micro-benchmark instead. *)

open Workloads

let streams = 8
let config = Minesweeper.Config.with_domains 1 Minesweeper.Config.mostly_concurrent
let k_build = Span.key "harness.build"
let k_start = Span.key "server.start"
let k_step = Span.key "serve.step"
let k_finish = Span.key "server.finish"
let k_malloc = Span.key "alloc.malloc"
let k_free = Span.key "core.free"
let k_tick = Span.key "core.tick"
let k_drain = Span.key "core.drain"
let k_sweep = Span.key "core.sweep"

(* Wrap the stack's entry points in spans. A call during which a sweep
   completed or the quarantine shrank did sweep work, and is recorded as
   [core.sweep] instead of its entry point's name. *)
let traced (st : Harness.t) =
  let observe k f =
    let sweeps = st.sweeps () and quarantined = st.quarantine_bytes () in
    Span.start ();
    let v = f () in
    let at = Span.wall () in
    let swept = st.sweeps () > sweeps || st.quarantine_bytes () < quarantined in
    Span.stop ~at (if swept then k_sweep else k);
    v
  in
  {
    st with
    malloc = (fun n -> observe k_malloc (fun () -> st.malloc n));
    free = (fun ~thread a -> observe k_free (fun () -> st.free ~thread a));
    tick = (fun () -> observe k_tick st.tick);
    drain = (fun () -> observe k_drain st.drain);
  }

let result_fields (r : Server.result) =
  let q (x : Server.quantiles) = Printf.sprintf "%h %h %h" x.p50 x.p99 x.p999 in
  Printf.sprintf "%d %d %d %d %d %s %s %s %s %d %d %h %d %d %d %d %b" r.requests
    r.completed r.wall r.app_busy r.stalled (q r.latency) (q r.stall_latency)
    (q r.queue_wait) (q r.service) r.max_queue_depth r.peak_rss r.avg_rss r.sweeps
    r.failed_frees r.leaked r.dangling_left r.oom_killed

let make ~seed ~scale =
  let sp = Server.scale scale (Option.get (Server.find "bursty")) in
  (* Seed 0 keeps the profile's seed and [Server.run_repeats]' stream
     convention; any other seed derives every stream from itself. *)
  let stream_seed j =
    if seed = 0 then if j = 0 then sp.seed else Sim.Rng.split_seed ~seed:sp.seed ~index:j
    else Sim.Rng.split_seed ~seed ~index:j
  in
  let seen = Array.make streams false in
  let pooled = Obs.Registry.create () in
  let counts = Stack_layers.tally () in
  let peak_rss = ref 0 in
  let app = ref 0 and background = ref 0 and stalled = ref 0 in
  let all_served = ref true in
  let run_unit ~key =
    let (stack, s), setup, _ =
      Runner.timed (fun () ->
          let stack =
            Span.with_ k_build (fun () ->
                Harness.build (Harness.Mine_sweeper config) ~threads:1
                  (Alloc.Machine.create ()))
          in
          let served = if Span.is_enabled () then traced stack else stack in
          (stack, Span.with_ k_start (fun () -> Server.start ~seed:(stream_seed key) sp served)))
    in
    let r, wall, cpu =
      Runner.timed (fun () ->
          let req = ref 0 in
          while Span.with_ ~req:!req k_step (fun () -> Server.step s) do
            incr req
          done;
          Span.with_ k_finish (fun () -> Server.finish s))
    in
    if r.completed <> r.requests || r.oom_killed then all_served := false;
    if not seen.(key) then begin
      seen.(key) <- true;
      let reg = Server.registry s in
      Obs.Registry.merge_into reg ~into:pooled;
      Stack_layers.add_all counts Stack_layers.core_counters (Obs.Registry.read reg);
      peak_rss := max !peak_rss r.peak_rss;
      let clock = stack.Harness.machine.Alloc.Machine.clock in
      app := !app + Sim.Clock.app_busy clock;
      background := !background + Sim.Clock.background_busy clock;
      stalled := !stalled + Sim.Clock.stalled clock
    end;
    {
      Runner.key;
      ops = r.completed;
      failed = r.requests - r.completed;
      setup;
      wall;
      cpu;
      digest = Runner.digest_of_strings [ result_fields r ];
    }
  in
  let layers () =
    let per_call (k : Span.key) =
      [
        (k.Span.name ^ ".calls", float_of_int k.Span.calls);
        (k.Span.name ^ ".self_s", k.Span.self);
        (k.Span.name ^ ".p99_ns", Span.quantile k 0.99 *. 1e9);
      ]
    in
    [
      ("serve.step.calls", float_of_int k_step.Span.calls);
      ("serve.step.self_s", k_step.Span.self);
      ("serve.step.p50_us", Span.quantile k_step 0.5 *. 1e6);
      ("serve.step.p99_us", Span.quantile k_step 0.99 *. 1e6);
    ]
    @ per_call k_malloc @ per_call k_free @ per_call k_tick
    @ [
        ("core.sweep.calls", float_of_int k_sweep.Span.calls);
        ("core.sweep.self_s", k_sweep.Span.self);
        ("core.sweep.p50_ms", Span.quantile k_sweep 0.5 *. 1e3);
        ("core.sweep.max_ms", k_sweep.Span.max *. 1e3);
        ("sim.peak_rss_mb", float_of_int !peak_rss /. 1048576.);
        ("sim.app_busy_gcycles", float_of_int !app /. 1e9);
        ("sim.background_busy_gcycles", float_of_int !background /. 1e9);
        ("sim.stalled_gcycles", float_of_int !stalled /. 1e9);
      ]
    @ Stack_layers.core counts
    @ Stack_layers.latency pooled ~latency:"srv.latency" ~stall:"srv.stall_latency"
  in
  let checks () = [ ("every stream served every request", !all_served) ] in
  { Runner.keys = streams; run_unit; layers; checks }
