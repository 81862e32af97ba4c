(* spec2006: the paper's headline batch path (Figures 7 and 10). Each
   input is one SPEC CPU2006 profile run twice through [Driver.run], on
   the unprotected baseline and under MineSweeper's default preset. *)

open Workloads

let paper_slowdown_pct = 5.4
let paper_mem_overhead_pct = 11.1
let ms_scheme = Harness.Mine_sweeper Minesweeper.Config.default
let k_build = Span.key "harness.build"
let k_base = Span.key "driver.run.baseline"
let k_ms = Span.key "driver.run.minesweeper"

let seeded ~seed i (p : Profile.t) =
  if seed = 0 then p else { p with Profile.seed = Sim.Rng.split_seed ~seed ~index:i }

let profiles ~seed = Array.of_list (List.mapi (seeded ~seed) Spec2006.all)

let result_fields (r : Driver.result) =
  Printf.sprintf "%s %s %d %d %d %d %h %d %d %d %d %d %b" r.benchmark r.scheme r.wall
    r.app_busy r.background_busy r.stalled r.avg_rss r.peak_rss r.sweeps
    r.failed_frees r.allocations r.frees r.oom_killed

let make ~seed ~ops_scale =
  let profiles = profiles ~seed in
  let firsts = Array.make (Array.length profiles) None in
  let counts = Stack_layers.tally () in
  (* One [Driver.run]. Its set-up (machine and stack construction) ends
     when the stack is handed to [on_build]; the rest is measured. *)
  let drive p scheme k =
    let w0 = Span.wall () and c0 = Span.cpu () in
    let built_w = ref w0 and built_c = ref c0 and reg = ref None in
    let r =
      Span.with_ k (fun () ->
          Span.start ();
          Driver.run ~ops_scale
            ~on_build:(fun st ->
              built_w := Span.wall ();
              built_c := Span.cpu ();
              Span.stop k_build;
              reg := st.Harness.obs)
            p scheme)
    in
    let setup = !built_w -. w0 in
    (r, Span.wall () -. !built_w, Span.cpu () -. !built_c, setup, !reg)
  in
  let run_unit ~key =
    let p = profiles.(key) in
    let b, wb, cb, sb, _ = drive p Harness.Baseline k_base in
    let m, wm, cm, sm, reg = drive p ms_scheme k_ms in
    let ops (r : Driver.result) = r.allocations + r.frees in
    let lost (r : Driver.result) = if r.oom_killed then ops r else 0 in
    if firsts.(key) = None then begin
      firsts.(key) <- Some (b, m);
      Option.iter
        (fun reg -> Stack_layers.add_all counts Stack_layers.core_counters (Obs.Registry.read reg))
        reg
    end;
    {
      Runner.key;
      ops = ops b + ops m - lost b - lost m;
      failed = lost b + lost m;
      setup = sb +. sm;
      wall = wb +. wm;
      cpu = cb +. cm;
      digest = Runner.digest_of_strings [ result_fields b; result_fields m ];
    }
  in
  let layers () =
    let pairs = Array.to_list firsts |> List.filter_map Fun.id in
    let slowdown =
      (Quant.geomean (List.map (fun (b, m) -> Driver.slowdown ~baseline:b m) pairs) -. 1.) *. 100.
    in
    let mem =
      (Quant.geomean (List.map (fun (b, m) -> Driver.memory_overhead ~baseline:b m) pairs) -. 1.)
      *. 100.
    in
    let msum f = List.fold_left (fun a (_, m) -> a +. float_of_int (f m)) 0. pairs in
    let protection = k_ms.Span.total -. k_base.Span.total in
    let swept_kib = Stack_layers.get counts "ms.swept_bytes" /. 1024. in
    Stack_layers.core counts
    @ [
      ("spec2006.baseline_host_s", k_base.Span.total);
      ("spec2006.protection_host_s", protection);
      ("spec2006.protection_ns_per_swept_kib", protection *. 1e9 /. swept_kib);
      ("sim.slowdown_pct", slowdown);
      ("sim.mem_overhead_pct", mem);
      ("sim.slowdown_gap_pp", Float.abs (slowdown -. paper_slowdown_pct));
      ("sim.mem_gap_pp", Float.abs (mem -. paper_mem_overhead_pct));
      ("sim.peak_rss_mb",
       List.fold_left (fun a (_, (m : Driver.result)) -> Float.max a (float_of_int m.peak_rss)) 0. pairs
       /. 1048576.);
      ("sim.app_busy_gcycles", msum (fun m -> m.Driver.app_busy) /. 1e9);
      ("sim.background_busy_gcycles", msum (fun m -> m.Driver.background_busy) /. 1e9);
      ("sim.stalled_gcycles", msum (fun m -> m.Driver.stalled) /. 1e9);
    ]
  in
  (* The differential oracle on a short perlbench trace: MineSweeper must
     never recycle memory a live pointer still reaches. *)
  let checks () =
    let perl = List.find (fun (p : Profile.t) -> p.name = "perlbench") (Array.to_list profiles) in
    let trace = Trace.generate (Profile.scale_ops 0.03 perl) in
    let report = Sanitizer.Sweep_oracle.run trace in
    [
      ("sweep oracle reports no oracle-unsound on perlbench@0.03",
       report.Sanitizer.Sweep_oracle.soundness = []);
    ]
  in
  { Runner.keys = Array.length profiles; run_unit; layers; checks }
