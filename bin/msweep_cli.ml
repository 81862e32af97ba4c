(* msweep: command-line driver for the MineSweeper reproduction.

   Subcommands:
     list                      enumerate available benchmarks
     run -b BENCH -s SCHEME    run one benchmark under one scheme
     bench -b BENCH --metrics-out F
                               run and export the metrics registry (JSONL)
     serve -p PROFILE -s SCHEME [--repeat N] [--attack]
                               server-traffic family under open-loop load:
                               p50/p99/p999 total and stall-induced latency,
                               optional vtable hijack under live traffic
     trace -b BENCH [-o F]     run and dump the structured span ring
     compare -b BENCH          run all schemes and print overheads
     figures [--only IDS]      regenerate the paper's figures; exits 1 if
                               a figure's check fails
     attack [-s SCHEME]        run the Figure-2 exploit scenarios
     trace-gen -b BENCH -o F   derive a portable trace file from a profile
     trace-replay -i F -s S    replay a trace file against a scheme
     check [-i F] [-b BENCH] [--oracle] [--corpus] [--races] [--strict]
                               lint traces or a figure's program, audit a
                               differential replay, self-test the lint
                               corpus, race-check recorded
                               synchronization events
     analyze [-i F] [--policy P] [--json F] [--lockset] [--pools] [--strict]
                               static dataflow analysis of traces: dangling
                               exposure, retention prediction, quarantine
                               bounds — no replay; --pools adds the siteflow
                               allocation-site pooling plan with static
                               occupancy/footprint bounds
     explore [--schedules N]   permute sweep boundaries through a fixed
                               mutator script and verify soundness, race
                               freedom and deterministic accounting *)

open Cmdliner

(* Every name argument resolves when the command line is parsed: a typo
   exits with a usage error (status 124) listing the valid names, before
   any simulation runs. Schemes, suites and benchmarks resolve through
   the shared table in {!Workloads.Harness}. *)
let name_conv parse print = Arg.conv' (parse, Fmt.of_to_string print)

let unknown what name names =
  Error
    (Fmt.str "unknown %s %S (expected one of: %s)" what name
       (String.concat ", " names))

let of_option what names resolve name =
  match resolve name with Some v -> Ok v | None -> unknown what name names

let preset_names = List.map fst Minesweeper.Config.presets

(* A MineSweeper preset under the name it was given. *)
let preset_conv =
  name_conv
    (fun name ->
      Result.map (fun c -> (name, c)) (Minesweeper.Config.of_preset name))
    fst

let server_profile =
  of_option "server profile" Workloads.Server.names Workloads.Server.find

(* --domains overrides the modeled marker-domain count of any
   MineSweeper-family scheme (lib/parsweep); other schemes have no
   marking phase to model. *)
let apply_domains n scheme =
  let open Workloads.Harness in
  let with_n = Minesweeper.Config.with_domains n in
  match scheme with
  | _ when n = 1 -> Ok scheme
  | Mine_sweeper c -> Ok (Mine_sweeper (with_n c))
  | Scudo_sweeper c -> Ok (Scudo_sweeper (with_n c))
  | Dl_sweeper c -> Ok (Dl_sweeper (with_n c))
  | _ -> Error "--domains only applies to MineSweeper-family schemes"

let mb x = float_of_int x /. 1048576.

let print_result (r : Workloads.Driver.result) =
  Fmt.pr "benchmark      %s@." r.benchmark;
  Fmt.pr "scheme         %s@." r.scheme;
  Fmt.pr "wall           %d cycles@." r.wall;
  Fmt.pr "app busy       %d cycles@." r.app_busy;
  Fmt.pr "bg busy        %d cycles@." r.background_busy;
  Fmt.pr "stalled        %d cycles@." r.stalled;
  Fmt.pr "cpu util       %.3f@." r.cpu_utilisation;
  Fmt.pr "avg rss        %.2f MiB@." (r.avg_rss /. 1048576.);
  Fmt.pr "peak rss       %.2f MiB@." (mb r.peak_rss);
  Fmt.pr "sweeps         %d@." r.sweeps;
  Fmt.pr "failed frees   %d@." r.failed_frees;
  Fmt.pr "allocs/frees   %d/%d@." r.allocations r.frees;
  Fmt.pr "live at end    %.2f MiB@." (mb r.live_bytes_end);
  List.iter (fun (name, v) -> Fmt.pr "%-14s %d@." name v) r.metrics

let suite_arg =
  Arg.(
    value & opt string "spec2006"
    & info [ "suite" ]
        ~doc:
          ("Benchmark suite: "
          ^ String.concat ", " (List.map fst Workloads.Harness.suites)))

let bench_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "b"; "bench" ] ~doc:"Benchmark name")

let profile_term =
  Term.(
    term_result' ~usage:true
      (const (fun suite -> Workloads.Harness.find_profile ~suite)
      $ suite_arg $ bench_arg))

let scheme_arg =
  Arg.(
    value
    & opt
        (name_conv Workloads.Harness.scheme_of_name
           Workloads.Harness.scheme_name)
        (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
    & info [ "s"; "scheme" ]
        ~doc:("Scheme: " ^ String.concat ", " Workloads.Harness.scheme_names))

(* Numeric arguments are range-checked when the command line is parsed,
   like names: an out-of-range value is a usage error (status 124) that
   names the valid range, before any simulation runs. *)
let in_range conv ~range ok =
  Arg.conv'
    ( (fun s ->
        match Arg.conv_parser conv s with
        | Ok v when ok v -> Ok v
        | Ok _ -> Error (Fmt.str "%s is out of range: expected %s" s range)
        | Error (`Msg m) -> Error m),
      Arg.conv_printer conv )

(* The scaled op, request and cycle counts must stay host integers. *)
let max_scale = 1000.

let scale_conv =
  in_range Arg.float
    ~range:(Fmt.str "a finite number > 0 and <= %g" max_scale)
    (fun x -> Float.is_finite x && x > 0. && x <= max_scale)

let at_least n =
  in_range Arg.int ~range:(Fmt.str "an integer >= %d" n) (fun v -> v >= n)

(* A size in MiB whose byte count is still a host integer. *)
let mib_at_least n =
  let most = max_int / (1024 * 1024) in
  in_range Arg.int
    ~range:(Fmt.str "an integer >= %d and <= %d" n most)
    (fun v -> v >= n && v <= most)

let scale_arg =
  Arg.(value & opt scale_conv 1.0 & info [ "scale" ] ~doc:"Trace length scale")

let domains_arg =
  Arg.(
    value & opt (at_least 1) 1
    & info [ "domains" ]
        ~doc:
          "Marker domains modeled for the marking phase (1 = one marker). \
           The scan always runs on one OCaml domain; n > 1 assigns page \
           chunks to n modeled markers and exports the projected \
           critical path as par.* telemetry. Every other output is \
           identical at any n.")

let list_cmd =
  let doc = "List available benchmarks" in
  let f () =
    List.iter
      (fun (suite, ps) ->
        Fmt.pr "%s:@." suite;
        List.iter (fun p -> Fmt.pr "  %s@." p.Workloads.Profile.name) ps)
      Workloads.Harness.suites
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const f $ const ())

let run_cmd =
  let doc = "Run one benchmark under one scheme" in
  let f profile scheme scale =
    print_result (Workloads.Driver.run ~ops_scale:scale profile scheme)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const f $ profile_term
      $ term_result' ~usage:true
          (const apply_domains $ domains_arg $ scheme_arg)
      $ scale_arg)

(* --metrics-out and --spans-out: export the registry and span ring of
   the stack that served a run; a scheme that keeps none cannot. *)
let export_stack (stack : Workloads.Harness.t) ~metrics_out ~spans_out =
  let missing what =
    Fmt.epr "scheme %s keeps no %s@." stack.scheme what;
    exit 1
  in
  (match (metrics_out, stack.obs) with
  | Some file, Some reg ->
    Obs.Export.write_file file (Obs.Export.metrics_to_string reg);
    Fmt.pr "metrics        %s (%d metrics)@." file
      (List.length (Obs.Registry.names reg))
  | Some _, None -> missing "metrics registry"
  | None, _ -> ());
  match (spans_out, stack.trace) with
  | Some file, Some ring ->
    Obs.Export.write_file file (Obs.Export.spans_to_string ring);
    Fmt.pr "spans          %s (%d retained)@." file
      (Obs.Trace_ring.retained ring)
  | Some _, None -> missing "trace ring"
  | None, _ -> ()

(* Run a benchmark while holding on to the stack that served it, so the
   telemetry registry and span ring survive for export after the run. *)
let run_capturing ~profile ~scheme ~scale =
  let captured = ref None in
  let result =
    Workloads.Driver.run ~ops_scale:scale
      ~on_build:(fun stack -> captured := Some stack)
      profile scheme
  in
  match !captured with
  | Some stack -> (result, stack)
  | None -> assert false (* on_build always fires *)

let bench_cmd =
  let doc =
    "Run one benchmark under one scheme and export the metrics registry \
     as JSONL. Exports are deterministic: timestamps come from the \
     simulated clock, so identical runs produce byte-identical files."
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~doc:"Write the metrics snapshot (JSONL) here")
  in
  let spans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~doc:"Also write the span ring (JSONL) here")
  in
  let repeat_arg =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "repeat" ]
          ~doc:
            "Run the benchmark N times and report the median host \
             wall-clock time, and the median process CPU time beside it. \
             The simulation is deterministic — every repeat must land on \
             the same simulated cycle count (verified) — so repeats \
             denoise only the host-side timing.")
  in
  (* --config overrides -s; pooled-analyzed derives its pool plan from
     the program the run executes. *)
  let config_arg =
    let config = function
      | "pooled" -> Ok (fun _ -> Workloads.Harness.Pooled None)
      | "pooled-analyzed" ->
        Ok
          (fun program ->
            let plan = Flowcheck.Poolplan.of_trace (program ()) in
            Workloads.Harness.Pooled
              (Some (Flowcheck.Poolplan.to_alloc_plan plan)))
      | name -> (
        match Minesweeper.Config.of_preset name with
        | Ok c -> Ok (fun _ -> Workloads.Harness.Mine_sweeper c)
        | Error _ ->
          unknown "configuration" name
            ("pooled" :: "pooled-analyzed" :: preset_names))
    in
    Arg.(
      value
      & opt
          (some
             (name_conv
                (fun name -> Result.map (fun c -> (name, c)) (config name))
                fst))
          None
      & info [ "config" ]
          ~doc:
            "Override the scheme with a named configuration: $(b,pooled) \
             (site-keyed pools, identity plan), $(b,pooled-analyzed) \
             (site-keyed pools driven by a flowcheck siteflow plan derived \
             from the program the run executes), or a MineSweeper preset name \
             (default, mostly, incremental, ...)")
  in
  let scheme_term =
    let choose profile scale domains scheme config =
      apply_domains domains
        (match config with
        | None -> scheme
        | Some (_, of_program) ->
          of_program (fun () ->
              Workloads.Driver.program ~ops_scale:scale profile))
    in
    Term.(
      term_result' ~usage:true
        (const choose $ profile_term $ scale_arg $ domains_arg $ scheme_arg
       $ config_arg))
  in
  let f profile scheme scale repeat metrics_out spans_out =
    let timed =
      Array.init repeat (fun _ ->
          let w0 = Unix.gettimeofday () and c0 = Sys.time () in
          let result, stack = run_capturing ~profile ~scheme ~scale in
          ((Unix.gettimeofday () -. w0, Sys.time () -. c0), result, stack))
    in
    let _, result, stack = timed.(0) in
    Array.iter
      (fun (_, (r : Workloads.Driver.result), _) ->
        if r.Workloads.Driver.wall <> result.Workloads.Driver.wall then begin
          Fmt.epr
            "FAIL: repeats diverged on the simulated clock (%d vs %d cycles)@."
            r.Workloads.Driver.wall result.Workloads.Driver.wall;
          exit 1
        end)
      timed;
    print_result result;
    if repeat > 1 then begin
      let report label pick =
        let times = Array.map (fun (dt, _, _) -> pick dt) timed in
        Array.sort compare times;
        let median =
          if repeat mod 2 = 1 then times.(repeat / 2)
          else (times.((repeat / 2) - 1) +. times.(repeat / 2)) /. 2.0
        in
        Fmt.pr "%-14s %.1f ms median of %d (min %.1f, max %.1f)@." label
          (median *. 1e3) repeat
          (times.(0) *. 1e3)
          (times.(repeat - 1) *. 1e3)
      in
      report "host wall" fst;
      report "host cpu" snd
    end;
    export_stack stack ~metrics_out ~spans_out
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const f $ profile_term $ scheme_term $ scale_arg $ repeat_arg
      $ metrics_arg $ spans_arg)

let trace_cmd =
  let doc =
    "Run one benchmark under one scheme and dump the structured span \
     ring (sweep phases, stop-the-world re-scans, quarantine events, \
     allocation stalls) as JSONL."
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~doc:"Output file (default: stdout)")
  in
  let f profile scheme scale out =
    let _result, stack = run_capturing ~profile ~scheme ~scale in
    match stack.Workloads.Harness.trace with
    | None ->
      Fmt.epr "scheme %s keeps no trace ring@." stack.Workloads.Harness.scheme;
      exit 1
    | Some ring -> (
      let contents = Obs.Export.spans_to_string ring in
      match out with
      | None -> print_string contents
      | Some file ->
        Obs.Export.write_file file contents;
        Fmt.pr "wrote %s: %d span(s) retained (%d emitted)@." file
          (Obs.Trace_ring.retained ring)
          (Obs.Trace_ring.emitted ring))
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const f $ profile_term $ scheme_arg $ scale_arg $ out_arg)

let compare_cmd =
  let doc = "Run all schemes on a benchmark and print overheads" in
  let f profile scale =
    let run s = Workloads.Driver.run ~ops_scale:scale profile s in
    let baseline = run Workloads.Harness.Baseline in
    Fmt.pr "%-22s %9s %9s %9s %8s %7s %7s@." profile.Workloads.Profile.name
      "slowdown" "mem" "peak" "cpu" "sweeps" "failed";
    Fmt.pr "%-22s %9.3f %9.3f %9.3f %8.3f %7d %7d@." "baseline" 1.0 1.0 1.0
      baseline.cpu_utilisation 0 0;
    List.iter
      (fun scheme ->
        let r = run scheme in
        Fmt.pr "%-22s %9.3f %9.3f %9.3f %8.3f %7d %7d@." r.scheme
          (Workloads.Driver.slowdown ~baseline r)
          (Workloads.Driver.memory_overhead ~baseline r)
          (Workloads.Driver.peak_memory_overhead ~baseline r)
          r.cpu_utilisation r.sweeps r.failed_frees)
      [
        Workloads.Harness.Mine_sweeper Minesweeper.Config.default;
        Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent;
        Workloads.Harness.Mark_us;
        Workloads.Harness.Ff_malloc;
      ]
  in
  Cmd.v (Cmd.info "compare" ~doc) Term.(const f $ profile_term $ scale_arg)

let figures_cmd =
  let doc =
    "Regenerate the paper's tables and figures. Seven figures certify \
     invariants: when a check fails, its figure id and the check are \
     listed on stderr after all figures and the command exits 1."
  in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ]
          ~doc:
            "Comma-separated figure ids (fig1..fig19, scudo, ...). An \
             unknown id exits 1 and lists the valid ones.")
  in
  let f only scale =
    match
      Experiments.select_figures (Option.map (String.split_on_char ',') only)
    with
    | Error unknown ->
      Fmt.epr "unknown figure id(s): %s@.valid ids: %s@."
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst Experiments.all_figures));
      exit 1
    | Ok figures ->
      let env = Experiments.make_env ~scale ~verbose:true () in
      let failed =
        List.concat_map
          (fun (id, render) ->
            let figure = render env in
            print_string figure.Experiments.text;
            List.map (fun check -> (id, check)) figure.Experiments.failed)
          figures
      in
      if failed <> [] then begin
        flush stdout;
        List.iter
          (fun (id, check) -> Fmt.epr "%s: check failed: %s@." id check)
          failed;
        exit 1
      end
  in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const f $ only_arg $ scale_arg)

let attack_cmd =
  let doc = "Run the use-after-free exploit scenarios against a scheme" in
  let f scheme =
    let fresh () = Workloads.Harness.fresh scheme ~threads:1 in
    Fmt.pr "scheme: %s@." (Workloads.Harness.scheme_name scheme);
    Fmt.pr "  vtable hijack      %s@."
      (Attack.describe (Attack.vtable_hijack (fresh ())));
    Fmt.pr "  double-free hijack %s@."
      (Attack.describe (Attack.double_free_hijack (fresh ())));
    Fmt.pr "  unlink corruption  %s@."
      (Attack.describe (Attack.unlink_corruption (fresh ())));
    Fmt.pr "  reuse after clear  %b@." (Attack.reuse_after_clear (fresh ()))
  in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const f $ scheme_arg)

let print_server_result (r : Workloads.Server.result) =
  let q name (v : Workloads.Server.quantiles) =
    Fmt.pr "%-14s p50 %.0f  p99 %.0f  p999 %.0f cycles@." name v.p50 v.p99
      v.p999
  in
  Fmt.pr "profile        %s@." r.profile;
  Fmt.pr "scheme         %s@." r.scheme;
  Fmt.pr "requests       %d offered, %d served%s@." r.requests r.completed
    (if r.oom_killed then " (OOM-killed)" else "");
  Fmt.pr "wall           %d cycles@." r.wall;
  Fmt.pr "app busy       %d cycles@." r.app_busy;
  Fmt.pr "stalled        %d cycles@." r.stalled;
  q "latency" r.latency;
  q "stall latency" r.stall_latency;
  q "queue wait" r.queue_wait;
  q "service" r.service;
  Fmt.pr "max queue      %d@." r.max_queue_depth;
  Fmt.pr "peak rss       %.2f MiB@." (mb r.peak_rss);
  Fmt.pr "sweeps         %d@." r.sweeps;
  Fmt.pr "failed frees   %d@." r.failed_frees;
  Fmt.pr "leaked         %d objects, %d dangling roots left@." r.leaked
    r.dangling_left

let serve_cmd =
  let doc =
    "Run a server-traffic profile under the open-loop load generator and \
     report per-request tail latency (p50/p99/p999 total and stall-induced). \
     The offered arrival timeline is a pure function of (profile, seed): the \
     generator never observes the service side, so allocator stalls surface \
     as queueing delay instead of slowing the load down. Exports are \
     deterministic (simulated clock), so identical runs produce \
     byte-identical files."
  in
  let profile_arg =
    Arg.(
      value
      & opt
          (name_conv server_profile (fun p -> p.Workloads.Server.name))
          (Option.get (Workloads.Server.find "steady"))
      & info [ "p"; "profile" ]
          ~doc:("Server profile: " ^ String.concat ", " Workloads.Server.names))
  in
  let repeat_arg =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "repeat" ]
          ~doc:
            "Run N statistically independent repeats. Repeat 0 keeps the \
             profile's seed; repeat i derives its stream with \
             Rng.split_seed from the top-level seed, so replicas are \
             uncorrelated (correlated replicas bias median-of-N tail \
             estimates) yet the whole family stays deterministic. Reports \
             per-repeat and median-of-N quantiles.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:"Write the metrics snapshot (srv.* alongside ms.*) here")
  in
  let spans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~doc:"Also write the span ring (JSONL) here")
  in
  let attack_arg =
    Arg.(
      value & flag
      & info [ "attack" ]
          ~doc:
            "Mount the Figure-2 vtable hijack against the live server: \
             plant a dangling virtual-call site mid-traffic, spray \
             attacker payloads between requests and report the outcome \
             alongside the traffic's tail latency")
  in
  let f profile scheme scale repeat metrics_out spans_out attack =
    let profile =
      if scale = 1.0 then profile else Workloads.Server.scale scale profile
    in
    if attack then begin
      let machine = Alloc.Machine.create () in
      let stack = Workloads.Harness.build scheme ~threads:1 machine in
      let outcome, result = Attack.hijack_under_traffic ~profile stack in
      print_server_result result;
      Fmt.pr "attack         %s@." (Attack.describe outcome)
    end
    else begin
      let captured = ref None in
      let result =
        Workloads.Server.run
          ~on_build:(fun stack -> captured := Some stack)
          profile scheme
      in
      print_server_result result;
      if repeat > 1 then begin
        let rs = Workloads.Server.run_repeats ~repeats:repeat profile scheme in
        List.iteri
          (fun i (r : Workloads.Server.result) ->
            Fmt.pr
              "repeat %-2d      lat p50/p99/p999 %.0f/%.0f/%.0f  stall \
               %.0f/%.0f/%.0f@."
              i r.latency.p50 r.latency.p99 r.latency.p999
              r.stall_latency.p50 r.stall_latency.p99 r.stall_latency.p999)
          rs;
        let med f = Workloads.Server.median (List.map f rs) in
        Fmt.pr
          "median of %-2d   lat p50 %.0f  p99 %.0f  p999 %.0f  stall p999 \
           %.0f@."
          repeat
          (med (fun (r : Workloads.Server.result) -> r.latency.p50))
          (med (fun (r : Workloads.Server.result) -> r.latency.p99))
          (med (fun (r : Workloads.Server.result) -> r.latency.p999))
          (med (fun (r : Workloads.Server.result) -> r.stall_latency.p999))
      end;
      let stack =
        match !captured with Some s -> s | None -> assert false
      in
      export_stack stack ~metrics_out ~spans_out
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const f $ profile_arg $ scheme_arg $ scale_arg $ repeat_arg
      $ metrics_arg $ spans_arg $ attack_arg)

(* --tenants grammar: comma-separated entries, each
   profile:scheme[*count][@weight] — e.g. the default fleet
   "slow-leak:minesweeper,steady:minesweeper*4". *)
let parse_tenants qbudget spec =
  let ( let* ) = Result.bind in
  let split c s =
    match String.index_opt s c with
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (s, None)
  in
  let number entry what = function
    | None -> Ok 1
    | Some n -> (
      match int_of_string_opt n with
      | None -> Error (Fmt.str "tenant entry %s: %S is not a number" entry n)
      | Some v when v < 1 ->
        Error
          (Fmt.str
             "tenant entry %s: %s %d is out of range: expected an integer >= 1"
             entry what v)
      | Some v -> Ok v)
  in
  let parse_entry entry =
    let entry = String.trim entry in
    let rest, weight = split '@' entry in
    let rest, count = split '*' rest in
    let* weight = number entry "weight" weight in
    let* count = number entry "count" count in
    let* profile_name, scheme_name =
      match split ':' rest with
      | p, Some s -> Ok (p, s)
      | _, None -> Error ("tenant entry needs profile:scheme, got " ^ entry)
    in
    let* profile = server_profile profile_name in
    let* scheme = Workloads.Harness.scheme_of_name scheme_name in
    Ok
      (List.init count (fun i ->
           let name =
             if count = 1 then profile_name else Fmt.str "%s%d" profile_name i
           in
           Fleet.tenant ~weight ~quarantine_budget:(qbudget * 1024 * 1024)
             ~name profile scheme))
  in
  let entries = String.split_on_char ',' spec in
  match List.filter (fun e -> String.trim e <> "") entries with
  | [] -> Error "empty tenant spec"
  | entries ->
    List.fold_left
      (fun acc entry ->
        let* specs = acc in
        let* tenants = parse_entry entry in
        Ok (specs @ tenants))
      (Ok []) entries

let print_fleet_result (r : Fleet.result) =
  Fmt.pr "tenants        %d  scheduler %s  purge-order %s@."
    (List.length r.tenants)
    (Fleet.scheduler_name r.scheduler)
    (Fleet.purge_order_name r.purge_order);
  Fmt.pr "budget         %.2f MiB@." (mb r.budget);
  Fmt.pr "committed peak %.2f MiB (raw %.2f, overshoot %.2f)@."
    (mb r.committed_peak) (mb r.committed_peak_raw) (mb r.overshoot);
  Fmt.pr "pressure       %d events, %d reclaims, %d oom kills@."
    r.pressure_events r.total_reclaims r.oom_kills;
  Fmt.pr "steps          %d@." r.steps;
  let q label (v : Workloads.Server.quantiles) =
    Fmt.pr "%-14s p50 %.0f  p99 %.0f  p999 %.0f@." label v.p50 v.p99 v.p999
  in
  q "fleet latency" r.agg_latency;
  q "fleet stall" r.agg_stall;
  q "fleet pause" r.agg_pause;
  List.iter
    (fun (t : Fleet.tenant_result) ->
      Fmt.pr
        "  %-10s %-22s %5d/%-5d lat p99 %8.0f  stall p99 %8.0f  injected \
         %8d  reclaims %d%s%s@."
        t.name t.scheme t.server.Workloads.Server.completed
        t.server.Workloads.Server.requests
        t.server.Workloads.Server.latency.p99
        t.server.Workloads.Server.stall_latency.p99 t.injected_stall_cycles
        t.reclaims
        (if t.quarantine_trims > 0 then Fmt.str " trims %d" t.quarantine_trims
         else "")
        (if t.killed then "  KILLED"
         else if t.server.Workloads.Server.oom_killed then "  OOM"
         else ""))
    r.tenants

let fleet_cmd =
  let doc =
    "Run N tenant instances on one simulated machine with a shared \
     physical-page budget. Each tenant is a full stack (own address space, \
     clock, backend) driven by its own open-loop traffic; the machine layer \
     interleaves their steps deterministically, charges one tenant's sweep \
     stalls and marking bandwidth to its neighbours' request windows, and \
     holds the summed committed bytes under the budget by forcing \
     cross-tenant reclaim (largest-quarantine-first or round-robin) with \
     OOM kill as the backstop. Deterministic: identical invocations \
     produce byte-identical exports."
  in
  let tenants_arg =
    Arg.(
      value
      & opt string "slow-leak:minesweeper,steady:minesweeper*4"
      & info [ "t"; "tenants" ]
          ~doc:
            "Tenant spec: comma-separated profile:scheme[*count][@weight] \
             entries (weight = consecutive steps per priority quantum)")
  in
  let budget_arg =
    Arg.(
      value & opt (mib_at_least 1) 192
      & info [ "budget" ] ~doc:"Machine physical-page budget in MiB")
  in
  let scheduler_arg =
    let names = List.map Fleet.scheduler_name Fleet.[ Round_robin; Priority ] in
    Arg.(
      value
      & opt
          (name_conv
             (of_option "scheduler" names Fleet.scheduler_of_string)
             Fleet.scheduler_name)
          Fleet.Round_robin
      & info [ "scheduler" ] ~doc:"Scheduler: round-robin or priority")
  in
  let purge_arg =
    let names =
      List.map Fleet.purge_order_name
        Fleet.[ Largest_quarantine; Round_robin_purge ]
    in
    Arg.(
      value
      & opt
          (name_conv
             (of_option "purge order" names Fleet.purge_order_of_string)
             Fleet.purge_order_name)
          Fleet.Largest_quarantine
      & info [ "purge-order" ]
          ~doc:
            "Cross-tenant reclaim order under pressure: largest-quarantine \
             or round-robin")
  in
  let qbudget_arg =
    Arg.(
      value & opt (mib_at_least 0) 0
      & info [ "quarantine-budget" ]
          ~doc:
            "Per-tenant quarantine budget in MiB (0 = unlimited): a tenant \
             overrunning it is reclaimed immediately")
  in
  let seed_arg =
    Arg.(value & opt int 9100 & info [ "seed" ] ~doc:"Fleet seed")
  in
  let repeat_arg =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "repeat" ]
          ~doc:
            "Run N independent repeats; repeat i derives its seed with \
             Rng.split_seed, tenant j within a repeat splits again — one \
             stream per tenant per repeat")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "Write the fleet registry (fleet.*, per-tenant fleet.t<i>.*, \
             cross-tenant fleet.agg.*) as JSONL here")
  in
  let f specs budget scheduler purge_order scale seed repeat metrics_out =
    let cfg =
      Fleet.config ~budget:(budget * 1024 * 1024) ~scheduler ~purge_order ()
    in
    let results = Fleet.run_repeats ~scale ~seed ~repeats:repeat cfg specs in
    let first = List.hd results in
    print_fleet_result first;
    if repeat > 1 then begin
      List.iteri
        (fun i (r : Fleet.result) ->
          Fmt.pr
            "repeat %-2d      stall p99 %.0f  latency p99 %.0f  peak %.2f \
             MiB  pressure %d@."
            i r.agg_stall.p99 r.agg_latency.p99 (mb r.committed_peak)
            r.pressure_events)
        results;
      let med f = Workloads.Server.median (List.map f results) in
      Fmt.pr "median of %-2d   stall p99 %.0f  latency p99 %.0f@." repeat
        (med (fun (r : Fleet.result) -> r.agg_stall.p99))
        (med (fun (r : Fleet.result) -> r.agg_latency.p99))
    end;
    match metrics_out with
    | Some file ->
      Obs.Export.write_file file
        (Obs.Export.metrics_to_string first.Fleet.registry);
      Fmt.pr "metrics        %s (%d metrics)@." file
        (List.length (Obs.Registry.names first.Fleet.registry))
    | None -> ()
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const f
      $ term_result' ~usage:true
          (const parse_tenants $ qbudget_arg $ tenants_arg)
      $ budget_arg $ scheduler_arg $ purge_arg $ scale_arg $ seed_arg
      $ repeat_arg $ metrics_arg)

let trace_gen_cmd =
  let doc = "Generate a portable trace file from a benchmark profile" in
  let out_arg =
    Arg.(
      required & opt (some string) None & info [ "o"; "out" ] ~doc:"Output file")
  in
  let f profile scale out =
    let profile =
      if scale = 1.0 then profile else Workloads.Profile.scale_ops scale profile
    in
    let trace = Workloads.Trace.generate profile in
    Workloads.Trace.to_file trace out;
    Fmt.pr "wrote %s: %d ops (%d allocations)@." out
      (Workloads.Trace.length trace)
      (Workloads.Trace.allocation_count trace)
  in
  Cmd.v (Cmd.info "trace-gen" ~doc)
    Term.(const f $ profile_term $ scale_arg $ out_arg)

(* A trace file that cannot be read or does not parse ends the command
   with the file, line and reason on stderr and exit status 1, not with
   cmdliner's internal-error status. *)
let reading_trace file f =
  try f () with
  | Workloads.Trace.Parse_error { line; message } ->
    Fmt.epr "%s: line %d: %s@." file line message;
    exit 1
  | Sys_error message ->
    Fmt.epr "%s@." message;
    exit 1

let trace_replay_cmd =
  let doc = "Replay a trace file against an allocator scheme" in
  let in_arg =
    Arg.(
      required & opt (some string) None & info [ "i"; "in" ] ~doc:"Trace file")
  in
  let f input scheme =
    let trace = reading_trace input (fun () -> Workloads.Trace.of_file input) in
    let stack =
      Workloads.Harness.fresh scheme ~threads:trace.Workloads.Trace.threads
    in
    let machine = stack.Workloads.Harness.machine in
    let executed = Workloads.Trace.replay trace stack in
    Fmt.pr "replayed %d ops of %s under %s@." executed
      trace.Workloads.Trace.name stack.Workloads.Harness.scheme;
    Fmt.pr "wall %d cycles, cpu util %.3f, rss %.2f MiB, sweeps %d@."
      (Sim.Clock.wall machine.Alloc.Machine.clock)
      (Sim.Clock.cpu_utilisation machine.Alloc.Machine.clock)
      (float_of_int (Workloads.Harness.rss stack) /. 1048576.)
      (stack.Workloads.Harness.sweeps ())
  in
  Cmd.v (Cmd.info "trace-replay" ~doc) Term.(const f $ in_arg $ scheme_arg)

(* Shared by `check` and `analyze`: both exit non-zero on errors and
   self-test failures always, and additionally on warnings under
   --strict. *)
let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Treat every finding as fatal: exit non-zero on warnings too, \
           not only on errors and self-test failures")

(* One line per seeded mutant; a mutant that did not raise exactly its
   expected rules counts as an error. *)
let report_mutants errs =
  List.iter (fun (name, passed, expected, got) ->
      if passed then Fmt.pr "  ok   %-24s [%s]@." name (String.concat "; " got)
      else begin
        incr errs;
        Fmt.pr "  FAIL %-24s expected [%s] got [%s]@." name
          (String.concat "; " expected)
          (String.concat "; " got)
      end)

let lockset_self_test errs =
  report_mutants errs
    (List.map
       (fun (r : Flowcheck.Lockset.mutant_result) ->
         Flowcheck.Lockset.(r.name, r.passed, r.expected, r.got))
       (Flowcheck.Lockset.self_test ()))

let check_cmd =
  let doc =
    "Lint trace files, or the program a figure runs for one benchmark, \
     and (optionally) audit a differential replay. Exits non-zero when \
     any check reports an error or a self-test fails; with \
     $(b,--strict), on any finding at all."
  in
  let files_arg =
    Arg.(
      value & opt_all string []
      & info [ "i"; "in" ] ~doc:"Trace file to check (repeatable)")
  in
  (* -b: the program Driver.run streams for the profile at --scale, the
     one the paper's figures, `run` and `compare` execute. *)
  let program_term =
    let bench_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "b"; "bench" ]
            ~doc:
              "Also check the program the figures run for this benchmark \
               of $(b,--suite) at $(b,--scale): the lint reads its ops, and \
               the referees judge the run the figures and $(b,run) report, \
               laid over it")
    in
    let program suite bench scale =
      match bench with
      | None -> Ok None
      | Some name ->
        Result.map
          (fun profile ->
            Some
              ( Fmt.str "%s/%s@%g" suite name scale,
                (fun () -> Workloads.Driver.program ~ops_scale:scale profile),
                fun _program scheme observe ->
                  ignore
                    (Workloads.Driver.run ~ops_scale:scale ~observe profile
                       scheme) ))
          (Workloads.Harness.find_profile ~suite name)
    in
    Term.(
      term_result' ~usage:true
        (const program $ suite_arg $ bench_arg $ scale_arg))
  in
  let oracle_arg =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:
            "Also run each input under MineSweeper with the differential \
             sweep oracle and the cross-layer invariant audit laid over \
             it: a trace file as a replay, $(b,-b)'s program as the \
             figures' own run")
  in
  let corpus_arg =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:
            "Self-test: lint the seeded known-bad corpus (each case must \
             raise exactly its expected rules) and the well-behaved control \
             traces (which must stay clean)")
  in
  let config_arg =
    Arg.(
      value
      & opt preset_conv ("default", Minesweeper.Config.default)
      & info [ "config" ]
          ~doc:("Oracle configuration: " ^ String.concat ", " preset_names))
  in
  let latency_arg =
    Arg.(
      value & opt int 3
      & info [ "latency" ]
          ~doc:
            "Completed sweeps an unreferenced quarantined allocation may \
             survive before the oracle reports it as retained")
  in
  let races_arg =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Also record each input's synchronization events on a live \
             instrumented stack (under both the default and \
             mostly-concurrent presets) and run the vector-clock \
             happens-before analysis; with --corpus, additionally replay \
             every sweep-protocol mutant, which the checker must flag")
  in
  let f files program oracle corpus races (_, config) latency domains strict =
    (* --domains sets the modeled marker count of every replayed
       configuration: the oracle and --races then certify that it moves
       no release decision and no synchronization event. *)
    let oracle_config = Minesweeper.Config.with_domains domains in
    let errs = ref 0 in
    let warns = ref 0 in
    let print_diags diags =
      let diags = Sanitizer.Diagnostic.sort diags in
      List.iter
        (fun d ->
          (match d.Sanitizer.Diagnostic.severity with
          | Sanitizer.Diagnostic.Error -> incr errs
          | Sanitizer.Diagnostic.Warning -> incr warns);
          Fmt.pr "  %s@." (Sanitizer.Diagnostic.to_string d))
        diags
    in
    (* Each input is read as a trace for the lint, and run once per
       referee with the referee laid over the run: a trace file as a
       replay, a figure's program as the figure's own [Driver.run]. *)
    let inputs =
      List.map
        (fun file ->
          ( file,
            (fun () ->
              reading_trace file (fun () -> Workloads.Trace.of_file file)),
            Workloads.Trace.replay_observed ))
        files
      @ Option.to_list program
    in
    List.iter
      (fun (file, read, replay) ->
        let trace = read () in
        let run config = replay trace (Workloads.Harness.Mine_sweeper config) in
        let diags = Sanitizer.Trace_lint.lint trace in
        Fmt.pr "%s: lint: %d finding(s)@." file (List.length diags);
        print_diags diags;
        if oracle then begin
          let r =
            Sanitizer.Sweep_oracle.over ~latency_sweeps:latency
              ~trace_name:file
              (run (oracle_config config))
          in
          let diags = Sanitizer.Sweep_oracle.findings r in
          Fmt.pr
            "%s: oracle: %d ops, %d allocs, %d frees, %d releases, %d \
             sweeps, %d finding(s)@."
            file r.Sanitizer.Sweep_oracle.ops r.Sanitizer.Sweep_oracle.allocs
            r.Sanitizer.Sweep_oracle.frees r.Sanitizer.Sweep_oracle.releases
            r.Sanitizer.Sweep_oracle.sweeps (List.length diags);
          print_diags diags
        end;
        if races then
          List.iter
            (fun (config_name, config) ->
              let r =
                Racecheck.Recorder.over ~config_name ~trace_name:file
                  ~threads:(max 1 trace.Workloads.Trace.threads)
                  (run (oracle_config config))
              in
              Fmt.pr
                "%s: races(%s): %d threads, %d sweeps, %d events, %d window \
                 writes, %d finding(s)@."
                file config_name r.Racecheck.Recorder.threads
                r.Racecheck.Recorder.sweeps r.Racecheck.Recorder.events
                r.Racecheck.Recorder.window_writes
                (List.length r.Racecheck.Recorder.diags);
              print_diags r.Racecheck.Recorder.diags;
              (* The static lockset pass reads the same recorded stream:
                 a correct sweep protocol must come back clean. *)
              let ls = Flowcheck.Lockset.analyze r.Racecheck.Recorder.stream in
              Fmt.pr "%s: lockset(%s): %d finding(s)@." file config_name
                (List.length ls);
              print_diags ls)
            Minesweeper.Config.
              [ ("default", default); ("mostly", mostly_concurrent) ])
      inputs;
    if corpus then begin
      Fmt.pr "corpus self-test:@.";
      List.iter
        (fun (c : Sanitizer.Corpus.case) ->
          let diags = Sanitizer.Trace_lint.lint c.trace in
          let got =
            List.sort_uniq compare
              (List.map (fun d -> d.Sanitizer.Diagnostic.rule) diags)
          in
          if got = c.expected_rules then
            Fmt.pr "  ok   %-22s [%s]@." c.name (String.concat "; " got)
          else begin
            incr errs;
            Fmt.pr "  FAIL %-22s expected [%s] got [%s]@." c.name
              (String.concat "; " c.expected_rules)
              (String.concat "; " got)
          end)
        Sanitizer.Corpus.cases;
      List.iter
        (fun trace ->
          match Sanitizer.Trace_lint.lint trace with
          | [] ->
            Fmt.pr "  ok   %-22s clean@." trace.Workloads.Trace.name
          | diags ->
            Fmt.pr "  FAIL %-22s %d diagnostic(s) on a well-behaved trace@."
              trace.Workloads.Trace.name (List.length diags);
            print_diags diags)
        (Sanitizer.Corpus.well_behaved ())
    end;
    if corpus && races then begin
      Fmt.pr "protocol mutant self-test:@.";
      report_mutants errs
        (List.map
           (fun (r : Racecheck.Protocol.mutant_result) ->
             (r.name, r.passed, r.expected, r.got))
           (Racecheck.Protocol.self_test ()));
      Fmt.pr "lockset mutant self-test:@.";
      lockset_self_test errs
    end;
    if (not corpus) && List.is_empty inputs then
      Fmt.pr "nothing to check: pass -i FILE, -b BENCH and/or --corpus@.";
    let total = !errs + !warns in
    if total > 0 then
      Fmt.pr "check: %d finding(s) (%d error(s), %d warning(s))@." total !errs
        !warns;
    if !errs > 0 || (strict && total > 0) then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const f $ files_arg $ program_term $ oracle_arg $ corpus_arg $ races_arg
      $ config_arg $ latency_arg $ domains_arg $ strict_arg)

let analyze_cmd =
  let doc =
    "Statically analyze trace files without replay: a single pass over a \
     chunked stream builds an allocation-site points-to graph, reports \
     dangling-pointer exposure with witnessing write chains, predicts \
     conservative-sweep retention, and computes per-policy quarantine \
     bounds. Exits non-zero on errors (with $(b,--strict), on any \
     finding)."
  in
  let files_arg =
    Arg.(
      value & opt_all string []
      & info [ "i"; "in" ] ~doc:"Trace file to analyze (repeatable)")
  in
  let policy_arg =
    let policies name =
      match Flowcheck.Policy.of_string name with
      | Ok ps -> Ok (name, ps)
      | Error _ ->
        unknown "policy" name
          ("all" :: "minesweeper" :: "ffmalloc" :: "markus" :: preset_names)
    in
    Arg.(
      value
      & opt
          (name_conv policies fst)
          ("all", Flowcheck.Policy.default_policies)
      & info [ "policy" ]
          ~doc:
            "Bounds policies: all, minesweeper, a MineSweeper preset name \
             (mostly, incremental, ...), ffmalloc, markus")
  in
  let chunk_arg =
    Arg.(
      value
      & opt (at_least 1) Workloads.Trace.default_chunk_ops
      & info [ "chunk" ]
          ~doc:
            "Ops per streamed chunk: the op buffer holds at most this \
             many ops. Memory is one chunk plus live state (the live \
             ids, and freed ones a slot still points at), not trace \
             length; --pools also keeps the edges stored inside freed \
             objects, by design")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:
            "Write one line of deterministic JSON per trace to this file \
             (byte-identical across runs on equal input)")
  in
  let lockset_arg =
    Arg.(
      value & flag
      & info [ "lockset" ]
          ~doc:
            "Also self-test the static lockset pass: the unmutated \
             sweep-protocol emulator must come back clean and every seeded \
             mutant must raise exactly its expected ls-* rules")
  in
  let pools_arg =
    Arg.(
      value & flag
      & info [ "pools" ]
          ~doc:
            "Also run the siteflow allocation-site pooling analysis: \
             partition sites into the fewest pools that can never recycle \
             a danglingly-aliased object, print the plan with its static \
             occupancy/footprint/retired bounds, and include site and pool \
             records in the $(b,--json) document (schema v2)")
  in
  let f files (_, policies) chunk json lockset pools strict =
    let errs = ref 0 in
    let warns = ref 0 in
    let json_lines = ref [] in
    List.iter
      (fun file ->
        let stream () =
          Workloads.Trace.stream_of_file ~chunk_ops:chunk file
        in
        let r =
          reading_trace file (fun () ->
              Flowcheck.Report.analyze ~policies (stream ()))
        in
        print_string (Flowcheck.Report.render r);
        (* Streams are single-shot, so the pooling pass re-opens the
           file; both passes see the identical chunking. *)
        let plan =
          if pools then
            Some
              (reading_trace file (fun () ->
                   Flowcheck.Poolplan.of_stream (stream ())))
          else None
        in
        Option.iter (fun p -> print_string (Flowcheck.Poolplan.render p)) plan;
        List.iter
          (fun (d : Sanitizer.Diagnostic.t) ->
            match d.Sanitizer.Diagnostic.severity with
            | Sanitizer.Diagnostic.Error -> incr errs
            | Sanitizer.Diagnostic.Warning -> incr warns)
          r.Flowcheck.Report.findings;
        if json <> None then
          json_lines := Flowcheck.Report.to_json ?pools:plan r :: !json_lines)
      files;
    (match json with
    | Some file ->
      let oc = open_out file in
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (List.rev !json_lines);
      close_out oc;
      Fmt.pr "json           %s (%d trace(s))@." file (List.length files)
    | None -> ());
    if lockset then begin
      Fmt.pr "lockset self-test:@.";
      lockset_self_test errs
    end;
    if files = [] && not lockset then
      Fmt.pr "nothing to analyze: pass -i FILE and/or --lockset@.";
    let total = !errs + !warns in
    if total > 0 then
      Fmt.pr "analyze: %d finding(s) (%d error(s), %d warning(s))@." total
        !errs !warns;
    if !errs > 0 || (strict && total > 0) then exit 1
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const f $ files_arg $ policy_arg $ chunk_arg $ json_arg $ lockset_arg
      $ pools_arg $ strict_arg)

let explore_cmd =
  let doc =
    "Bounded schedule exploration of the sweep protocol: permute sweep \
     start/finish boundaries through a fixed two-mutator script, checking \
     ground-truth release soundness, race freedom and deterministic \
     accounting per schedule. Exits non-zero on any violation or race."
  in
  let schedules_arg =
    Arg.(
      value & opt (at_least 1) 64
      & info [ "schedules" ]
          ~doc:"Schedules to explore (stride-sampled from the full space)")
  in
  let config_arg =
    Arg.(
      value
      & opt preset_conv ("mostly", Minesweeper.Config.mostly_concurrent)
      & info [ "config" ]
          ~doc:("Instance configuration: " ^ String.concat ", " preset_names))
  in
  let metrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~doc:"Write rc.* metrics as JSONL to this file")
  in
  let f schedules (config_name, config) metrics_out =
    let r = Racecheck.Explorer.run ~config ~config_name ~schedules () in
    print_string (Racecheck.Explorer.render r);
    (match metrics_out with
    | Some file ->
      Obs.Export.write_file file
        (Obs.Export.metrics_to_string r.Racecheck.Explorer.registry);
      Fmt.pr "metrics written to %s@." file
    | None -> ());
    let bad =
      List.length (Racecheck.Explorer.violations r)
      + List.length (Racecheck.Explorer.races r)
    in
    if bad > 0 || not (r.Racecheck.Explorer.deterministic && r.Racecheck.Explorer.consistent)
    then exit 1
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const f $ schedules_arg $ config_arg $ metrics_arg)

let () =
  let doc = "MineSweeper reproduction driver" in
  let info = Cmd.info "msweep" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; bench_cmd; serve_cmd; fleet_cmd; trace_cmd;
            compare_cmd; figures_cmd; attack_cmd; trace_gen_cmd;
            trace_replay_cmd; check_cmd; analyze_cmd; explore_cmd;
          ]))
