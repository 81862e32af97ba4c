type env = {
  scale : float;
  verbose : bool;
  cache : (string, Workloads.Driver.result) Hashtbl.t;
  srv_cache : (string, Workloads.Server.result) Hashtbl.t;
}

type figure = { text : string; failed : string list }

let make_env ?(scale = 1.0) ?(verbose = false) () =
  { scale; verbose; cache = Hashtbl.create 256; srv_cache = Hashtbl.create 64 }

(* Figures name their schemes through the shared table; a key it does
   not know is a bug in the figure. *)
let resolve key =
  match Workloads.Harness.scheme_of_name key with
  | Ok scheme -> scheme
  | Error _ -> invalid_arg ("unknown scheme key " ^ key)

let run_scheme env ~suite ~bench ~key scheme =
  let cache_key = Printf.sprintf "%s/%s/%s" suite bench key in
  match Hashtbl.find_opt env.cache cache_key with
  | Some r -> r
  | None ->
    if env.verbose then Printf.eprintf "  [run] %s\n%!" cache_key;
    let profile =
      match Workloads.Harness.find_profile ~suite bench with
      | Ok p -> p
      | Error msg -> invalid_arg msg
    in
    let r = Workloads.Driver.run ~ops_scale:env.scale profile scheme in
    Hashtbl.replace env.cache cache_key r;
    r

let run env ~suite ~bench ~scheme =
  run_scheme env ~suite ~bench ~key:scheme (resolve scheme)

let baseline_for env ~suite ~bench = run env ~suite ~bench ~scheme:"baseline"

let overhead = function
  | `Time -> Workloads.Driver.slowdown
  | `Memory -> Workloads.Driver.memory_overhead

let measure env metric ~suite ~bench ~scheme =
  let baseline = baseline_for env ~suite ~bench in
  overhead metric ~baseline (run env ~suite ~bench ~scheme)

(* The value a scheme's own paper quotes, where the paper quotes one. *)
let cite = function
  | `Time -> Report.Literature.slowdown
  | `Memory -> Report.Literature.memory_overhead

let figure title body =
  { text = Printf.sprintf "==== %s ====\n\n%s\n" title body; failed = [] }

(* Records one failed check of a figure, in the order found. *)
let flag failed fmt = Printf.ksprintf (fun s -> failed := !failed @ [ s ]) fmt

let checked title ~ok failed body =
  let verdict =
    if failed = [] then ok
    else "failed checks: " ^ String.concat "; " failed ^ "\n"
  in
  { (figure title (body ^ verdict)) with failed }

(* ------------------------------------------------------------------ *)

let fig1 _env =
  let render title data =
    let rows =
      List.map
        (fun { Report.Literature.year; uaf_count; proportion_percent } ->
          ( string_of_int year,
            [ float_of_int uaf_count; proportion_percent ] ))
        data
    in
    let table =
      Report.Table.create ~columns:[ "year"; "UAF+DF CVEs"; "% of all" ]
    in
    List.iter (fun (y, vs) -> Report.Table.add_row table y vs) rows;
    title ^ "\n" ^ Report.Table.render table ^ "\n"
    ^ Report.Chart.bars
        (List.map
           (fun { Report.Literature.year; uaf_count; _ } ->
             (string_of_int year, float_of_int uaf_count))
           data)
  in
  figure "Figure 1: reported use-after-free / double-free CVEs by year"
    (render "(a) National Vulnerability Database" Report.Literature.nvd_uaf
    ^ "\n"
    ^ render "(b) Linux kernel" Report.Literature.linux_uaf)

let fig2 _env =
  let schemes =
    [
      "baseline"; "minesweeper"; "minesweeper-mostly"; "markus"; "ffmalloc";
      "scudo"; "scudo-minesweeper"; "crcount"; "psweeper"; "dangsan";
    ]
  in
  let stack key = Workloads.Harness.fresh (resolve key) ~threads:1 in
  let line scheme =
    let hijack = Attack.vtable_hijack (stack scheme) in
    let dfree = Attack.double_free_hijack (stack scheme) in
    let reuse = Attack.reuse_after_clear (stack scheme) in
    Printf.sprintf "%-20s hijack: %-52s double-free: %-52s reuse-after-clear: %b"
      scheme
      (Attack.describe hijack)
      (Attack.describe dfree)
      reuse
  in
  let unlink_lines =
    List.map
      (fun scheme ->
        Printf.sprintf "%-22s unlink (in-band metadata): %s" scheme
          (Attack.describe_unlink (Attack.unlink_corruption (stack scheme))))
      [ "dlmalloc"; "dlmalloc-minesweeper"; "baseline" ]
  in
  figure
    "Figure 2: exploiting the use-after-free of Listing 1 (per scheme)"
    (String.concat "\n" (List.map line schemes)
    ^ "\n\n"
    ^ String.concat "\n" unlink_lines
    ^ "\n")

(* ------------------------------------------------------------------ *)

let spec2006_names = Workloads.Spec2006.names

let geomean = Report.Summary.geomean

(* Column [i] of a table's rows, without the cells a row leaves empty
   (NaN: no value quoted for that benchmark). *)
let column rows i =
  List.filter
    (fun v -> not (Float.is_nan v))
    (List.map (fun (_, vs) -> List.nth vs i) rows)

(* One summary cell per column, e.g. the geomean row. *)
let per_column f rows =
  List.mapi (fun i _ -> f (column rows i)) (snd (List.hd rows))

let geomeans = per_column geomean
let rows_to table = List.iter (fun (b, vs) -> Report.Table.add_row table b vs)

(* Figures 7 and 10: per SPEC CPU2006 benchmark, the schemes the paper
   quotes from their own papers beside the three it re-ran, then the
   geomean row. Returns the rendered table and the FFmalloc and
   MineSweeper columns. *)
let literature_table env metric =
  let quoted = Report.Literature.quoted_schemes in
  let rows =
    List.map
      (fun bench ->
        ( bench,
          List.map
            (fun scheme ->
              Option.value ~default:Float.nan (cite metric ~scheme ~bench))
            quoted
          @ List.map
              (fun scheme ->
                measure env metric ~suite:"spec2006" ~bench ~scheme)
              [ "markus"; "ffmalloc"; "minesweeper" ] ))
      spec2006_names
  in
  let table =
    Report.Table.create
      ~columns:
        (("benchmark" :: quoted) @ [ "MarkUs"; "FFmalloc"; "MineSweeper" ])
  in
  rows_to table (rows @ [ ("geomean", geomeans rows) ]);
  let n = List.length quoted in
  (Report.Table.render table, column rows (n + 1), column rows (n + 2))

let fig7 env =
  let table, _, ms = literature_table env `Time in
  figure "Figure 7: slowdown for SPEC CPU2006 (C/C++)"
    (table
    ^ Printf.sprintf
        "\nheadline: MineSweeper geomean slowdown %.1f %% (paper: 5.4 %%), \
         worst case %.1f %% (paper: 72.7 %% for xalancbmk)\n"
        (Report.Summary.percent_overhead (geomean ms))
        (Report.Summary.percent_overhead (Report.Summary.worst ms)))

let fig8 env =
  let series =
    List.map
      (fun scheme ->
        let r = run env ~suite:"spec2006" ~bench:"sphinx3" ~scheme in
        ( (match scheme with
          | "baseline" -> "Baseline (JeMalloc)"
          | "ffmalloc" -> "FFMalloc"
          | _ -> "MineSweeper"),
          Array.map
            (fun (x, rss) -> (x, float_of_int rss /. 1048576.))
            r.Workloads.Driver.rss_trace ))
      [ "baseline"; "ffmalloc"; "minesweeper" ]
  in
  figure "Figure 8: memory usage over time for sphinx3 (MiB)"
    (Report.Chart.line ~series ())

let fig9 env =
  let rows =
    List.map
      (fun bench ->
        ( bench,
          List.map
            (fun scheme -> measure env `Time ~suite:"spec2006" ~bench ~scheme)
            [ "markus"; "ffmalloc"; "minesweeper" ] ))
      spec2006_names
  in
  figure "Figure 9: slowdown versus MarkUs and FFmalloc (re-run)"
    (Report.Chart.grouped_bars ~series:[ "MarkUs"; "FFmalloc"; "MineSweeper" ]
       (rows @ [ ("geomean", geomeans rows) ]))

let fig10 env =
  let table, ff, ms = literature_table env `Memory in
  figure "Figure 10: average memory overhead for SPEC CPU2006"
    (table
    ^ Printf.sprintf
        "\nheadline: MineSweeper geomean memory overhead %.1f %% (paper: \
         11.1 %%); FFmalloc geomean %.2fx with worst case %.1fx (paper: \
         3.44x / 11.7x)\n"
        (Report.Summary.percent_overhead (geomean ms))
        (geomean ff) (Report.Summary.worst ff))

let fig11 env =
  let rows =
    List.map
      (fun bench ->
        let baseline = baseline_for env ~suite:"spec2006" ~bench in
        let r = run env ~suite:"spec2006" ~bench ~scheme:"minesweeper" in
        ( bench,
          [
            Workloads.Driver.memory_overhead ~baseline r;
            Workloads.Driver.peak_memory_overhead ~baseline r;
          ] ))
      spec2006_names
  in
  let table =
    Report.Table.create ~columns:[ "benchmark"; "average"; "peak" ]
  in
  rows_to table (rows @ [ ("geomean", geomeans rows) ]);
  figure "Figure 11: memory overhead for SPEC CPU2006 (MineSweeper)"
    (Report.Table.render table
    ^ Printf.sprintf "\npaper: geomean 11.1 %% average, 17.7 %% peak\n")

let fig12 env =
  let rows =
    List.map
      (fun bench ->
        let baseline = baseline_for env ~suite:"spec2006" ~bench in
        let r = run env ~suite:"spec2006" ~bench ~scheme:"minesweeper" in
        (bench, Workloads.Driver.cpu_overhead ~baseline r))
      spec2006_names
  in
  let geo = geomean (List.map snd rows) in
  (* Section 5.2's DRAM-traffic check: total bytes swept per wall cycle,
     as a share of the machine's ~16 B/cycle memory bandwidth. *)
  let dram_share =
    (* swept volume ~ sweeps x resident set; capacity ~16 B/cycle *)
    let swept, wall =
      List.fold_left
        (fun (s, w) bench ->
          let r = run env ~suite:"spec2006" ~bench ~scheme:"minesweeper" in
          ( s
            +. (float_of_int r.Workloads.Driver.sweeps
               *. r.Workloads.Driver.avg_rss),
            w +. float_of_int r.Workloads.Driver.wall ))
        (0., 0.) spec2006_names
    in
    100. *. swept /. (wall *. 16.)
  in
  figure "Figure 12: additional CPU usage (MineSweeper)"
    (Report.Chart.bars (rows @ [ ("geomean", geo) ])
    ^ Printf.sprintf
        "\npaper: geomean 9.6 %%, maximum 129 %% (xalancbmk); sweeping in \
         background threads is the source\nDRAM-traffic check (Section \
         5.2): sweeps consume ~%.1f %% of the machine's memory bandwidth \
         across the suite - no significant impact, as the paper found\n"
        dram_share)

let fig13 env =
  let rows =
    List.map
      (fun bench ->
        ( bench,
          List.map
            (fun scheme -> measure env `Time ~suite:"spec2006" ~bench ~scheme)
            [ "minesweeper"; "minesweeper-mostly" ] ))
      spec2006_names
  in
  let geo = geomeans rows in
  figure
    "Figure 13: slowdown of fully concurrent and mostly concurrent versions"
    (Report.Chart.grouped_bars
       ~series:[ "Fully concurrent"; "Mostly concurrent (STW)" ]
       (rows @ [ ("geomean", geo) ])
    ^ Printf.sprintf
        "\nheadline: mostly concurrent geomean %.1f %% (paper: 8.2 %%) vs \
         fully concurrent %.1f %% (paper: 5.4 %%)\n"
        (Report.Summary.percent_overhead (List.nth geo 1))
        (Report.Summary.percent_overhead (List.nth geo 0)))

let fig14 env =
  let rows =
    List.map
      (fun bench ->
        let r = run env ~suite:"spec2006" ~bench ~scheme:"minesweeper" in
        (bench, float_of_int r.Workloads.Driver.sweeps))
      spec2006_names
  in
  figure "Figure 14: number of sweeps triggered (fully concurrent)"
    (Report.Chart.bars rows
    ^ "\npaper: omnetpp highest (1075), then xalancbmk (654); traces here \
       are scaled down ~1000x, so counts are proportionally lower\n")

(* ------------------------------------------------------------------ *)

let levels_figure env ~metric ~title ~paper_note =
  let table =
    Report.Table.create
      ~columns:
        ("benchmark"
        :: List.map
             (fun (label, _, _) -> label)
             Workloads.Harness.optimisation_levels)
  in
  (* A run killed for exhausting the memory budget shows as '>' and
     leaves its geomean cell empty. *)
  let rows =
    List.map
      (fun bench ->
        let baseline = baseline_for env ~suite:"spec2006" ~bench in
        let cells =
          List.map
            (fun (_, scheme, _) ->
              let r = run env ~suite:"spec2006" ~bench ~scheme in
              (r.Workloads.Driver.oom_killed, overhead metric ~baseline r))
            Workloads.Harness.optimisation_levels
        in
        Report.Table.add_text_row table bench
          (List.map
             (fun (oom, v) ->
               if oom then Printf.sprintf ">%.1f" v
               else Printf.sprintf "%.3f" v)
             cells);
        (bench, List.map (fun (oom, v) -> if oom then Float.nan else v) cells))
      spec2006_names
  in
  Report.Table.add_text_row table "geomean*"
    (List.map (Printf.sprintf "%.3f") (geomeans rows));
  figure title
    (Report.Table.render table
    ^ "\n(* geomean over runs that stayed within the memory budget; '>' \
       marks runs killed for exhausting it, like the paper's unoptimised \
       gcc/milc)\n" ^ paper_note)

let fig15 env =
  levels_figure env ~metric:`Time
    ~title:"Figure 15: run-time overhead under different optimisation levels"
    ~paper_note:
      "paper: unoptimised runs are slow or die; +concurrency cuts time to \
       5.0 %, +purging settles at 5.4 %\n"

let fig16 env =
  levels_figure env ~metric:`Memory
    ~title:"Figure 16: memory overhead under different optimisation levels"
    ~paper_note:
      "paper: zeroing and unmapping rescue memory (21.1 %), concurrency \
       costs some back (24.1 %), purging settles at 11.1 %\n"

let fig17_benches = [ "dealII"; "gcc"; "omnetpp"; "perlbench"; "xalancbmk" ]

let fig17 env =
  let section metric label =
    let columns = "version" :: fig17_benches @ [ "geomean" ] in
    let table = Report.Table.create ~columns in
    List.iter
      (fun (name, scheme, _) ->
        let values =
          List.map
            (fun bench -> measure env metric ~suite:"spec2006" ~bench ~scheme)
            fig17_benches
        in
        Report.Table.add_row table name (values @ [ geomean values ]))
      Workloads.Harness.partial_versions;
    label ^ "\n" ^ Report.Table.render table
  in
  figure "Figure 17: sources of overheads (five most affected benchmarks)"
    (section `Time "(a) Time" ^ "\n" ^ section `Memory "(b) Memory"
    ^ "\npaper: base 1.1 %, +unmap/zero 5.8 %, quarantining adds the bulk \
       (17.9 % time / 14.8 % memory on these five), full version reaches \
       39.4 % memory\n")

(* ------------------------------------------------------------------ *)

let suite_overheads env ~suite ~title ~paper_note =
  let section metric label =
    let rows =
      List.map
        (fun p ->
          let bench = p.Workloads.Profile.name in
          ( bench,
            List.map
              (fun scheme -> measure env metric ~suite ~bench ~scheme)
              [ "markus"; "ffmalloc"; "minesweeper" ] ))
        (List.assoc suite Workloads.Harness.suites)
    in
    let table =
      Report.Table.create
        ~columns:[ "benchmark"; "MarkUs"; "FFmalloc"; "MineSweeper" ]
    in
    rows_to table
      (rows
      @ [
          ("geomean", geomeans rows);
          ("worst", per_column Report.Summary.worst rows);
        ]);
    label ^ "\n" ^ Report.Table.render table
  in
  figure title
    (section `Time "(a) Time" ^ "\n" ^ section `Memory "(b) Average memory"
    ^ paper_note)

let fig18 env =
  suite_overheads env ~suite:"spec2017"
    ~title:"Figure 18: overheads for SPECspeed2017 (starred = OpenMP)"
    ~paper_note:
      "\npaper: MineSweeper 10.8 % time / 7.9 % memory; FFmalloc 5.3 % / \
       22.2 %; MarkUs 16.3 % / 12.6 %; worst MineSweeper slowdown 2x \
       (xalancbmk), slowest parallel benchmark wrf (66 %)\n"

let fig19 env =
  suite_overheads env ~suite:"mimalloc"
    ~title:"Figure 19: overheads for mimalloc-bench stress tests"
    ~paper_note:
      "\npaper: MineSweeper 2.7x time / 4.0x memory (worst 31x / 27x); \
       MarkUs 6.7x time; FFmalloc 2.16x time but 7.2x memory (97x worst)\n"

(* ------------------------------------------------------------------ *)
(* Beyond the figures: Section 7's Scudo integration and ablations of
   the design parameters DESIGN.md calls out.                          *)

let scudo_table env =
  let rows =
    List.map
      (fun bench ->
        let scudo = run env ~suite:"spec2006" ~bench ~scheme:"scudo" in
        let protected_run =
          run env ~suite:"spec2006" ~bench ~scheme:"scudo-minesweeper"
        in
        ( bench,
          [
            Workloads.Driver.slowdown ~baseline:scudo protected_run;
            Workloads.Driver.memory_overhead ~baseline:scudo protected_run;
          ] ))
      spec2006_names
  in
  let table =
    Report.Table.create
      ~columns:[ "benchmark"; "slowdown vs Scudo"; "memory vs Scudo" ]
  in
  rows_to table (rows @ [ ("geomean", geomeans rows) ]);
  figure
    "Section 7: MineSweeper over the Scudo hardened allocator"
    (Report.Table.render table
    ^ "\npaper: the Scudo integration costs 4.4 % — the layer is \
       allocator-agnostic\n")

let ptrtrack_table env =
  (* The paper quotes CRCount / pSweeper / DangSan from their own papers
     (Figures 7/10); here they are additionally *implemented* over the
     instrumented-pointer-store hook and measured head-to-head. *)
  let schemes =
    [
      ("crcount", "CRCount"); ("psweeper", "pSweeper-1s");
      ("dangsan", "DangSan");
    ]
  in
  let section metric label =
    let rows =
      List.map
        (fun bench ->
          ( bench,
            List.map
              (fun scheme ->
                measure env metric ~suite:"spec2006" ~bench ~scheme)
              (List.map fst schemes @ [ "minesweeper" ]) ))
        spec2006_names
    in
    let quoted =
      List.map
        (fun bench ->
          ( bench,
            List.map
              (fun (_, scheme) ->
                Option.value ~default:Float.nan (cite metric ~scheme ~bench))
              schemes ))
        spec2006_names
    in
    let table =
      Report.Table.create
        ~columns:(("benchmark" :: List.map snd schemes) @ [ "MineSweeper" ])
    in
    rows_to table
      (rows
      @ [
          ("geomean (measured)", geomeans rows);
          ("geomean (quoted)", geomeans quoted @ [ Float.nan ]);
        ]);
    label ^ "\n" ^ Report.Table.render table
  in
  figure
    "Extension: pointer-tracking schemes implemented and measured"
    (section `Time "(a) Slowdown" ^ "\n" ^ section `Memory "(b) Average memory")

let ablation_benches = [ "dealII"; "gcc"; "omnetpp"; "perlbench"; "xalancbmk" ]

(* One row per setting of a configuration knob; [measures] names the
   cells each benchmark gets and reads them off its run. *)
let ablation env ~title ~knob ~settings ~measures ~note =
  let table =
    Report.Table.create
      ~columns:
        (knob
        :: List.concat_map
             (fun b -> List.map (fun (m, _) -> b ^ " " ^ m) measures)
             ablation_benches)
  in
  List.iter
    (fun (label, key, config) ->
      let cells =
        List.concat_map
          (fun bench ->
            let baseline = baseline_for env ~suite:"spec2006" ~bench in
            let r =
              run_scheme env ~suite:"spec2006" ~bench ~key
                (Workloads.Harness.Mine_sweeper config)
            in
            List.map (fun (_, f) -> f ~baseline r) measures)
          ablation_benches
      in
      Report.Table.add_row table label cells)
    settings;
  figure title (Report.Table.render table ^ note)

let ablation_threshold env =
  ablation env ~knob:"threshold"
    ~title:
      "Ablation: sweep-trigger threshold (paper default 15 %, MarkUs used 25 %)"
    ~settings:
      (List.map
         (fun threshold ->
           ( Printf.sprintf "%.0f %%" (threshold *. 100.),
             Printf.sprintf "ms-t%.2f" threshold,
             { Minesweeper.Config.default with threshold } ))
         [ 0.05; 0.10; 0.15; 0.25; 0.35 ])
    ~measures:
      [
        ("time", Workloads.Driver.slowdown);
        ("mem", Workloads.Driver.memory_overhead);
      ]
    ~note:
      "\nlower thresholds sweep more often (more time, less memory); \
       higher thresholds trade the other way (Section 3.2)\n"

let ablation_granule env =
  ablation env ~knob:"granule"
    ~title:"Ablation: shadow-map granularity (paper default: one bit per 16 B)"
    ~settings:
      (List.map
         (fun shadow_granule ->
           ( Printf.sprintf "%d B" shadow_granule,
             Printf.sprintf "ms-g%d" shadow_granule,
             { Minesweeper.Config.default with shadow_granule } ))
         [ 16; 64; 256; 1024 ])
    ~measures:
      [
        ("mem", Workloads.Driver.memory_overhead);
        ( "failed",
          fun ~baseline:_ r -> float_of_int r.Workloads.Driver.failed_frees );
      ]
    ~note:
      "\ncoarser shadow bits alias adjacent allocations: spurious failed \
       frees rise and memory follows (Section 3.2's precision trade-off); \
       the shadow itself is <1 % of the heap at every setting\n"

let ablation_helpers env =
  ablation env ~knob:"helpers"
    ~title:"Ablation: parallel sweeping helper threads (paper default: 6)"
    ~settings:
      (List.map
         (fun helpers ->
           ( string_of_int helpers,
             Printf.sprintf "ms-h%d" helpers,
             {
               Minesweeper.Config.default with
               concurrency =
                 Minesweeper.Config.Concurrent
                   { helpers; stop_the_world = false };
             } ))
         [ 0; 1; 2; 6; 12 ])
    ~measures:
      [
        ("time", Workloads.Driver.slowdown);
        ("cpu", Workloads.Driver.cpu_overhead);
      ]
    ~note:
      "\nmore helpers shorten each sweep (prompter recycling, less \
       allocation-pause risk) at the same total CPU cost (Section 4.4)\n"

(* A run's end-of-run registry value under its registry name; 0 when the
   stack does not register it. *)
let metric (r : Workloads.Driver.result) name =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt name r.Workloads.Driver.metrics))

let incremental_benches =
  [
    ("spec2006", [ "perlbench"; "gcc"; "omnetpp"; "xalancbmk"; "dealII" ]);
    ("mimalloc", [ "espresso"; "cfrac"; "barnes"; "alloc-test1" ]);
  ]

let incremental_sweep env =
  let mb v = v /. 1048576. in
  let table =
    Report.Table.create
      ~columns:
        [
          "benchmark"; "slowdown full"; "slowdown inc"; "swept full MB";
          "swept inc MB"; "pages skipped"; "pages rescanned"; "cache KB";
        ]
  in
  let failed = ref [] in
  List.iter
    (fun (suite, benches) ->
      List.iter
        (fun bench ->
          let baseline = baseline_for env ~suite ~bench in
          let full = run env ~suite ~bench ~scheme:"minesweeper" in
          let inc = run env ~suite ~bench ~scheme:"minesweeper-incremental" in
          let swept_full = metric full "ms.swept_bytes" in
          let swept_inc = metric inc "ms.swept_bytes" in
          (* The first incremental sweep has no summaries to replay and
             necessarily rescans everything; incrementality can only pay
             off from the second sweep on. *)
          if full.Workloads.Driver.sweeps > 1 && swept_inc >= swept_full then
            flag failed "%s/%s: incremental swept >= full" suite bench;
          Report.Table.add_row table (suite ^ "/" ^ bench)
            [
              Workloads.Driver.slowdown ~baseline full;
              Workloads.Driver.slowdown ~baseline inc;
              mb swept_full;
              mb swept_inc;
              metric inc "ms.sweep_pages_skipped";
              metric inc "ms.sweep_pages_rescanned";
              metric inc "ms.summary_cache_bytes" /. 1024.;
            ])
        benches)
    incremental_benches;
  checked "Extension: full vs incremental marking phase (bytes swept per mode)"
    ~ok:
      "incremental mode swept strictly fewer bytes than full mode on every \
       sweeping profile\n"
    !failed
    (Report.Table.render table
    ^ "\nincremental mode rescans only pages dirtied since the previous \
       sweep and replays cached per-page pointer summaries for the rest; \
       protection is unchanged (the inv-summary audit certifies the rebuilt \
       shadow equals a from-scratch full mark)\n")

(* Sweep-heavy profiles: big live heaps and frequent sweeps, where the
   mark phase dominates the sweeper's CPU — the workloads the parallel
   marking engine exists for. *)
let parallel_mark_benches =
  [
    ("mimalloc", [ "espresso"; "cfrac"; "barnes" ]);
    ("spec2006", [ "xalancbmk"; "omnetpp" ]);
  ]

(* The pass both parallel figures share: every sweep-heavy profile under
   the default preset at 1, 2, 4 and 8 modeled marker domains. Its
   checks: every domain count sweeps exactly the bytes one domain
   sweeps, and some profile reaches [min_speedup] at 4 domains.
   [speedup] reads a run's modeled speedup; [cells at] gives a row's
   second and last columns from its run at each domain count. *)
let across_domains env ~title ~columns ~speedup ~cells ~min_speedup ~what
    ~note ~ok =
  let mb v = v /. 1048576. in
  let table = Report.Table.create ~columns in
  let failed = ref [] in
  let best = ref 0.0 in
  List.iter
    (fun (suite, benches) ->
      List.iter
        (fun bench ->
          let at d =
            run_scheme env ~suite ~bench
              ~key:(Printf.sprintf "ms-d%d" d)
              (Workloads.Harness.Mine_sweeper
                 (Minesweeper.Config.with_domains d Minesweeper.Config.default))
          in
          let swept d = metric (at d) "ms.swept_bytes" in
          (* Determinism is the contract: the domain count is a model
             parameter, so every count must mark and sweep the same
             bytes. *)
          List.iter
            (fun d ->
              if swept d <> swept 1 then
                flag failed "%s/%s: swept_bytes differs at %d domains" suite
                  bench d)
            [ 1; 2; 4; 8 ];
          best := max !best (speedup (at 4));
          let second, last = cells at in
          Report.Table.add_row table (suite ^ "/" ^ bench)
            [
              mb (swept 1); second; speedup (at 2); speedup (at 4);
              speedup (at 8); last;
            ])
        benches)
    parallel_mark_benches;
  if !best < min_speedup then
    flag failed "no profile reached %gx modeled %s at 4 domains (best %.2fx)"
      min_speedup what !best;
  checked title ~ok:(ok !best) !failed (Report.Table.render table ^ note)

let parallel_mark env =
  across_domains env
    ~title:
      "Extension: parallel marking speedup (page chunks statically assigned \
       to modeled marker domains)"
    ~columns:
      [
        "benchmark"; "swept MB"; "throughput d1 B/cyc"; "speedup d2";
        "speedup d4"; "speedup d8"; "imbalance d4 KB";
      ]
      (* The modeled mark-phase critical path: [par.mark_cycles_est]
         accumulates max(slowest domain, DRAM floor) per sweep,
         [par.mark_cycles_seq_est] the single-marker cost over the same
         bytes — their ratio is the modeled speedup. *)
    ~speedup:(fun r ->
      let est = metric r "par.mark_cycles_est" in
      if est > 0.0 then metric r "par.mark_cycles_seq_est" /. est else 0.0)
    ~cells:(fun at ->
      let seq_cycles = metric (at 2) "par.mark_cycles_seq_est" in
      ( (if seq_cycles > 0.0 then metric (at 1) "ms.swept_bytes" /. seq_cycles
         else 0.0),
        metric (at 4) "par.imbalance" /. 1024. ))
    ~min_speedup:1.5 ~what:"mark speedup"
    ~note:
      "\nmark output is byte-identical for every domain count (canonical \
       chunk-order merge); throughput is the deterministic cost-model \
       projection: one marker streams 4 B/cycle, DRAM feeds 16 B/cycle, so \
       scaling saturates at 4 domains\n"
    ~ok:
      (Printf.sprintf
         "identical swept bytes at every domain count; best modeled mark \
          speedup at 4 domains: %.2fx (saturates at the DRAM-bandwidth wall)\n")

(* End-to-end sweep-cycle projection of the staged pipeline: the modeled
   sequential total (mark + merge + release + purge, single-threaded)
   against the overlapped schedule where the mark runs on the marker
   domains and batched stages overlap across the cycle. Charging stays
   domain-independent — both totals are pure [sweep.stage.*] projections
   — so swept bytes must be byte-identical at every domain count. *)
let sweep_pipeline env =
  across_domains env
    ~title:
      "Extension: staged sweep pipeline (mark/merge/release/purge overlap \
       across domains)"
    ~columns:
      [
        "benchmark"; "swept MB"; "seq Mcyc"; "cycle speedup d2";
        "cycle speedup d4"; "cycle speedup d8"; "flush batches";
      ]
      (* [sweep.stage.seq_cycles_est] accumulates the single-threaded
         stage totals per sweep, [sweep.stage.pipeline_cycles_est] the
         overlapped schedule — their ratio is the modeled end-to-end
         sweep-cycle speedup. *)
    ~speedup:(fun r ->
      let pipe = metric r "sweep.stage.pipeline_cycles_est" in
      if pipe > 0.0 then metric r "sweep.stage.seq_cycles_est" /. pipe
      else 1.0)
    ~cells:(fun at ->
      ( metric (at 1) "sweep.stage.seq_cycles_est" /. 1e6,
        metric (at 4) "sweep.stage.flush_batches" ))
    ~min_speedup:2.0 ~what:"end-to-end sweep-cycle speedup"
    ~note:
      "\nthe pipeline is a modeled projection over per-stage cycle reports \
       (sweep.stage.*): marking parallelises across domains while batched \
       release/purge overlap the next batch's merge; simulated charging is \
       domain-independent, so every export outside par.*/sweep.stage.* is \
       byte-identical at any domain count\n"
    ~ok:
      (Printf.sprintf
         "identical swept bytes at every domain count; best modeled \
          sweep-cycle speedup at 4 domains: %.2fx\n")

(* The trace of a profile at the environment's scale. *)
let scaled_trace env p =
  Workloads.Trace.generate
    (if env.scale = 1.0 then p else Workloads.Profile.scale_ops env.scale p)

(* Static-vs-dynamic differential: run the flowcheck analyzer (one pass,
   no replay) next to one replay under the differential sweep oracle on
   every mimalloc-bench profile, and certify the two contracts the
   static side makes: its occupancy/swept/sweep-count bounds dominate
   the measured ms.* telemetry, and every dynamic oracle finding was
   statically predicted (zero static false negatives). *)
let static_bounds env =
  let mb v = float_of_int v /. 1048576. in
  let table =
    Report.Table.create
      ~columns:
        [
          "benchmark"; "occ bound MB"; "peak occ MB"; "swept bound MB";
          "swept MB"; "sweeps <="; "sweeps"; "pred ret"; "dyn ret"; "miss";
        ]
  in
  let failed = ref [] in
  List.iter
    (fun (p : Workloads.Profile.t) ->
      let bench = p.Workloads.Profile.name in
      if env.verbose then Printf.eprintf "  [static] mimalloc/%s\n%!" bench;
      let trace = scaled_trace env p in
      let sr = Flowcheck.Report.analyze_trace trace in
      (* The dynamic side: a replay under the default MineSweeper stack
         with the differential oracle laid over it. The instance's
         registry carries the measured quarantine occupancy and sweep
         totals, and every ground-truth finding must have been predicted
         statically. *)
      let module Oracle = Sanitizer.Sweep_oracle in
      let stack =
        Workloads.Harness.fresh
          (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
          ~threads:trace.Workloads.Trace.threads
      in
      let ms = Workloads.Harness.instance stack in
      let oracle = Oracle.attach ~audit:false ms in
      Workloads.Trace.run trace stack.Workloads.Harness.machine
        (Oracle.layer oracle
           Workloads.Trace.(ticking stack (serve stack)));
      let orc = Oracle.finish oracle ~trace_name:trace.Workloads.Trace.name in
      let read name =
        Option.value ~default:0
          (Obs.Registry.read (Minesweeper.Instance.registry ms) name)
      in
      let peak = read "ms.peak_quarantine_bytes" in
      let swept = read "ms.swept_bytes" in
      let sweeps = read "ms.sweeps" in
      let diag d =
        flag failed "mimalloc/%s: %s" bench (Sanitizer.Diagnostic.to_string d)
      in
      List.iter diag
        (Flowcheck.Report.check_bounds sr ~policy:"minesweeper"
           ~peak_quarantine_bytes:peak ~swept_bytes:swept ~sweeps);
      let misses =
        Oracle.certify_static
          ~predicted_unsound:sr.Flowcheck.Report.predicted_unsound
          ~predicted_retained:sr.Flowcheck.Report.predicted_retained orc
      in
      List.iter diag misses;
      let b =
        List.find
          (fun (b : Flowcheck.Policy.bounds) ->
            b.Flowcheck.Policy.policy = "minesweeper")
          sr.Flowcheck.Report.bounds
      in
      Report.Table.add_row table ("mimalloc/" ^ bench)
        [
          mb b.Flowcheck.Policy.occupancy_bound;
          mb peak;
          mb b.Flowcheck.Policy.swept_bytes_bound;
          mb swept;
          float_of_int b.Flowcheck.Policy.sweeps_bound;
          float_of_int sweeps;
          float_of_int (List.length sr.Flowcheck.Report.predicted_retained);
          float_of_int (List.length orc.Oracle.retained_ids);
          float_of_int (List.length misses);
        ])
    Workloads.Mimalloc_bench.all;
  checked "Extension: static dataflow bounds vs dynamic replay (mimalloc-bench)"
    ~ok:
      "static bounds dominate every measured ms.* value and every dynamic \
       oracle finding was statically predicted (zero false negatives)\n"
    !failed
    (Report.Table.render table
    ^ "\nthe static analyzer sees the trace once, with no allocator, no \
       virtual memory and no sweep schedule: its occupancy bound is the \
       sum of freed usable bytes, its sweep bounds assume the DESIGN \
       paragraph-11 fragmentation factor; the dynamic columns come from the \
       ms.* telemetry of a real replay and the differential oracle\n")

(* Pooled landscape: the siteflow pooling analysis across the whole
   mimalloc-bench suite. For every profile, derive the pool plan from
   the trace, replay under the analysis-driven pooled backend with the
   differential UAF oracle attached, and certify both halves of the
   static contract: zero unsound recycles (no pool re-serves a base
   with live recorded pointers into it), and every static
   occupancy/footprint/retired bound dominates the backend's final
   pool telemetry. An identity-plan baseline (one recycling pool per
   site, no analysis) runs alongside to show what the merge pass is
   protecting against. *)
let pooled_landscape env =
  let mb v = float_of_int v /. 1048576. in
  let table =
    Report.Table.create
      ~columns:
        [
          "benchmark"; "sites"; "pools"; "retiring"; "occ bound MB";
          "peak occ MB"; "fp bound MB"; "fp MB"; "ret bound MB"; "ret MB";
          "recycled"; "unsound"; "base unsound";
        ]
  in
  let failed = ref [] in
  List.iter
    (fun (p : Workloads.Profile.t) ->
      let bench = p.Workloads.Profile.name in
      if env.verbose then Printf.eprintf "  [pooled] mimalloc/%s\n%!" bench;
      let trace = scaled_trace env p in
      let plan = Flowcheck.Poolplan.of_trace trace in
      let orc =
        Sanitizer.Pool_oracle.run
          ~plan:(Flowcheck.Poolplan.to_alloc_plan plan) trace
      in
      List.iter
        (fun d ->
          flag failed "mimalloc/%s: %s" bench
            (Sanitizer.Diagnostic.to_string d))
        (Sanitizer.Pool_oracle.certify orc);
      List.iter
        (fun (c : Flowcheck.Poolplan.bound_check) ->
          if not c.Flowcheck.Poolplan.holds then
            flag failed "mimalloc/%s: pool %d %s bound %d < measured %d" bench
              c.Flowcheck.Poolplan.check_pool c.Flowcheck.Poolplan.metric
              c.Flowcheck.Poolplan.bound c.Flowcheck.Poolplan.measured)
        (Flowcheck.Poolplan.check_pool_stats plan
           orc.Sanitizer.Pool_oracle.pool_stats);
      (* Unsafe baseline: the identity plan recycles per site with no
         exposure analysis; its unsound count is what the merge pass
         must drive to zero. *)
      let base = Sanitizer.Pool_oracle.run trace in
      let sum f =
        Array.fold_left
          (fun acc s -> acc + f s)
          0 orc.Sanitizer.Pool_oracle.pool_stats
      in
      let bound f =
        List.fold_left
          (fun acc (pl : Flowcheck.Poolplan.pool) -> acc + f pl)
          0 plan.Flowcheck.Poolplan.pools
      in
      let retiring =
        List.length
          (List.filter
             (fun (pl : Flowcheck.Poolplan.pool) ->
               not pl.Flowcheck.Poolplan.recycles)
             plan.Flowcheck.Poolplan.pools)
      in
      Report.Table.add_row table ("mimalloc/" ^ bench)
        [
          float_of_int plan.Flowcheck.Poolplan.site_count;
          float_of_int plan.Flowcheck.Poolplan.pool_count;
          float_of_int retiring;
          mb (bound (fun pl -> pl.Flowcheck.Poolplan.occupancy_bound));
          mb (sum (fun s -> s.Alloc.Poolalloc.peak_live_bytes));
          mb (bound (fun pl -> pl.Flowcheck.Poolplan.footprint_bound));
          mb (sum (fun s -> s.Alloc.Poolalloc.footprint_bytes));
          mb (bound (fun pl -> pl.Flowcheck.Poolplan.retired_bound));
          mb (sum (fun s -> s.Alloc.Poolalloc.retired_bytes));
          float_of_int orc.Sanitizer.Pool_oracle.recycled;
          float_of_int (List.length orc.Sanitizer.Pool_oracle.unsound_ids);
          float_of_int (List.length base.Sanitizer.Pool_oracle.unsound_ids);
        ])
    Workloads.Mimalloc_bench.all;
  checked "Extension: analysis-driven pooled backend landscape (mimalloc-bench)"
    ~ok:
      "every profile certified: zero unsound recycles under the siteflow \
       plan and every static occupancy/footprint/retired bound dominates \
       the pooled backend's telemetry\n"
    !failed
    (Report.Table.render table
    ^ "\nthe pooled backend has no quarantine and no sweeps: UAF freedom \
       is the siteflow plan's static claim, certified here by the \
       differential oracle (ptrtrack ground truth at every re-served \
       base); 'base unsound' is the identity plan — one recycling pool \
       per site, no exposure analysis — on the same trace\n")

(* ------------------------------------------------------------------ *)
(* Tail latency: the server-traffic family under an open-loop load     *)
(* generator — p50/p99/p999 total and stall-induced latency per        *)
(* backend, plus the vtable-hijack attack mounted under live traffic.  *)

let serve_backends =
  [ "baseline"; "minesweeper"; "minesweeper-mostly"; "markus"; "ffmalloc" ]

let run_server env ~(profile : Workloads.Server.profile) ~key =
  let cache_key = Printf.sprintf "serve/%s/%s" profile.Workloads.Server.name key in
  match Hashtbl.find_opt env.srv_cache cache_key with
  | Some r -> r
  | None ->
    if env.verbose then Printf.eprintf "  [serve] %s\n%!" cache_key;
    let r = Workloads.Server.run ~scale:env.scale profile (resolve key) in
    Hashtbl.replace env.srv_cache cache_key r;
    r

let tail_latency env =
  let table =
    Report.Table.create
      ~columns:
        [
          "profile/scheme"; "lat p50"; "lat p99"; "lat p999"; "stall p50";
          "stall p99"; "stall p999"; "max queue"; "served %";
        ]
  in
  let failed = ref [] in
  let flag fmt = flag failed fmt in
  List.iter
    (fun (profile : Workloads.Server.profile) ->
      let pname = profile.Workloads.Server.name in
      let baseline_arrivals = ref None in
      List.iter
        (fun key ->
          let r = run_server env ~profile ~key in
          let q = r.Workloads.Server.latency in
          let s = r.Workloads.Server.stall_latency in
          let mono (x : Workloads.Server.quantiles) =
            x.Workloads.Server.p50 <= x.Workloads.Server.p99 +. 1e-9
            && x.Workloads.Server.p99 <= x.Workloads.Server.p999 +. 1e-9
          in
          if not (mono q && mono s) then
            flag "%s/%s: quantiles not monotone" pname key;
          if s.Workloads.Server.p999 > q.Workloads.Server.p999 +. 1e-9 then
            flag "%s/%s: stall latency exceeds total latency" pname key;
          (* Open-loop property: every backend sees the same offered
             timeline; a scheme whose stalls perturbed arrivals would
             mean the loop was closed somewhere. *)
          (match !baseline_arrivals with
          | None -> baseline_arrivals := Some r.Workloads.Server.arrivals
          | Some a ->
            if a <> r.Workloads.Server.arrivals then
              flag "%s/%s: arrivals depend on the backend (loop closed)" pname
                key);
          let served =
            if r.Workloads.Server.requests = 0 then 100.
            else
              100.
              *. float_of_int r.Workloads.Server.completed
              /. float_of_int r.Workloads.Server.requests
          in
          Report.Table.add_row table
            (Printf.sprintf "%s/%s" pname key)
            [
              q.Workloads.Server.p50; q.Workloads.Server.p99;
              q.Workloads.Server.p999; s.Workloads.Server.p50;
              s.Workloads.Server.p99; s.Workloads.Server.p999;
              float_of_int r.Workloads.Server.max_queue_depth; served;
            ])
        serve_backends)
    Workloads.Server.profiles;
  (* The exploit, mounted while traffic flows: recycling allocators hand
     the victim slot to the attacker's spray; MineSweeper's quarantine
     (the dangling global is swept) must keep the call benign. *)
  let attack_lines =
    List.map
      (fun key ->
        if env.verbose then Printf.eprintf "  [serve-attack] %s\n%!" key;
        let stack =
          Workloads.Harness.build (resolve key) ~threads:1
            (Alloc.Machine.create ())
        in
        let profile =
          Workloads.Server.scale env.scale
            (Option.get (Workloads.Server.find "steady"))
        in
        let outcome, r = Attack.hijack_under_traffic ~profile stack in
        (match (key, outcome) with
        | "baseline", Attack.Exploited -> ()
        | "baseline", _ ->
          flag "attack-under-traffic: baseline was not exploited"
        | _, Attack.Exploited ->
          flag "attack-under-traffic: %s exploited under live traffic" key
        | _, (Attack.Prevented_fault | Attack.Benign) -> ());
        Printf.sprintf "  %-20s %s  (%d requests served during the attack)" key
          (Attack.describe outcome) r.Workloads.Server.completed)
      [ "baseline"; "minesweeper"; "minesweeper-mostly" ]
  in
  checked "Extension: tail latency under server traffic (open-loop generator)"
    ~ok:
      "quantiles monotone, stall latency bounded by total latency, arrivals \
       identical across backends (open loop), attack outcomes as expected\n"
    !failed
    (Report.Table.render table
    ^ "\nlatency in simulated cycles; 'stall' columns are the \
       stall-induced share (coupled stall-free Lindley queue on the same \
       arrivals); profiles: "
    ^ String.concat ", "
        (List.map
           (fun (p : Workloads.Server.profile) ->
             p.Workloads.Server.name ^ " = "
             ^ Sim.Arrival.describe p.Workloads.Server.arrival)
           Workloads.Server.profiles)
    ^ "\n\nvtable hijack under live traffic (steady profile):\n"
    ^ String.concat "\n" attack_lines
    ^ "\n\n")

let fleet_pressure env =
  (* The noisy-neighbour scenario: one slow-leak tenant plus four steady
     ones share a machine under the default physical budget. Each steady
     tenant is also re-run in isolation on the very seed the fleet hands
     it, so the arrival timelines are identical and any tail-latency
     difference is machine interference, not load. *)
  let backends = [ "minesweeper"; "minesweeper-mostly"; "markus"; "ffmalloc" ] in
  let seed = 9100 in
  let budget = Fleet.default_budget in
  let table =
    Report.Table.create
      ~columns:
        [
          "backend/purge order"; "peak MiB"; "raw MiB"; "press"; "recl";
          "kills"; "nbr stall p99"; "iso stall p99"; "fleet lat p99";
        ]
  in
  let failed = ref [] in
  let flag fmt = flag failed fmt in
  let mib b = float_of_int b /. (1024. *. 1024.) in
  List.iter
    (fun key ->
      let scheme = resolve key in
      let specs = Fleet.noisy_neighbour scheme in
      let iso =
        List.mapi
          (fun i (spec : Fleet.tenant_spec) ->
            if i = 0 then None (* the leaker is the perturbation, not a probe *)
            else begin
              if env.verbose then
                Printf.eprintf "  [fleet-iso] %s/%s\n%!" key spec.Fleet.tname;
              Some
                (Workloads.Server.run ~scale:env.scale
                   ~seed:(Sim.Rng.split_seed ~seed ~index:i)
                   spec.Fleet.profile scheme)
            end)
          specs
      in
      List.iter
        (fun order ->
          if env.verbose then
            Printf.eprintf "  [fleet] %s/%s\n%!" key
              (Fleet.purge_order_name order);
          let cfg = Fleet.config ~budget ~purge_order:order () in
          let r = Fleet.run ~scale:env.scale ~seed cfg specs in
          if r.Fleet.committed_peak > budget then
            flag "%s/%s: committed peak %d bytes exceeds the %d-byte budget"
              key (Fleet.purge_order_name order) r.Fleet.committed_peak budget;
          let nbr_p99 = ref 0. and iso_p99 = ref 0. in
          List.iteri
            (fun i (tr : Fleet.tenant_result) ->
              match List.nth iso i with
              | None -> ()
              | Some (base : Workloads.Server.result) ->
                let fs = tr.Fleet.server in
                if
                  fs.Workloads.Server.arrivals
                  <> base.Workloads.Server.arrivals
                then
                  flag "%s/%s: %s arrivals differ from isolation (loop closed)"
                    key (Fleet.purge_order_name order) tr.Fleet.name;
                let fp =
                  fs.Workloads.Server.stall_latency.Workloads.Server.p99
                in
                let bp =
                  base.Workloads.Server.stall_latency.Workloads.Server.p99
                in
                nbr_p99 := Float.max !nbr_p99 fp;
                iso_p99 := Float.max !iso_p99 bp;
                (* The acceptance property: a neighbour that absorbed
                   interference must show it in its stall tail. Backends
                   that inject nothing (ffmalloc never sweeps) are
                   exempt from strictness. *)
                if tr.Fleet.injected_stall_cycles > 0 && fp <= bp then
                  flag
                    "%s/%s: %s p99 stall %.0f not above isolation %.0f \
                     despite %d injected cycles"
                    key (Fleet.purge_order_name order) tr.Fleet.name fp bp
                    tr.Fleet.injected_stall_cycles)
            r.Fleet.tenants;
          Report.Table.add_row table
            (Printf.sprintf "%s/%s" key (Fleet.purge_order_name order))
            [
              mib r.Fleet.committed_peak; mib r.Fleet.committed_peak_raw;
              float_of_int r.Fleet.pressure_events;
              float_of_int r.Fleet.total_reclaims;
              float_of_int r.Fleet.oom_kills; !nbr_p99; !iso_p99;
              r.Fleet.agg_latency.Workloads.Server.p99;
            ])
        [ Fleet.Largest_quarantine; Fleet.Round_robin_purge ])
    backends;
  checked "Extension: multi-tenant fleet under a shared physical-page budget"
    ~ok:
      "committed peak within budget for every backend and purge order, \
       arrivals identical to isolation (open loop preserved across the \
       fleet), neighbour p99 stall strictly above isolation wherever \
       interference was injected\n"
    !failed
    (Report.Table.render table
    ^ "\none slow-leak tenant + 4 steady tenants per row; 'nbr stall p99' \
       is the worst steady tenant's stall-latency tail inside the fleet, \
       'iso stall p99' the same tenant alone on the machine (same seed, \
       same arrivals); 'press'/'recl'/'kills' count pressure events, \
       forced reclaims and OOM kills under the "
    ^ string_of_int (Fleet.default_budget / (1024 * 1024))
    ^ " MiB budget\n\n")

let all_figures =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18);
    ("fig19", fig19);
    ("scudo", scudo_table);
    ("ptrtrack", ptrtrack_table);
    ("ablation-threshold", ablation_threshold);
    ("ablation-granule", ablation_granule);
    ("ablation-helpers", ablation_helpers);
    ("incremental-sweep", incremental_sweep);
    ("parallel-mark", parallel_mark);
    ("sweep-pipeline", sweep_pipeline);
    ("static-bounds", static_bounds);
    ("pooled-landscape", pooled_landscape);
    ("tail-latency", tail_latency);
    ("fleet-pressure", fleet_pressure);
  ]

let select_figures = function
  | None -> Ok all_figures
  | Some ids -> (
    match List.filter (fun id -> not (List.mem_assoc id all_figures)) ids with
    | [] -> Ok (List.filter (fun (key, _) -> List.mem key ids) all_figures)
    | unknown -> Error unknown)
