(* Static allocation-site pooling analysis (lib/flowcheck siteflow +
   poolplan) and its differential contract: plans derived from the
   analysis are certified UAF-free by the pooled oracle, static pool
   bounds dominate the backend's live telemetry, and the plan is a pure
   function of the op sequence. *)

let flow_of_text text =
  Flowcheck.Siteflow.analyze (Workloads.Trace.stream_of_string text)

let plan_of_text text =
  Flowcheck.Poolplan.of_trace (Workloads.Trace.of_string text)

let test_clean_sites_share_one_pool () =
  let plan =
    plan_of_text "# msweep-trace v1 t\n# sites 3\na 0 64 1\nx 0\na 1 32 2\nx 1\n"
  in
  Alcotest.(check int) "three sites" 3 plan.Flowcheck.Poolplan.site_count;
  Alcotest.(check int) "one shared pool" 1 plan.Flowcheck.Poolplan.pool_count;
  (match plan.Flowcheck.Poolplan.pools with
  | [ p ] ->
    Alcotest.(check bool) "shared pool recycles" true
      p.Flowcheck.Poolplan.recycles;
    Alcotest.(check (list int)) "all sites are members" [ 0; 1; 2 ]
      p.Flowcheck.Poolplan.members
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 pool, got %d" (List.length ps)));
  let s = plan.Flowcheck.Poolplan.flow.Flowcheck.Siteflow.summaries.(1) in
  Alcotest.(check int) "site 1 alloc counted" 1 s.Flowcheck.Siteflow.allocs;
  Alcotest.(check bool) "site 1 unexposed" false
    (s.Flowcheck.Siteflow.ptr_exposed || s.Flowcheck.Siteflow.alias_exposed
   || s.Flowcheck.Siteflow.wild_exposed)

let test_ptr_exposure_retires () =
  (* root[1] still points at id 0 (site 1) when it dies: the site can
     never be recycled. Site 0 stays clean and keeps its own pool. *)
  let plan =
    plan_of_text
      "# msweep-trace v1 t\n# sites 2\na 1 64 0\na 0 64 1\np r 1 0\nx 0\nx 1\n"
  in
  let flow = plan.Flowcheck.Poolplan.flow in
  Alcotest.(check bool) "site 1 ptr-exposed" true
    flow.Flowcheck.Siteflow.summaries.(1).Flowcheck.Siteflow.ptr_exposed;
  Alcotest.(check bool) "site 0 clean" false
    flow.Flowcheck.Siteflow.summaries.(0).Flowcheck.Siteflow.ptr_exposed;
  Alcotest.(check int) "two pools" 2 plan.Flowcheck.Poolplan.pool_count;
  let pool_of site = plan.Flowcheck.Poolplan.pool_of_site.(site) in
  Alcotest.(check bool) "sites separated" true (pool_of 0 <> pool_of 1);
  let p1 =
    List.find
      (fun p -> p.Flowcheck.Poolplan.id = pool_of 1)
      plan.Flowcheck.Poolplan.pools
  in
  Alcotest.(check bool) "site 1's pool retires" false
    p1.Flowcheck.Poolplan.recycles;
  Alcotest.(check bool) "retired bound covers the freed slot" true
    (p1.Flowcheck.Poolplan.retired_bound >= 64)

let test_alias_isolates_site () =
  (* A data word aliasing id 0 survives its free: site 1 may still
     recycle (same-site reuse is type-compatible) but must do it alone.
     Sites 0 and 2 share the clean pool. *)
  let plan =
    plan_of_text
      "# msweep-trace v1 t\n\
       # sites 3\n\
       a 1 64 0\na 2 64 2\na 0 64 1\nd r 2 -1\nx 0\nx 1\nx 2\n"
  in
  let flow = plan.Flowcheck.Poolplan.flow in
  Alcotest.(check bool) "site 1 alias-exposed" true
    flow.Flowcheck.Siteflow.summaries.(1).Flowcheck.Siteflow.alias_exposed;
  Alcotest.(check bool) "site 1 not ptr-exposed" false
    flow.Flowcheck.Siteflow.summaries.(1).Flowcheck.Siteflow.ptr_exposed;
  Alcotest.(check int) "clean pool + singleton" 2
    plan.Flowcheck.Poolplan.pool_count;
  let pool_of site = plan.Flowcheck.Poolplan.pool_of_site.(site) in
  Alcotest.(check int) "sites 0 and 2 share" (pool_of 0) (pool_of 2);
  Alcotest.(check bool) "site 1 alone" true (pool_of 1 <> pool_of 0);
  let p1 =
    List.find
      (fun p -> p.Flowcheck.Poolplan.id = pool_of 1)
      plan.Flowcheck.Poolplan.pools
  in
  Alcotest.(check bool) "singleton still recycles" true
    p1.Flowcheck.Poolplan.recycles;
  Alcotest.(check (list int)) "singleton member" [ 1 ]
    p1.Flowcheck.Poolplan.members

let test_wild_treated_as_alias () =
  let wild = 0x4000_0000 in
  let flow =
    flow_of_text
      (Printf.sprintf "# msweep-trace v1 t\n# sites 2\na 0 64 1\nd r 1 %d\nx 0\n"
         wild)
  in
  Alcotest.(check bool) "wild exposure recorded" true
    flow.Flowcheck.Siteflow.summaries.(1).Flowcheck.Siteflow.wild_exposed;
  let plan = Flowcheck.Poolplan.build flow in
  let p =
    List.find
      (fun p ->
        p.Flowcheck.Poolplan.id = plan.Flowcheck.Poolplan.pool_of_site.(1))
      plan.Flowcheck.Poolplan.pools
  in
  Alcotest.(check bool) "wild site is isolated but recycling" true
    (p.Flowcheck.Poolplan.recycles
    && p.Flowcheck.Poolplan.members = [ 1 ]
    && p.Flowcheck.Poolplan.reason = Flowcheck.Poolplan.Alias_isolated)

let test_out_of_range_site_clamped () =
  let flow = flow_of_text "# msweep-trace v1 t\n# sites 2\na 0 64 9\nx 0\n" in
  Alcotest.(check int) "clamp counted" 1 flow.Flowcheck.Siteflow.out_of_range;
  Alcotest.(check int) "accounted to site 0" 1
    flow.Flowcheck.Siteflow.summaries.(0).Flowcheck.Siteflow.allocs;
  Alcotest.(check int) "site 1 untouched" 0
    flow.Flowcheck.Siteflow.summaries.(1).Flowcheck.Siteflow.allocs

let test_pooled_usable_agrees () =
  (* The demand model's units are the backend's: usable_of_key after
     class_key_of_size must equal Policy.pooled_usable everywhere. *)
  List.iter
    (fun size ->
      Alcotest.(check int)
        (Printf.sprintf "pooled_usable %d" size)
        (Flowcheck.Policy.pooled_usable size)
        (Flowcheck.Siteflow.usable_of_key
           (Flowcheck.Siteflow.class_key_of_size size)))
    [ 0; 1; 7; 8; 16; 63; 64; 100; 112; 2048; 4095; 4096; 4097; 65536; 99999 ]

let test_bounds_math () =
  (* Two concurrent 64B objects, both freed, then one more: peak demand
     2 slots, total 3. The recycling bound rounds the peak to whole
     slabs; the retiring variant rounds the total and bounds retirement
     by the freed usable bytes. *)
  let text =
    "# msweep-trace v1 t\na 0 64\na 1 64\nx 0\nx 1\na 2 64\nx 2\n"
  in
  let plan = plan_of_text text in
  let cls = Alloc.Size_class.class_of_size 64 in
  let slab_bytes = Alloc.Size_class.slab_pages cls * Vmem.page_size in
  let slots = Alloc.Size_class.slab_slots cls in
  (match plan.Flowcheck.Poolplan.pools with
  | [ p ] ->
    Alcotest.(check int) "occupancy bound = peak usable" (2 * 64)
      p.Flowcheck.Poolplan.occupancy_bound;
    Alcotest.(check int) "footprint bound = peak demand in whole slabs"
      ((2 + slots - 1) / slots * slab_bytes)
      p.Flowcheck.Poolplan.footprint_bound
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 pool, got %d" (List.length ps)));
  (* Force the retiring shape of the same demand via a pointer leak. *)
  let plan' =
    plan_of_text
      "# msweep-trace v1 t\na 0 64\np r 7 0\na 1 64\nx 0\nx 1\na 2 64\nx 2\n"
  in
  match plan'.Flowcheck.Poolplan.pools with
  | [ p ] ->
    Alcotest.(check bool) "leaked site retires" false
      p.Flowcheck.Poolplan.recycles;
    Alcotest.(check int) "retiring footprint rounds total demand"
      ((3 + slots - 1) / slots * slab_bytes)
      p.Flowcheck.Poolplan.footprint_bound;
    Alcotest.(check int) "retired bound = freed usable" (3 * 64)
      p.Flowcheck.Poolplan.retired_bound
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 pool, got %d" (List.length ps))

let test_plan_deterministic_and_chunk_independent () =
  let profile =
    Workloads.Profile.scale_ops 0.05 (Workloads.Mimalloc_bench.find "espresso")
  in
  let trace = Workloads.Trace.generate profile in
  let text = Workloads.Trace.to_string trace in
  let render_of plan =
    Flowcheck.Poolplan.render plan
    ^ Flowcheck.Poolplan.sites_json plan
    ^ Flowcheck.Poolplan.pools_json plan
  in
  let r1 = render_of (Flowcheck.Poolplan.of_trace trace) in
  let r2 = render_of (Flowcheck.Poolplan.of_trace trace) in
  Alcotest.(check string) "byte-identical across runs" r1 r2;
  List.iter
    (fun chunk_ops ->
      let st = Workloads.Trace.stream_of_string ~chunk_ops text in
      let r = render_of (Flowcheck.Poolplan.of_stream st) in
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d changes nothing" chunk_ops)
        r1 r)
    [ 1; 7; 4096 ]

(* Poolplan.t is a total partition of the declared sites, for arbitrary
   generator parameters and chunk sizes. *)
let prop_plan_total_partition =
  QCheck.Test.make ~name:"pool plan is a total partition of sites" ~count:40
    QCheck.(
      triple (int_range 1 6) (int_range 0 1_000_000) (int_range 1 257))
    (fun (sites, seed, chunk_ops) ->
      let profile =
        Workloads.Profile.make ~name:"prop" ~suite:"test" ~ops:300
          ~size:(Sim.Dist.uniform ~lo:8 ~hi:256)
          ~lifetime:(Sim.Dist.exponential ~mean:60.)
          ~work_per_op:10 ~sites ()
      in
      let trace = Workloads.Trace.generate ~seed profile in
      let st =
        Workloads.Trace.stream_of_string ~chunk_ops
          (Workloads.Trace.to_string trace)
      in
      let plan = Flowcheck.Poolplan.of_stream st in
      let n = plan.Flowcheck.Poolplan.site_count in
      let total =
        Array.length plan.Flowcheck.Poolplan.pool_of_site = n
        && Array.for_all
             (fun p -> p >= 0 && p < plan.Flowcheck.Poolplan.pool_count)
             plan.Flowcheck.Poolplan.pool_of_site
      in
      let members =
        List.concat_map
          (fun p -> p.Flowcheck.Poolplan.members)
          plan.Flowcheck.Poolplan.pools
      in
      let partition =
        List.sort_uniq compare members = List.init n Fun.id
        && List.length members = n
        && List.for_all
             (fun p ->
               List.for_all
                 (fun s -> plan.Flowcheck.Poolplan.pool_of_site.(s) = p.Flowcheck.Poolplan.id)
                 p.Flowcheck.Poolplan.members)
             plan.Flowcheck.Poolplan.pools
      in
      let alloc_plan = Flowcheck.Poolplan.to_alloc_plan plan in
      let runtime =
        alloc_plan.Alloc.Poolalloc.sites = n
        && alloc_plan.Alloc.Poolalloc.pools = plan.Flowcheck.Poolplan.pool_count
      in
      total && partition && runtime)

let test_oracle_detects_unsound_baseline () =
  (* Under the no-analysis identity plan every pool recycles: the freed
     slot is re-served for id 1 while root[1] still points at id 0 —
     the oracle must flag it. *)
  let trace =
    Workloads.Trace.of_string
      "# msweep-trace v1 bad\na 0 64\np r 1 0\nx 0\na 1 64\n"
  in
  let r = Sanitizer.Pool_oracle.run trace in
  Alcotest.(check int) "one recycle" 1 r.Sanitizer.Pool_oracle.recycled;
  Alcotest.(check (list int)) "unsound recycle flagged" [ 0 ]
    r.Sanitizer.Pool_oracle.unsound_ids;
  Alcotest.(check bool) "certify reports the miss" true
    (Sanitizer.Pool_oracle.certify r <> [])

let test_analysis_plan_is_certified () =
  (* Same trace, analysis-derived plan: site 0 is pointer-exposed, so
     its pool retires and the unsound recycle cannot happen. *)
  let trace =
    Workloads.Trace.of_string
      "# msweep-trace v1 bad\na 0 64\np r 1 0\nx 0\na 1 64\n"
  in
  let plan = Flowcheck.Poolplan.of_trace trace in
  let r =
    Sanitizer.Pool_oracle.run
      ~plan:(Flowcheck.Poolplan.to_alloc_plan plan)
      trace
  in
  Alcotest.(check int) "no recycle at all" 0 r.Sanitizer.Pool_oracle.recycled;
  Alcotest.(check (list int)) "zero unsound" []
    r.Sanitizer.Pool_oracle.unsound_ids;
  Alcotest.(check (list string)) "certified" []
    (List.map Sanitizer.Diagnostic.to_string (Sanitizer.Pool_oracle.certify r))

(* The acceptance contract, in miniature per profile: every
   mimalloc-bench trace's analysis plan is certified UAF-free by the
   differential oracle, and the static pool bounds dominate the pooled
   backend's telemetry with zero misses. *)
let test_mimalloc_certified_and_bounded () =
  List.iter
    (fun profile ->
      let profile = Workloads.Profile.scale_ops 0.02 profile in
      let name = profile.Workloads.Profile.name in
      let trace = Workloads.Trace.generate profile in
      let plan = Flowcheck.Poolplan.of_trace trace in
      let r =
        Sanitizer.Pool_oracle.run
          ~plan:(Flowcheck.Poolplan.to_alloc_plan plan)
          trace
      in
      Alcotest.(check (list string))
        (name ^ ": zero unsound recycles")
        []
        (List.map Sanitizer.Diagnostic.to_string
           (Sanitizer.Pool_oracle.certify r));
      let checks =
        Flowcheck.Poolplan.check_pool_stats plan r.Sanitizer.Pool_oracle.pool_stats
      in
      Alcotest.(check bool) (name ^ ": bounds computed") true (checks <> []);
      List.iter
        (fun (c : Flowcheck.Poolplan.bound_check) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: pool %d %s %d <= %d" name
               c.Flowcheck.Poolplan.check_pool c.Flowcheck.Poolplan.metric
               c.Flowcheck.Poolplan.measured c.Flowcheck.Poolplan.bound)
            true c.Flowcheck.Poolplan.holds)
        checks)
    Workloads.Mimalloc_bench.all

let test_server_trace_certified () =
  match Workloads.Server.find "steady" with
  | None -> Alcotest.fail "server profile missing"
  | Some profile ->
    let profile = Workloads.Server.scale 0.1 profile in
    let trace = Workloads.Server.program profile in
    Alcotest.(check int) "server traces declare semantic sites" 2
      trace.Workloads.Trace.sites;
    let plan = Flowcheck.Poolplan.of_trace trace in
    let r =
      Sanitizer.Pool_oracle.run
        ~plan:(Flowcheck.Poolplan.to_alloc_plan plan)
        trace
    in
    Alcotest.(check (list string)) "server plan certified" []
      (List.map Sanitizer.Diagnostic.to_string
         (Sanitizer.Pool_oracle.certify r));
    List.iter
      (fun (c : Flowcheck.Poolplan.bound_check) ->
        Alcotest.(check bool)
          (Printf.sprintf "server pool %d %s holds"
             c.Flowcheck.Poolplan.check_pool c.Flowcheck.Poolplan.metric)
          true c.Flowcheck.Poolplan.holds)
      (Flowcheck.Poolplan.check_pool_stats plan r.Sanitizer.Pool_oracle.pool_stats)

let test_bound_check_detector_fires () =
  let plan = plan_of_text "# msweep-trace v1 t\na 0 64\nx 0\n" in
  let forged =
    Array.map
      (fun (s : Alloc.Poolalloc.pool_stats) ->
        { s with Alloc.Poolalloc.footprint_bytes = max_int })
      (let r = Sanitizer.Pool_oracle.run (Workloads.Trace.of_string "# msweep-trace v1 t\na 0 64\nx 0\n") in
       r.Sanitizer.Pool_oracle.pool_stats)
  in
  let checks = Flowcheck.Poolplan.check_pool_stats plan forged in
  Alcotest.(check bool) "forged footprint is flagged" true
    (List.exists
       (fun (c : Flowcheck.Poolplan.bound_check) ->
         c.Flowcheck.Poolplan.metric = "footprint" && not c.Flowcheck.Poolplan.holds)
       checks);
  Alcotest.check_raises "pool count mismatch rejected"
    (Invalid_argument "Poolplan.check_pool_stats: pool count mismatch")
    (fun () -> ignore (Flowcheck.Poolplan.check_pool_stats plan [||]))

(* Schema v2: carries site/pool records, stays v1-parseable. *)
let test_json_v2_schema () =
  let trace =
    Workloads.Trace.of_string
      "# msweep-trace v1 t\n# sites 2\na 0 64 1\np r 1 0\nx 0\n"
  in
  let report = Flowcheck.Report.analyze_trace trace in
  let plan = Flowcheck.Poolplan.of_trace trace in
  let doc = Flowcheck.Report.to_json ~pools:plan report in
  Alcotest.(check (option string)) "schema bumped"
    (Some "\"msweep-flowcheck-v2\"")
    (Flowcheck.Report.json_field doc "schema");
  Alcotest.(check bool) "sites array present" true
    (match Flowcheck.Report.json_field doc "sites" with
    | Some s -> String.length s > 2
    | None -> false);
  Alcotest.(check bool) "pools array present" true
    (match Flowcheck.Report.json_field doc "pools" with
    | Some s -> String.length s > 2
    | None -> false);
  let doc' =
    Flowcheck.Report.to_json ~pools:(Flowcheck.Poolplan.of_trace trace)
      (Flowcheck.Report.analyze_trace trace)
  in
  Alcotest.(check string) "double run byte-identical" doc doc';
  (* Without the pooling analysis the arrays are empty but present. *)
  let bare = Flowcheck.Report.to_json report in
  Alcotest.(check (option string)) "empty sites" (Some "[]")
    (Flowcheck.Report.json_field bare "sites");
  (* A v1 document (no sites/pools fields) reads identically through
     the same tolerant extractor: v1 consumers survive the bump, and
     v2 readers survive v1 documents. *)
  let v1_doc =
    "{\"schema\":\"msweep-flowcheck-v1\",\"trace\":\"legacy {x} \\\"q\\\"\",\
     \"ops\":12,\"allocs\":3,\"frees\":2,\"findings\":[{\"rule\":\"flow-dangling\",\
     \"severity\":\"error\",\"op\":7,\"message\":\"a, b] c\"}],\
     \"predicted_unsound\":[0],\"bounds\":[]}"
  in
  Alcotest.(check (option string)) "v1 schema readable"
    (Some "\"msweep-flowcheck-v1\"")
    (Flowcheck.Report.json_field v1_doc "schema");
  Alcotest.(check (option string)) "v1 scalar field"
    (Some "12")
    (Flowcheck.Report.json_field v1_doc "ops");
  Alcotest.(check (option string)) "v1 nested array with tricky string"
    (Some
       "[{\"rule\":\"flow-dangling\",\"severity\":\"error\",\"op\":7,\
        \"message\":\"a, b] c\"}]")
    (Flowcheck.Report.json_field v1_doc "findings");
  Alcotest.(check (option string)) "absent field is None" None
    (Flowcheck.Report.json_field v1_doc "pools")

let suite =
  ( "siteflow",
    [
      Alcotest.test_case "clean sites share one pool" `Quick
        test_clean_sites_share_one_pool;
      Alcotest.test_case "ptr exposure retires" `Quick
        test_ptr_exposure_retires;
      Alcotest.test_case "alias isolates site" `Quick test_alias_isolates_site;
      Alcotest.test_case "wild treated as alias" `Quick
        test_wild_treated_as_alias;
      Alcotest.test_case "out-of-range site clamped" `Quick
        test_out_of_range_site_clamped;
      Alcotest.test_case "pooled usable agrees with policy" `Quick
        test_pooled_usable_agrees;
      Alcotest.test_case "bounds math" `Quick test_bounds_math;
      Alcotest.test_case "plan deterministic, chunk-independent" `Quick
        test_plan_deterministic_and_chunk_independent;
      QCheck_alcotest.to_alcotest prop_plan_total_partition;
      Alcotest.test_case "oracle flags unsound baseline" `Quick
        test_oracle_detects_unsound_baseline;
      Alcotest.test_case "analysis plan is certified" `Quick
        test_analysis_plan_is_certified;
      Alcotest.test_case "mimalloc-bench certified + bounded" `Slow
        test_mimalloc_certified_and_bounded;
      Alcotest.test_case "server trace certified" `Quick
        test_server_trace_certified;
      Alcotest.test_case "bound-check detector fires" `Quick
        test_bound_check_detector_fires;
      Alcotest.test_case "json schema v2" `Quick test_json_v2_schema;
    ] )
