(* Analysis-driven pooled backend (lib/alloc/poolalloc.ml): plan
   validation, site-keyed pool isolation, recycling vs retiring
   behaviour, and the no-cross-pool-reuse guarantee. *)

let machine () =
  let m = Alloc.Machine.create () in
  Alloc.Machine.map_roots m;
  m

let plan_two_pools ~recycles_a ~recycles_b =
  {
    Alloc.Poolalloc.sites = 4;
    pools = 2;
    pool_of_site = [| 0; 1; 0; 1 |];
    recycles = [| recycles_a; recycles_b |];
  }

let test_identity_plan () =
  let p = Alloc.Poolalloc.identity_plan ~sites:3 in
  Alcotest.(check int) "3 pools" 3 p.Alloc.Poolalloc.pools;
  Alcotest.(check (array int)) "identity map" [| 0; 1; 2 |]
    p.Alloc.Poolalloc.pool_of_site;
  Alcotest.(check bool) "all recycle" true
    (Array.for_all Fun.id p.Alloc.Poolalloc.recycles)

let test_plan_validation () =
  let bad pool_of_site recycles =
    {
      Alloc.Poolalloc.sites = 2;
      pools = 2;
      pool_of_site;
      recycles;
    }
  in
  Alcotest.check_raises "pool id out of range"
    (Invalid_argument "Poolalloc.plan: pool id out of range") (fun () ->
      ignore
        (Alloc.Poolalloc.create ~plan:(bad [| 0; 5 |] [| true; true |])
           (machine ())));
  Alcotest.check_raises "recycles length"
    (Invalid_argument "Poolalloc.plan: recycles length <> pools") (fun () ->
      ignore
        (Alloc.Poolalloc.create ~plan:(bad [| 0; 1 |] [| true |]) (machine ())))

let test_recycling_reuses_same_base () =
  let pa = Alloc.Poolalloc.create (machine ()) in
  let a = Alloc.Poolalloc.malloc pa 64 in
  Alloc.Poolalloc.free pa a;
  let b = Alloc.Poolalloc.malloc pa 64 in
  Alcotest.(check int) "freed slot recycled" a b;
  Alcotest.(check bool) "recycled slot is live" true
    (Alloc.Poolalloc.is_live pa b)

let test_retiring_never_reuses () =
  let plan =
    {
      Alloc.Poolalloc.sites = 1;
      pools = 1;
      pool_of_site = [| 0 |];
      recycles = [| false |];
    }
  in
  let pa = Alloc.Poolalloc.create ~plan (machine ()) in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 32 do
    let a = Alloc.Poolalloc.malloc pa 64 in
    Alcotest.(check bool) "retired base never re-served" false
      (Hashtbl.mem seen a);
    Hashtbl.replace seen a ();
    Alloc.Poolalloc.free pa a;
    Alcotest.(check bool) "retired slot is dead" false
      (Alloc.Poolalloc.is_live pa a)
  done;
  Alcotest.(check int) "retired bytes accounted" (32 * 64)
    (Alloc.Poolalloc.retired_bytes pa)

let test_no_cross_pool_reuse () =
  (* Sites 0/2 -> pool 0, sites 1/3 -> pool 1, both recycling: a slot
     freed by pool 0 must never be served to pool 1, even with
     identical size classes. *)
  let plan = plan_two_pools ~recycles_a:true ~recycles_b:true in
  let pa = Alloc.Poolalloc.create ~plan (machine ()) in
  let a = Alloc.Poolalloc.malloc_site pa ~site:0 64 in
  Alloc.Poolalloc.free pa a;
  let b = Alloc.Poolalloc.malloc_site pa ~site:1 64 in
  Alcotest.(check bool) "pool 1 does not get pool 0's slot" true (a <> b);
  Alcotest.(check (option int)) "a belongs to pool 0" (Some 0)
    (Alloc.Poolalloc.pool_of_addr pa a);
  Alcotest.(check (option int)) "b belongs to pool 1" (Some 1)
    (Alloc.Poolalloc.pool_of_addr pa b);
  (* Same-pool site sharing is allowed. *)
  let c = Alloc.Poolalloc.malloc_site pa ~site:2 64 in
  Alcotest.(check int) "site 2 recycles pool 0's slot" a c

let test_large_pool_isolation () =
  let plan = plan_two_pools ~recycles_a:true ~recycles_b:false in
  let pa = Alloc.Poolalloc.create ~plan (machine ()) in
  let size = 5 * Vmem.page_size in
  let a = Alloc.Poolalloc.malloc_site pa ~site:0 size in
  Alloc.Poolalloc.free pa a;
  let b = Alloc.Poolalloc.malloc_site pa ~site:0 size in
  Alcotest.(check int) "large range recycled within pool" a b;
  Alloc.Poolalloc.free pa b;
  let c = Alloc.Poolalloc.malloc_site pa ~site:1 size in
  Alcotest.(check bool) "retiring pool gets fresh space" true (b <> c);
  Alloc.Poolalloc.free pa c;
  let d = Alloc.Poolalloc.malloc_site pa ~site:3 size in
  Alcotest.(check bool) "retired large range never re-served" true (c <> d)

let test_site_clamping () =
  let plan = plan_two_pools ~recycles_a:true ~recycles_b:true in
  let pa = Alloc.Poolalloc.create ~plan (machine ()) in
  let a = Alloc.Poolalloc.malloc_site pa ~site:99 64 in
  Alcotest.(check (option int)) "out-of-range site lands in site 0's pool"
    (Some 0)
    (Alloc.Poolalloc.pool_of_addr pa a)

let test_pool_stats_and_telemetry () =
  let plan = plan_two_pools ~recycles_a:true ~recycles_b:false in
  let pa = Alloc.Poolalloc.create ~plan (machine ()) in
  let a = Alloc.Poolalloc.malloc_site pa ~site:0 100 in
  let b = Alloc.Poolalloc.malloc_site pa ~site:1 100 in
  ignore a;
  Alloc.Poolalloc.free pa b;
  let st = Alloc.Poolalloc.pool_stats pa in
  Alcotest.(check int) "two pools" 2 (Array.length st);
  Alcotest.(check bool) "pool 0 recycles" true
    st.(0).Alloc.Poolalloc.recycling;
  Alcotest.(check bool) "pool 1 retires" false
    st.(1).Alloc.Poolalloc.recycling;
  Alcotest.(check int) "pool 0 live = one 112B slot" 112
    st.(0).Alloc.Poolalloc.live_now_bytes;
  Alcotest.(check int) "pool 1 nothing live" 0
    st.(1).Alloc.Poolalloc.live_now_bytes;
  Alcotest.(check int) "pool 1 retired the slot" 112
    st.(1).Alloc.Poolalloc.retired_bytes;
  Alcotest.(check bool) "footprints are whole slabs" true
    (st.(0).Alloc.Poolalloc.footprint_bytes > 0
    && st.(0).Alloc.Poolalloc.footprint_bytes mod Vmem.page_size = 0);
  let reg = Obs.Registry.create () in
  Alloc.Poolalloc.attach_obs pa reg;
  let read name = Option.value ~default:min_int (Obs.Registry.read reg name) in
  Alcotest.(check int) "pool.pools gauge" 2 (read "pool.pools");
  Alcotest.(check int) "pool.retired_bytes gauge"
    (Alloc.Poolalloc.retired_bytes pa)
    (read "pool.retired_bytes");
  Alcotest.(check int) "alloc.mallocs counter" 2 (read "alloc.mallocs")

let test_allocation_containing () =
  let pa = Alloc.Poolalloc.create (machine ()) in
  let a = Alloc.Poolalloc.malloc pa 64 in
  (match Alloc.Poolalloc.allocation_containing pa (a + 32) with
  | Some (base, usable) ->
    Alcotest.(check int) "interior resolves to base" a base;
    Alcotest.(check int) "usable is the class size" 64 usable
  | None -> Alcotest.fail "interior pointer did not resolve");
  let big = Alloc.Poolalloc.malloc pa (3 * Vmem.page_size) in
  match Alloc.Poolalloc.allocation_containing pa (big + Vmem.page_size) with
  | Some (base, usable) ->
    Alcotest.(check int) "large interior resolves" big base;
    Alcotest.(check int) "large usable" (3 * Vmem.page_size) usable
  | None -> Alcotest.fail "large interior pointer did not resolve"

let suite =
  ( "poolalloc",
    [
      Alcotest.test_case "identity plan" `Quick test_identity_plan;
      Alcotest.test_case "plan validation" `Quick test_plan_validation;
      Alcotest.test_case "recycling reuses same base" `Quick
        test_recycling_reuses_same_base;
      Alcotest.test_case "retiring never reuses" `Quick
        test_retiring_never_reuses;
      Alcotest.test_case "no cross-pool reuse" `Quick test_no_cross_pool_reuse;
      Alcotest.test_case "large pool isolation" `Quick
        test_large_pool_isolation;
      Alcotest.test_case "site clamping" `Quick test_site_clamping;
      Alcotest.test_case "pool stats and telemetry" `Quick
        test_pool_stats_and_telemetry;
      Alcotest.test_case "allocation containing" `Quick
        test_allocation_containing;
    ] )
