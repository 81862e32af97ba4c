(* Telemetry subsystem tests: registry semantics, trace-ring bounds,
   export determinism, the instance's [ms.*] counters and the typed
   error API. *)

module R = Obs.Registry
module Ring = Obs.Trace_ring
module Export = Obs.Export
module I = Minesweeper.Instance
module C = Minesweeper.Config

let fresh ?config () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  (machine, I.create ?config machine)

let churn ms n size =
  for _ = 1 to n do
    let p = I.malloc ms size in
    I.free ms p
  done;
  I.drain ms

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)

let test_histogram_buckets () =
  let open R.Histogram in
  Alcotest.(check int) "63 buckets" 63 bucket_count;
  (* Bucket 0 absorbs v <= 1; bucket i covers [2^i, 2^(i+1)). *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (bucket_of v))
    [
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10); (1025, 10); (1 lsl 40, 40); (max_int, 61);
    ];
  Alcotest.(check int) "lower_bound 0" 0 (lower_bound 0);
  Alcotest.(check int) "lower_bound 1" 2 (lower_bound 1);
  Alcotest.(check int) "lower_bound 10" 1024 (lower_bound 10);
  (* Every representable bucket's lower bound maps back into that bucket
     (bucket 62's lower bound, [1 lsl 62], overflows a 63-bit int). *)
  for i = 0 to 61 do
    Alcotest.(check int)
      (Printf.sprintf "lower_bound/bucket_of round-trip %d" i)
      i
      (bucket_of (lower_bound i))
  done

let test_histogram_observe () =
  let reg = R.create () in
  let h = R.histogram reg "h" in
  List.iter (R.Histogram.observe h) [ 0; 1; 3; 1024; -5 ];
  Alcotest.(check int) "count" 5 (R.Histogram.count h);
  (* -5 clamps to 0 before summing. *)
  Alcotest.(check int) "sum" 1028 (R.Histogram.sum h);
  Alcotest.(check (list (pair int int)))
    "non-empty buckets, ascending"
    [ (0, 3); (2, 1); (1024, 1) ]
    (R.Histogram.buckets h)

let test_registry_basics () =
  let reg = R.create () in
  let c = R.counter reg "b.count" in
  let g = R.gauge reg "a.level" in
  R.derive_gauge reg "c.derived" (fun () -> 7);
  R.Counter.incr c 3;
  R.Counter.incr c 2;
  R.Gauge.set g 10;
  R.Gauge.set_max g 4;
  Alcotest.(check int) "counter accumulates" 5 (R.Counter.value c);
  Alcotest.(check int) "set_max keeps high-watermark" 10 (R.Gauge.value g);
  Alcotest.(check (list string))
    "names sorted" [ "a.level"; "b.count"; "c.derived" ] (R.names reg);
  Alcotest.(check (option int)) "read counter" (Some 5) (R.read reg "b.count");
  Alcotest.(check (option int)) "read derived" (Some 7) (R.read reg "c.derived");
  Alcotest.(check (option int)) "read missing" None (R.read reg "nope");
  Alcotest.check_raises "duplicate name rejected" (R.Duplicate "b.count")
    (fun () -> ignore (R.counter reg "b.count"));
  R.reset reg;
  Alcotest.(check (option int)) "counter zeroed" (Some 0) (R.read reg "b.count");
  Alcotest.(check (option int)) "gauge zeroed" (Some 0) (R.read reg "a.level");
  Alcotest.(check (option int))
    "derived reads through reset" (Some 7) (R.read reg "c.derived")

let test_merge_into () =
  let src = R.create () in
  let c = R.counter src "reqs" in
  let g = R.gauge src "depth" in
  let h = R.histogram src "lat" in
  R.derive_gauge src "derived" (fun () -> 11);
  R.Counter.incr c 5;
  R.Gauge.set g 9;
  List.iter (R.Histogram.observe h) [ 1; 3; 100 ];
  let into = R.create () in
  (* Fresh names: merge creates plain cells carrying the values. *)
  R.merge_into ~prefix:"t0." src ~into;
  Alcotest.(check (option int)) "counter copied" (Some 5)
    (R.read into "t0.reqs");
  Alcotest.(check (option int)) "derived sampled into a plain gauge"
    (Some 11) (R.read into "t0.derived");
  (* Merging a second source under the SAME prefix is additive —
     counters and gauges add, histograms add bucket-wise. *)
  let src2 = R.create () in
  let c2 = R.counter src2 "reqs" in
  let h2 = R.histogram src2 "lat" in
  R.Counter.incr c2 7;
  List.iter (R.Histogram.observe h2) [ 3; 200_000 ];
  R.merge_into ~prefix:"t0." src2 ~into;
  Alcotest.(check (option int)) "counter collision adds" (Some 12)
    (R.read into "t0.reqs");
  (match R.find into "t0.lat" with
  | Some (R.Histogram mh) ->
    Alcotest.(check int) "histogram count adds" 5 (R.Histogram.count mh);
    Alcotest.(check int) "histogram sum adds" 200_107 (R.Histogram.sum mh);
    let expect v n =
      (* buckets are (lower_bound, count) pairs *)
      let lb = R.Histogram.lower_bound (R.Histogram.bucket_of v) in
      let got =
        try List.assoc lb (R.Histogram.buckets mh) with Not_found -> 0
      in
      Alcotest.(check int) (Printf.sprintf "bucket of %d" v) n got
    in
    expect 1 1;
    expect 3 2;
    expect 100 1;
    expect 200_000 1
  | _ -> Alcotest.fail "t0.lat should be a merged histogram");
  (* A name collision across KINDS is a caller bug, not data. *)
  let bad = R.create () in
  ignore (R.counter bad "depth");
  Alcotest.check_raises "kind mismatch rejected" (R.Kind_mismatch "t0.depth")
    (fun () -> R.merge_into ~prefix:"t0." bad ~into);
  (* Merge output is deterministic: names come out sorted. *)
  Alcotest.(check (list string))
    "merged names sorted"
    [ "t0.depth"; "t0.derived"; "t0.lat"; "t0.reqs" ]
    (R.names into)

(* ------------------------------------------------------------------ *)
(* Trace ring                                                         *)

let emit_n ring n =
  for i = 0 to n - 1 do
    Ring.emit ring ~phase:Ring.Mark ~label:"m" ~t_start:i ~t_end:i ()
  done

let test_ring_overflow () =
  let ring = Ring.create ~capacity:4 () in
  emit_n ring 3;
  Alcotest.(check bool) "not wrapped before capacity" false (Ring.wrapped ring);
  emit_n ring 3;
  Alcotest.(check int) "emitted counts evictions" 6 (Ring.emitted ring);
  Alcotest.(check int) "retained capped at capacity" 4 (Ring.retained ring);
  Alcotest.(check bool) "wrapped" true (Ring.wrapped ring);
  Alcotest.(check (list int))
    "oldest spans evicted, order preserved" [ 2; 3; 4; 5 ]
    (List.map (fun s -> s.Ring.seq) (Ring.spans ring))

let test_ring_enter_exit () =
  let ring = Ring.create ~capacity:8 () in
  let p = Ring.enter ~now:100 Ring.Scan "stw-rescan" in
  Ring.exit ring p ~now:150 ~bytes:4096 ~attrs:[ ("sweep", 2) ] ();
  match Ring.spans ring with
  | [ s ] ->
    Alcotest.(check int) "t_start" 100 s.Ring.t_start;
    Alcotest.(check int) "t_end" 150 s.Ring.t_end;
    Alcotest.(check int) "bytes" 4096 s.Ring.bytes;
    Alcotest.(check string) "label" "stw-rescan" s.Ring.label;
    Alcotest.(check (list (pair string int))) "attrs" [ ("sweep", 2) ]
      s.Ring.attrs
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* The flat ring against [Reference_ring], the record ring it replaced:
   random capacities from 1 to 40, so the slots' doubling (16, 32) and
   the wrap are all crossed, and random spans of every kind. After every
   step both must hold the same spans and counts. *)
type ring_op =
  | Emit of Ring.phase * string * int * int * int option
            * (string * int) list option
  | Enter_exit of Ring.phase * string * int * int * int option
                  * (string * int) list option
  | Event of Ring.phase * string * int * int * (string * int) * (string * int)

let all_phases =
  [ Ring.Mark; Ring.Scan; Ring.Purge; Ring.Quarantine; Ring.Alloc_slow;
    Ring.Race; Ring.Request; Ring.Stage ]

let gen_ring_case =
  let open QCheck.Gen in
  let phase = oneofl all_phases in
  let label = oneofl [ "free"; "double-free"; "unmap"; "mark-full"; "stw" ] in
  let attr = pair (oneofl [ "addr"; "usable"; "sweep"; "" ]) int in
  let attrs = int_range 0 3 >>= fun n -> list_repeat n attr in
  let time = int_range 0 1_000_000 in
  let op =
    let* phase = phase and* label = label and* t0 = time and* t1 = time in
    frequency
      [
        ( 3,
          let+ bytes = opt nat and+ attrs = opt attrs in
          Emit (phase, label, t0, t1, bytes, attrs) );
        ( 1,
          let+ bytes = opt nat and+ attrs = opt attrs in
          Enter_exit (phase, label, t0, t1, bytes, attrs) );
        ( 3,
          let+ n = int_range 0 2 and+ a0 = attr and+ a1 = attr in
          Event (phase, label, t0, n, a0, a1) );
      ]
  in
  pair (int_range 1 40) (list_size (int_range 0 120) op)

let print_ring_case (capacity, ops) =
  Printf.sprintf "capacity %d, %d ops" capacity (List.length ops)

let prop_ring_matches_reference =
  QCheck.Test.make ~name:"flat ring keeps what the record ring keeps"
    ~count:500
    (QCheck.make ~print:print_ring_case gen_ring_case)
    (fun (capacity, ops) ->
      let ring = Ring.create ~capacity () in
      let reference = Reference_ring.create ~capacity () in
      let same () =
        Ring.capacity ring = Reference_ring.capacity reference
        && Ring.emitted ring = Reference_ring.emitted reference
        && Ring.retained ring = Reference_ring.retained reference
        && Ring.wrapped ring = Reference_ring.wrapped reference
        && Ring.spans ring = Reference_ring.spans reference
      in
      List.for_all
        (fun op ->
          (match op with
          | Emit (phase, label, t_start, t_end, bytes, attrs) ->
            Ring.emit ring ~phase ~label ~t_start ~t_end ?bytes ?attrs ();
            Reference_ring.emit reference ~phase ~label ~t_start ~t_end ?bytes
              ?attrs ()
          | Enter_exit (phase, label, t0, t1, bytes, attrs) ->
            let p = Ring.enter ~now:t0 phase label in
            Ring.exit ring p ~now:t1 ?bytes ?attrs ();
            let p = Reference_ring.enter ~now:t0 phase label in
            Reference_ring.exit reference p ~now:t1 ?bytes ?attrs ()
          | Event (phase, label, now, n, (k0, v0), (k1, v1)) ->
            Ring.event ring phase label ~now ~attrs:n k0 v0 k1 v1;
            Reference_ring.emit reference ~phase ~label ~t_start:now ~t_end:now
              ~attrs:(List.filteri (fun i _ -> i < n) [ (k0, v0); (k1, v1) ])
              ());
          same ())
        ops
      && same ())

(* A span carries at most three attributes: a fourth is refused, not
   dropped, and the refused span is not counted. *)
let test_ring_attribute_limit () =
  let ring = Ring.create ~capacity:4 () in
  let attrs = [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ] in
  Alcotest.check_raises "a fourth attribute"
    (Invalid_argument "Trace_ring.emit: a span carries at most 3 attributes")
    (fun () ->
      Ring.emit ring ~phase:Ring.Mark ~label:"x" ~t_start:0 ~t_end:1 ~attrs ());
  Alcotest.check_raises "event beyond two attributes"
    (Invalid_argument "Trace_ring.event: attrs must be 0, 1 or 2") (fun () ->
      Ring.event ring Ring.Quarantine "free" ~now:0 ~attrs:3 "a" 1 "b" 2);
  Alcotest.(check int) "nothing emitted" 0 (Ring.emitted ring);
  Ring.emit ring ~phase:Ring.Mark ~label:"x" ~t_start:0 ~t_end:1
    ~attrs:(List.filteri (fun i _ -> i < 3) attrs)
    ();
  Alcotest.(check (list (pair string int))) "three attributes kept"
    [ ("a", 1); ("b", 2); ("c", 3) ]
    (List.concat_map (fun s -> s.Ring.attrs) (Ring.spans ring))

(* Once its slots reach the capacity, the ring takes the instance's
   per-call lifecycle events without allocating: every quarantined free
   emits one. *)
let test_ring_events_allocate_nothing () =
  let ring = Ring.create ~capacity:8192 () in
  for i = 1 to 8192 do
    Ring.event ring Ring.Quarantine "free" ~now:i ~attrs:2 "addr" i "usable" 64
  done;
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    Ring.event ring Ring.Quarantine "free" ~now:i ~attrs:2 "addr" i "usable" 64;
    Ring.event ring Ring.Quarantine "double-free" ~now:i ~attrs:1 "addr" i "" 0
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 200,000 events" 0. words;
  Alcotest.(check int) "retained at capacity" 8192 (Ring.retained ring);
  match List.rev (Ring.spans ring) with
  | last :: _ ->
    Alcotest.(check (list (pair string int))) "last event's attributes"
      [ ("addr", 100_000) ] last.Ring.attrs
  | [] -> Alcotest.fail "empty ring"

let test_phase_names () =
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %s round-trips" (Ring.phase_name phase))
        true
        (Ring.phase_of_name (Ring.phase_name phase) = Some phase))
    [ Ring.Mark; Ring.Scan; Ring.Purge; Ring.Quarantine; Ring.Alloc_slow;
      Ring.Race ];
  Alcotest.(check bool) "unknown phase name" true
    (Ring.phase_of_name "bogus" = None)

(* ------------------------------------------------------------------ *)
(* Export                                                             *)

let test_metrics_roundtrip () =
  let reg = R.create () in
  let c = R.counter reg "ms.sweeps" in
  let g = R.gauge reg "ms.cache_bytes" in
  let h = R.histogram reg "ms.scan_bytes" in
  R.derive_counter reg "alloc.mallocs" (fun () -> 41);
  R.Counter.incr c 12;
  R.Gauge.set g 3456;
  List.iter (R.Histogram.observe h) [ 300; 600; 700 ];
  let text = Export.metrics_to_string reg in
  (match Export.parse_metrics text with
  | Error e -> Alcotest.failf "parse_metrics: %s" e
  | Ok pairs ->
    Alcotest.(check (list (pair string int)))
      "round-trip (histogram scalar = count)"
      [
        ("alloc.mallocs", 41); ("ms.cache_bytes", 3456); ("ms.scan_bytes", 3);
        ("ms.sweeps", 12);
      ]
      pairs);
  (* The header advertises the exact line count: truncation is detected. *)
  let truncated =
    String.concat "\n"
      (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' text))
    ^ "\n"
  in
  Alcotest.(check bool) "truncated export rejected" true
    (Result.is_error (Export.parse_metrics truncated))

let test_spans_export () =
  let ring = Ring.create ~capacity:8 () in
  Ring.emit ring ~phase:Ring.Mark ~label:"mark-full" ~t_start:10 ~t_end:42
    ~bytes:8192 ~attrs:[ ("sweep", 2) ] ();
  let text = Export.spans_to_string ring in
  match String.split_on_char '\n' (String.trim text) with
  | [ header; span ] ->
    (match Export.parse_line header with
    | Ok j ->
      Alcotest.(check (option string)) "schema" (Some "msweep-spans-v1")
        (Option.bind (Export.member "schema" j) Export.to_string);
      Alcotest.(check (option int)) "retained" (Some 1)
        (Option.bind (Export.member "retained" j) Export.to_int)
    | Error e -> Alcotest.failf "header: %s" e);
    (match Export.parse_line span with
    | Ok j ->
      Alcotest.(check (option string)) "phase" (Some "mark")
        (Option.bind (Export.member "phase" j) Export.to_string);
      Alcotest.(check (option int)) "bytes" (Some 8192)
        (Option.bind (Export.member "bytes" j) Export.to_int);
      Alcotest.(check (option int)) "attr sweep" (Some 2)
        (Option.bind
           (Option.bind (Export.member "attrs" j) (Export.member "sweep"))
           Export.to_int)
    | Error e -> Alcotest.failf "span: %s" e)
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

(* Two identical runs of the full stack must export byte-identical
   metrics — the determinism the check.sh gate and the paper's
   reproducibility claims rest on. *)
let test_export_determinism () =
  let run () =
    let captured = ref None in
    let profile = Workloads.Spec2006.find "perlbench" in
    ignore
      (Workloads.Driver.run ~ops_scale:0.005
         ~on_build:(fun stack -> captured := stack.Workloads.Harness.obs)
         profile
         (Workloads.Harness.Mine_sweeper C.default));
    match !captured with
    | Some reg -> Export.metrics_to_string reg
    | None -> Alcotest.fail "Mine_sweeper stack exposed no registry"
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "exports non-trivial" true (String.length a > 200);
  Alcotest.(check string) "byte-identical across identical runs" a b

(* ------------------------------------------------------------------ *)
(* The instance's counters in the registry                            *)

(* The exact [ms.*] family a fresh instance registers: counters, gauges,
   the two read-through gauges and the three histograms. The metrics
   exports, the figures and check.sh's pins read these names. *)
let ms_names =
  [
    "ms.alloc_pause_cycles"; "ms.alloc_pauses"; "ms.alloc_request_bytes";
    "ms.double_frees"; "ms.failed_frees"; "ms.frees_intercepted";
    "ms.peak_quarantine_bytes"; "ms.quarantine_bytes"; "ms.released_bytes";
    "ms.releases"; "ms.shadow_resident_bytes"; "ms.stw_cycles";
    "ms.stw_pauses"; "ms.stw_rescanned_bytes"; "ms.summary_cache_bytes";
    "ms.sweep_pages_rescanned"; "ms.sweep_pages_skipped";
    "ms.sweep_pause_cycles"; "ms.sweep_scan_bytes"; "ms.sweeps";
    "ms.swept_bytes"; "ms.uaf_prevented"; "ms.unmapped_allocations";
    "ms.unmapped_bytes";
  ]

let test_ms_names () =
  let _, ms = fresh () in
  let reg = I.registry ms in
  Alcotest.(check (list string)) "registered ms.* names" ms_names
    (List.filter (String.starts_with ~prefix:"ms.") (R.names reg));
  let export = Export.metrics_to_string reg in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exported") true
        (Astring_contains.contains export
           (Printf.sprintf "\"metric\":\"%s\"" name)))
    ms_names

(* Acceptance criterion: sweep-phase spans account for 100% of the
   charged cost-model bytes — the mark spans (full or incremental) plus
   the stop-the-world re-scan spans sum exactly to [swept_bytes]. *)
let span_coverage config =
  let _, ms = fresh ~config () in
  churn ms 6_000 64;
  let ring = I.trace_ring ms in
  Alcotest.(check bool) "ring holds the complete history" false
    (Ring.wrapped ring);
  let charged =
    List.fold_left
      (fun acc s ->
        match (s.Ring.phase, s.Ring.label) with
        | Ring.Mark, ("mark-full" | "mark-incremental") -> acc + s.Ring.bytes
        | Ring.Scan, "stw-rescan" -> acc + s.Ring.bytes
        | _ -> acc)
      0 (Ring.spans ring)
  in
  let read = Metric.read (I.registry ms) in
  Alcotest.(check bool) "profile actually swept" true (read "ms.sweeps" > 0);
  Alcotest.(check int) "span bytes == swept_bytes" (read "ms.swept_bytes")
    charged

let test_span_coverage_default () = span_coverage C.default
let test_span_coverage_incremental () = span_coverage C.incremental
let test_span_coverage_mostly () = span_coverage C.mostly_concurrent

(* ------------------------------------------------------------------ *)
(* Typed error API                                                    *)

let error : I.error Alcotest.testable =
  Alcotest.testable I.pp_error ( = )

let test_free_result () =
  let _, ms = fresh () in
  let p = I.malloc ms 64 in
  Alcotest.(check (result unit error)) "first free succeeds" (Ok ())
    (I.free_result ms p);
  Alcotest.(check (result unit error)) "second free reports double free"
    (Error (I.Double_free p))
    (I.free_result ms p);
  let bogus = p + 8 in
  Alcotest.(check (result unit error)) "unknown pointer rejected"
    (Error (I.Unknown_pointer bogus))
    (I.free_result ms bogus);
  let read = Metric.read (I.registry ms) in
  Alcotest.(check int) "double free counted once" 1 (read "ms.double_frees");
  Alcotest.(check int) "unknown pointer intercepts nothing" 2
    (read "ms.frees_intercepted")

let test_calloc_result () =
  let _, ms = fresh () in
  (match I.calloc_result ms 4 16 with
  | Ok p -> Alcotest.(check bool) "calloc serves an address" true (p <> 0)
  | Error e -> Alcotest.failf "calloc_result: %a" I.pp_error e);
  Alcotest.(check bool) "count*size overflow rejected" true
    (I.calloc_result ms max_int 2 = Error I.Size_overflow)

let test_realloc_result () =
  let machine, ms = fresh () in
  let p = I.malloc ms 64 in
  Vmem.store machine.Alloc.Machine.mem p 4242;
  (match I.realloc_result ms p 256 with
  | Ok q ->
    Alcotest.(check int) "contents copied" 4242
      (Vmem.load machine.Alloc.Machine.mem q);
    Alcotest.(check (result unit error)) "old block now quarantined"
      (Error (I.Double_free p))
      (I.free_result ms p)
  | Error e -> Alcotest.failf "realloc_result: %a" I.pp_error e);
  let q = I.malloc ms 64 in
  I.free ms q;
  Alcotest.(check (result int error)) "realloc of a freed block rejected"
    (Error (I.Double_free q))
    (I.realloc_result ms q 128)

(* ------------------------------------------------------------------ *)
(* Config presets                                                     *)

let test_config_presets () =
  (match C.of_preset "default" with
  | Ok c -> Alcotest.(check bool) "default preset" true (c = C.default)
  | Error e -> Alcotest.failf "of_preset default: %s" e);
  (match C.of_preset "ms" with
  | Ok c -> Alcotest.(check bool) "alias ms -> default" true (c = C.default)
  | Error e -> Alcotest.failf "of_preset ms: %s" e);
  (match C.of_preset "ms-inc" with
  | Ok c ->
    Alcotest.(check bool) "alias ms-inc -> incremental" true
      (c = C.incremental);
    Alcotest.(check bool) "alias ms-inc routes to incremental marking" true
      (c.C.sweep_mode = C.Incremental)
  | Error e -> Alcotest.failf "of_preset ms-inc: %s" e);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "preset %s resolves" name)
        true
        (Result.is_ok (C.of_preset name)))
    C.presets;
  Alcotest.(check bool) "unknown preset rejected with the accepted list" true
    (match C.of_preset "bogus" with
    | Error msg -> String.length msg > 0
    | Ok _ -> false);
  List.iter
    (fun (name, c) ->
      Alcotest.(check (option string))
        (Printf.sprintf "preset_name reverses %s" name)
        (Some name) (C.preset_name c))
    C.presets;
  Alcotest.(check (option string)) "hand-built config has no preset name" None
    (C.preset_name { C.default with C.threshold_min_bytes = 123_456 })

(* ------------------------------------------------------------------ *)
(* Histogram quantiles: within-bucket interpolation boundary cases.    *)

let hist_with observations =
  let reg = R.create () in
  let h = R.histogram reg "q" in
  List.iter (fun (v, n) -> for _ = 1 to n do R.Histogram.observe h v done)
    observations;
  h

let test_upper_bounds () =
  Alcotest.(check int) "bucket 0" 2 (R.Histogram.upper_bound 0);
  Alcotest.(check int) "bucket 5" 64 (R.Histogram.upper_bound 5);
  Alcotest.(check int) "last bucket open-ended" max_int
    (R.Histogram.upper_bound (R.Histogram.bucket_count - 1))

let test_quantile_empty () =
  Alcotest.(check (float 0.)) "empty histogram" 0.
    (R.Histogram.quantile (hist_with []) 0.999)

let test_quantile_single_observation () =
  (* One observation of 100 lands in bucket [64, 128). The raw upper
     bound would report every quantile as 128 (a 28% overstatement here,
     up to ~2x in general); interpolation spreads the rank across the
     bucket instead. *)
  let h = hist_with [ (100, 1) ] in
  Alcotest.(check (float 1e-9)) "q=0 reads the lower edge" 64.
    (R.Histogram.quantile h 0.);
  Alcotest.(check (float 1e-9)) "q=1 reads the upper edge" 128.
    (R.Histogram.quantile h 1.);
  Alcotest.(check (float 1e-9)) "median interpolates" 96.
    (R.Histogram.quantile h 0.5);
  let p999 = R.Histogram.quantile h 0.999 in
  Alcotest.(check bool) "p999 stays inside the bucket" true
    (p999 > 127.8 && p999 < 128.)

let test_quantile_boundary_mass () =
  (* All mass exactly on a power of two: the documented worst case. The
     true p50 is 1024; interpolation reads 1536 (+50%), the raw upper
     bound would read 2048 (+100%). *)
  let h = hist_with [ (1024, 1000) ] in
  let p50 = R.Histogram.quantile h 0.5 in
  Alcotest.(check (float 1e-9)) "worst-case +50%" 1536. p50;
  Alcotest.(check bool) "better than the raw upper bound" true (p50 < 2048.)

let test_quantile_mixed_tail () =
  (* 900 fast requests (2 cycles), 100 slow (1500 cycles, bucket
     [1024, 2048)): p50 in the fast bucket, p99/p999 interpolated within
     the slow bucket, strictly below its upper edge. *)
  let h = hist_with [ (2, 900); (1500, 100) ] in
  let p50 = R.Histogram.quantile h 0.5 in
  let p99 = R.Histogram.quantile h 0.99 in
  let p999 = R.Histogram.quantile h 0.999 in
  Alcotest.(check bool) "p50 in fast bucket" true (p50 >= 2. && p50 < 4.);
  Alcotest.(check bool) "p99 in slow bucket" true (p99 >= 1024. && p99 < 2048.);
  Alcotest.(check bool) "ordered" true (p50 <= p99 && p99 <= p999);
  Alcotest.(check bool) "p999 below raw upper bound" true (p999 < 2048.)

let test_quantile_clamps () =
  let h = hist_with [ (10, 5) ] in
  Alcotest.(check (float 1e-9)) "q < 0 clamps to 0" (R.Histogram.quantile h 0.)
    (R.Histogram.quantile h (-3.));
  Alcotest.(check (float 1e-9)) "q > 1 clamps to 1" (R.Histogram.quantile h 1.)
    (R.Histogram.quantile h 7.)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (int_range 0 100_000))
        (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (values, (q1, q2)) ->
      let h = hist_with (List.map (fun v -> (v, 1)) values) in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      R.Histogram.quantile h lo <= R.Histogram.quantile h hi +. 1e-9)

let suite =
  ( "obs",
    [
      Alcotest.test_case "histogram bucket boundaries" `Quick
        test_histogram_buckets;
      Alcotest.test_case "histogram upper bounds" `Quick test_upper_bounds;
      Alcotest.test_case "quantile: empty" `Quick test_quantile_empty;
      Alcotest.test_case "quantile: single observation" `Quick
        test_quantile_single_observation;
      Alcotest.test_case "quantile: boundary mass" `Quick
        test_quantile_boundary_mass;
      Alcotest.test_case "quantile: mixed tail" `Quick test_quantile_mixed_tail;
      Alcotest.test_case "quantile: q clamps" `Quick test_quantile_clamps;
      QCheck_alcotest.to_alcotest prop_quantile_monotone;
      Alcotest.test_case "histogram observe/sum/buckets" `Quick
        test_histogram_observe;
      Alcotest.test_case "registry basics" `Quick test_registry_basics;
      Alcotest.test_case "merge_into: namespaced additive union" `Quick
        test_merge_into;
      Alcotest.test_case "ring overflow evicts oldest" `Quick
        test_ring_overflow;
      Alcotest.test_case "ring enter/exit" `Quick test_ring_enter_exit;
      QCheck_alcotest.to_alcotest prop_ring_matches_reference;
      Alcotest.test_case "ring attribute limit" `Quick
        test_ring_attribute_limit;
      Alcotest.test_case "ring events allocate nothing" `Quick
        test_ring_events_allocate_nothing;
      Alcotest.test_case "phase names round-trip" `Quick test_phase_names;
      Alcotest.test_case "metrics JSONL round-trip" `Quick
        test_metrics_roundtrip;
      Alcotest.test_case "spans JSONL export" `Quick test_spans_export;
      Alcotest.test_case "export determinism" `Slow test_export_determinism;
      Alcotest.test_case "ms.* names registered and exported" `Quick
        test_ms_names;
      Alcotest.test_case "span coverage: default" `Quick
        test_span_coverage_default;
      Alcotest.test_case "span coverage: incremental" `Quick
        test_span_coverage_incremental;
      Alcotest.test_case "span coverage: mostly" `Quick
        test_span_coverage_mostly;
      Alcotest.test_case "free_result errors" `Quick test_free_result;
      Alcotest.test_case "calloc_result overflow" `Quick test_calloc_result;
      Alcotest.test_case "realloc_result errors" `Quick test_realloc_result;
      Alcotest.test_case "config presets" `Quick test_config_presets;
    ] )
