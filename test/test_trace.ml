(* Trace generate / serialise / replay tests. *)

let tiny_profile =
  Workloads.Profile.make ~name:"trace-test" ~suite:"test" ~ops:3000
    ~size:(Sim.Dist.uniform ~lo:16 ~hi:512)
    ~lifetime:(Sim.Dist.exponential ~mean:200.)
    ~work_per_op:100 ()

let fresh_stack ?(threads = 1) scheme =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  Workloads.Harness.build scheme ~threads machine

let test_generate_structure () =
  let t = Workloads.Trace.generate tiny_profile in
  Alcotest.(check int) "one alloc per op" 3000
    (Workloads.Trace.allocation_count t);
  Alcotest.(check bool) "frees and writes present" true
    (Workloads.Trace.length t > 6000)

let test_generate_deterministic () =
  let a = Workloads.Trace.generate ~seed:7 tiny_profile in
  let b = Workloads.Trace.generate ~seed:7 tiny_profile in
  Alcotest.(check string) "identical traces"
    (Workloads.Trace.to_string a)
    (Workloads.Trace.to_string b);
  let c = Workloads.Trace.generate ~seed:8 tiny_profile in
  Alcotest.(check bool) "seed changes the trace" true
    (Workloads.Trace.to_string a <> Workloads.Trace.to_string c)

let test_roundtrip () =
  let t = Workloads.Trace.generate tiny_profile in
  let parsed = Workloads.Trace.of_string (Workloads.Trace.to_string t) in
  Alcotest.(check string) "serialise . parse = id"
    (Workloads.Trace.to_string t)
    (Workloads.Trace.to_string parsed);
  Alcotest.(check string) "name preserved" "trace-test"
    parsed.Workloads.Trace.name

let test_threads_header_roundtrip () =
  let text = "# msweep-trace v1 mt\n# threads 3\na 0 64\nx 0 2\na 1 32\nx 1\n" in
  let t = Workloads.Trace.of_string text in
  Alcotest.(check int) "threads parsed" 3 t.Workloads.Trace.threads;
  (match t.Workloads.Trace.ops.(1) with
  | Workloads.Trace.Free { id; thread } ->
    Alcotest.(check int) "free id" 0 id;
    Alcotest.(check int) "free thread" 2 thread
  | _ -> Alcotest.fail "op 1 should be a free");
  (match t.Workloads.Trace.ops.(3) with
  | Workloads.Trace.Free { thread; _ } ->
    Alcotest.(check int) "thread defaults to 0" 0 thread
  | _ -> Alcotest.fail "op 3 should be a free");
  let reparsed = Workloads.Trace.of_string (Workloads.Trace.to_string t) in
  Alcotest.(check int) "threads survive roundtrip" 3
    reparsed.Workloads.Trace.threads;
  Alcotest.(check string) "text roundtrip with header"
    (Workloads.Trace.to_string t)
    (Workloads.Trace.to_string reparsed);
  (* Single-threaded traces keep the compact form: no header, no
     thread column. *)
  let single = Workloads.Trace.generate tiny_profile in
  let contains_threads_header s =
    List.exists
      (fun line -> String.length line >= 9 && String.sub line 0 9 = "# threads")
      (String.split_on_char '\n' s)
  in
  Alcotest.(check bool) "no header for 1 thread" false
    (contains_threads_header (Workloads.Trace.to_string single))

let test_roundtrip_property () =
  (* Round-trip must hold structurally (not just textually) across
     generator profiles and seeds: every op survives serialisation. *)
  let profiles =
    tiny_profile
    :: List.map
         (Workloads.Profile.scale_ops 0.02)
         (List.filteri (fun i _ -> i mod 4 = 0) Workloads.Mimalloc_bench.all)
  in
  List.iter
    (fun profile ->
      List.iter
        (fun seed ->
          let t = Workloads.Trace.generate ~seed profile in
          let parsed =
            Workloads.Trace.of_string (Workloads.Trace.to_string t)
          in
          let label =
            Printf.sprintf "%s seed %d" profile.Workloads.Profile.name seed
          in
          Alcotest.(check string) (label ^ ": name") t.Workloads.Trace.name
            parsed.Workloads.Trace.name;
          Alcotest.(check bool) (label ^ ": ops identical") true
            (t.Workloads.Trace.ops = parsed.Workloads.Trace.ops);
          Alcotest.(check string) (label ^ ": text fixpoint")
            (Workloads.Trace.to_string t)
            (Workloads.Trace.to_string parsed))
        [ 1; 7; 42 ])
    profiles

(* Reference model of [Trace.generate]: the live set as a most-recent-
   first list, walked to pick an object and filtered on every free
   (O(live) per op), with the same RNG draws in the same order.
   [Trace.generate]'s Fenwick tree must reproduce its output byte for
   byte. *)
let reference_generate ?(seed = 1) (profile : Workloads.Profile.t) =
  let open Workloads.Trace in
  let module P = Workloads.Profile in
  let rng = Sim.Rng.create (seed lxor profile.P.seed) in
  let size_rng = Sim.Rng.split rng in
  let life_rng = Sim.Rng.split rng in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let live = ref [] in (* (id, size) most-recent first *)
  let live_count = ref 0 in
  let deaths = Hashtbl.create 1024 in
  let refs = Hashtbl.create 1024 in
  let pick_live () =
    if !live_count = 0 then None
    else List.nth_opt !live (Sim.Rng.int rng !live_count)
  in
  let total = profile.P.ops in
  for i = 0 to total - 1 do
    (match Hashtbl.find_opt deaths i with
    | Some ids ->
      Hashtbl.remove deaths i;
      List.iter
        (fun id ->
          List.iter
            (fun loc ->
              if not (Sim.Rng.bool rng profile.P.dangling_rate) then
                emit (Clear_ptr { loc; target = id }))
            (Option.value ~default:[] (Hashtbl.find_opt refs id));
          Hashtbl.remove refs id;
          emit (Free { id; thread = 0 });
          live := List.filter (fun (x, _) -> x <> id) !live;
          decr live_count)
        ids
    | None -> ());
    let size = Sim.Dist.sample profile.P.size size_rng in
    let site = site_of_size ~sites:profile.P.sites size in
    emit (Alloc { id = i; size; site });
    live := (i, size) :: !live;
    incr live_count;
    if Sim.Rng.bool rng profile.P.pointer_density then begin
      let loc =
        if Sim.Rng.bool rng profile.P.root_fraction then
          Root (Sim.Rng.int rng root_window_words)
        else
          match pick_live () with
          | Some (h, hsize) when h <> i && hsize >= 8 ->
            Field (h, Sim.Rng.int rng (hsize / 8))
          | Some _ | None -> Root (Sim.Rng.int rng root_window_words)
      in
      emit (Store_ptr { loc; target = i });
      Hashtbl.replace refs i
        (loc :: Option.value ~default:[] (Hashtbl.find_opt refs i))
    end;
    if Sim.Rng.bool rng profile.P.false_pointer_rate then
      (match pick_live () with
      | Some (target, _) ->
        emit (Store_data { loc = Root (Sim.Rng.int rng root_window_words);
                           value = - target - 1 })
      | None -> ());
    if not (Sim.Rng.bool rng profile.P.leak_rate) then begin
      let lifetime = Sim.Dist.sample profile.P.lifetime life_rng in
      let at = i + 1 + lifetime in
      if at < total then
        Hashtbl.replace deaths at
          (i :: Option.value ~default:[] (Hashtbl.find_opt deaths at))
    end;
    emit (Work profile.P.work_per_op)
  done;
  { name = profile.P.name; threads = 1; sites = max 1 profile.P.sites;
    ops = Array.of_list (List.rev !ops) }

let test_generate_matches_reference () =
  List.iter
    (fun profile ->
      let profile = Workloads.Profile.scale_ops 0.02 profile in
      Alcotest.(check string)
        (profile.Workloads.Profile.name ^ " seed 1")
        (Workloads.Trace.to_string (reference_generate ~seed:1 profile))
        (Workloads.Trace.to_string (Workloads.Trace.generate ~seed:1 profile)))
    (Workloads.Spec2006.all @ Workloads.Mimalloc_bench.all)

(* Small random profiles reach the corners the suite profiles miss: a
   live set holding only the newest object (everything older already
   dead), capacities at and just past a power of two, and runs where
   nothing ever dies. *)
let arb_small_profile =
  let open QCheck.Gen in
  let unit_rate = float_bound_inclusive 1. in
  let gen =
    map3
      (fun (seed, ops, leak_rate) (pointer_density, root_fraction,
                                   false_pointer_rate, dangling_rate)
           (mean, sites) ->
        ( seed,
          Workloads.Profile.make ~name:"ref-prop" ~suite:"test" ~ops
            ~size:(Sim.Dist.uniform ~lo:1 ~hi:512)
            ~lifetime:(Sim.Dist.exponential ~mean)
            ~work_per_op:10 ~pointer_density ~root_fraction
            ~false_pointer_rate ~dangling_rate ~leak_rate ~sites () ))
      (triple (int_range 0 1_000_000)
         (oneof [ int_range 1 3000; map (fun k -> 1 lsl k) (int_range 0 11) ])
         (oneofl [ 0.; 0.5; 1. ]))
      (quad unit_rate unit_rate unit_rate unit_rate)
      (pair (float_range 1. 5000.) (int_range 1 16))
  in
  let print (seed, p) =
    let module P = Workloads.Profile in
    Printf.sprintf
      "seed %d ops %d leak %g density %g root %g false %g dangling %g \
       lifetime-mean %g sites %d"
      seed p.P.ops p.P.leak_rate p.P.pointer_density p.P.root_fraction
      p.P.false_pointer_rate p.P.dangling_rate
      (Sim.Dist.mean_estimate p.P.lifetime) p.P.sites
  in
  QCheck.make ~print gen

let prop_generate_matches_reference =
  QCheck.Test.make ~name:"generate == list-based reference (random profiles)"
    ~count:200 arb_small_profile
    (fun (seed, profile) ->
      Workloads.Trace.to_string (Workloads.Trace.generate ~seed profile)
      = Workloads.Trace.to_string (reference_generate ~seed profile))

let test_parse_errors () =
  Alcotest.check_raises "bad op"
    (Workloads.Trace.Parse_error
       { line = 1; message = "unrecognised op: zz 1 2" })
    (fun () -> ignore (Workloads.Trace.of_string "zz 1 2"));
  Alcotest.check_raises "bad int"
    (Workloads.Trace.Parse_error { line = 1; message = "size" })
    (fun () -> ignore (Workloads.Trace.of_string "a 1 pancake"));
  (* Sizes no replay can serve are rejected where they are written. *)
  List.iter
    (fun size ->
      Alcotest.check_raises size
        (Workloads.Trace.Parse_error
           {
             line = 2;
             message = "size " ^ size ^ " outside [0, 273804165120]";
           })
        (fun () ->
          ignore (Workloads.Trace.of_string ("a 0 64\na 1 " ^ size ^ " 3\n"))))
    [ "-5"; "4611686018427387903"; "300000000000"; "273804165121" ];
  Alcotest.(check int) "the bound itself parses" 1
    (Workloads.Trace.length (Workloads.Trace.of_string "a 0 273804165120\n"))

(* Whatever the bytes, both parsers return or raise [Parse_error]: no
   other exception escapes. Inputs: random bytes, random truncations of
   a generated trace, and lines of op letters and integers that are
   negative, huge or overflow. *)
let prop_parse_total =
  let tokens =
    [ "a"; "x"; "p"; "c"; "d"; "i"; "z"; "w"; "r"; "g"; "f"; "#"; "threads";
      "sites";
      "msweep-trace"; "v1"; "0"; "1"; "-1"; "-5"; "64"; "300000000000";
      "273804165121"; "4611686018427387903"; "-4611686018427387904";
      "4611686018427387904"; "99999999999999999999999"; "0x7f"; "1e3" ]
  in
  let gen =
    let open QCheck.Gen in
    let line = map (String.concat " ") (list_size (0 -- 6) (oneofl tokens)) in
    let truncated =
      map2
        (fun seed cut ->
          let text =
            Workloads.Trace.to_string
              (Workloads.Trace.generate ~seed
                 (Workloads.Profile.scale_ops 0.05 tiny_profile))
          in
          String.sub text 0 (cut mod (String.length text + 1)))
        small_nat nat
    in
    oneof
      [ string_size ~gen:char (0 -- 300);
        map (String.concat "\n") (list_size (0 -- 12) line);
        truncated ]
  in
  let returns_or_rejects f =
    match f () with
    | () -> true
    | exception Workloads.Trace.Parse_error _ -> true
  in
  QCheck.Test.make ~name:"parsers return or raise Parse_error" ~count:500
    (QCheck.make ~print:String.escaped gen)
    (fun text ->
      returns_or_rejects (fun () -> ignore (Workloads.Trace.of_string text))
      && returns_or_rejects (fun () ->
             let st = Workloads.Trace.stream_of_string ~chunk_ops:7 text in
             Workloads.Trace.fold_stream st ~init:() ~f:(fun () _ _ -> ())))

(* The in-place scanner against the list parser it replaced
   ([Reference_trace_parse]): on random lines, every way in reads the
   same ops and headers, or fails with the same line and message.
   Lines are op and header templates filled with integers in every
   spelling [int_of_string] knows (hex, octal, binary, '_', '+'), at and
   past the int range and the size bound, some truncated or with a
   token too many, joined by runs of spaces, with spaces at both ends
   and '\r' before some newlines. *)
let gen_scan_text =
  let open QCheck.Gen in
  let number =
    frequency
      [
        (6, map string_of_int (int_range (-3) 100));
        (1, map string_of_int int);
        ( 4,
          oneofl
            [ "0x1f"; "0X1F"; "-0x10"; "0o17"; "0b101"; "1_000"; "_1"; "1_";
              "+5"; "+0"; "-0"; "007"; "-"; "+"; "0x"; "1e3"; "12a";
              string_of_int min_int; string_of_int max_int;
              "4611686018427387904"; "-4611686018427387905";
              "999999999999999999"; "-999999999999999999";
              "1234567890123456789"; "-1234567890123456789";
              "9999999999999999999"; "12345678901234567890";
              "-12345678901234567890"; "273804165120"; "273804165121";
              "0x3fc0000000"; "0x7fffffffffffffff"; "64\r" ] );
      ]
  in
  let word =
    oneofl
      [ "a"; "x"; "w"; "p"; "c"; "d"; "i"; "z"; "r"; "g"; "f"; "#"; "q";
        "aa"; "msweep-trace"; "v1"; "threads"; "sites"; "t\tab" ]
  in
  let kind = oneofl [ "p"; "c"; "d" ] and window = oneofl [ "r"; "g" ] in
  let lit s = return s in
  let template =
    frequency
      [
        (2, flatten_l [ lit "a"; number; number ]);
        (2, flatten_l [ lit "a"; number; number; number ]);
        (1, flatten_l [ lit "x"; number ]);
        (1, flatten_l [ lit "x"; number; number ]);
        (1, flatten_l [ lit "w"; number ]);
        (2, flatten_l [ kind; window; number; number ]);
        (2, flatten_l [ kind; lit "f"; number; number; number ]);
        (1, flatten_l [ lit "i"; window; number; number; number ]);
        (1, flatten_l [ lit "i"; lit "f"; number; number; number; number ]);
        (1, flatten_l [ lit "z"; window; number ]);
        (1, flatten_l [ lit "z"; lit "f"; number; number ]);
        ( 1,
          map
            (fun rest -> "#" :: "msweep-trace" :: "v1" :: rest)
            (list_size (0 -- 3) word) );
        (1, flatten_l [ lit "#"; oneofl [ "threads"; "sites" ]; number ]);
        (1, list_size (0 -- 7) (oneof [ word; number ]));
      ]
  in
  let mutate tokens =
    let n = List.length tokens in
    frequency
      [
        (6, return tokens);
        (1, map (fun k -> List.filteri (fun i _ -> i < n - k) tokens) (1 -- 2));
        (1, map (fun extra -> tokens @ [ extra ]) number);
      ]
  in
  let spaces lo hi = map (fun n -> String.make n ' ') (lo -- hi) in
  let line =
    template >>= mutate >>= fun tokens ->
    map3
      (fun lead seps (trail, cr) ->
        lead
        ^ String.concat "" (List.map2 (fun sep t -> sep ^ t) seps tokens)
        ^ trail ^ cr)
      (spaces 0 2)
      (list_repeat (List.length tokens) (spaces 1 3))
      (pair (spaces 0 2) (frequency [ (7, return ""); (1, return "\r") ]))
  in
  map2
    (fun lines trailing -> String.concat "\n" lines ^ trailing)
    (list_size (1 -- 8) line)
    (oneofl [ ""; "\n" ])

let prop_scanner_matches_reference =
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Workloads.Trace.Parse_error { line; message } ->
      Error (line, message)
  in
  let whole (t : Workloads.Trace.t) =
    Workloads.Trace.(t.name, t.threads, t.sites, Array.to_list t.ops)
  in
  let folded st =
    let ops =
      Workloads.Trace.fold_stream st ~init:[] ~f:(fun acc _ op -> op :: acc)
    in
    Workloads.Trace.
      (stream_name st, stream_threads st, stream_sites st, List.rev ops)
  in
  let path =
    lazy
      (let path = Filename.temp_file "msweep-scan" ".trace" in
       at_exit (fun () -> Sys.remove path);
       path)
  in
  QCheck.Test.make ~name:"scanner reads every line as the list parser did"
    ~count:500
    (QCheck.make ~print:String.escaped gen_scan_text)
    (fun text ->
      let expected =
        outcome (fun () -> whole (Reference_trace_parse.of_string text))
      in
      let path = Lazy.force path in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      outcome (fun () -> whole (Workloads.Trace.of_string text)) = expected
      && List.for_all
           (fun chunk_ops ->
             outcome (fun () ->
                 folded (Workloads.Trace.stream_of_string ~chunk_ops text))
             = expected)
           [ 1; 7; 4096 ]
      && outcome (fun () ->
             folded (Workloads.Trace.stream_of_file ~chunk_ops:7 path))
         = expected)

let test_parse_error_line_numbers () =
  (* The reported line number must point at the offending line, counting
     the header and every earlier (valid) line. *)
  Alcotest.check_raises "bad op mid-file"
    (Workloads.Trace.Parse_error
       { line = 4; message = "unrecognised op: zz 9" })
    (fun () ->
      ignore
        (Workloads.Trace.of_string
           "# msweep-trace v1 broken\na 0 64\nx 0\nzz 9\na 1 32\n"));
  Alcotest.check_raises "truncated store"
    (Workloads.Trace.Parse_error { line = 3; message = "unrecognised op: p r" })
    (fun () ->
      ignore
        (Workloads.Trace.of_string "# msweep-trace v1 broken\na 0 64\np r\n"))

let test_file_roundtrip () =
  let t = Workloads.Trace.generate tiny_profile in
  let path = Filename.temp_file "msweep" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workloads.Trace.to_file t path;
      let back = Workloads.Trace.of_file path in
      Alcotest.(check int) "ops preserved" (Workloads.Trace.length t)
        (Workloads.Trace.length back))

let test_replay_all_schemes () =
  let t = Workloads.Trace.generate tiny_profile in
  List.iter
    (fun scheme ->
      let stack = fresh_stack scheme in
      let executed = Workloads.Trace.replay t stack in
      Alcotest.(check int)
        (stack.Workloads.Harness.scheme ^ " executes every op")
        (Workloads.Trace.length t) executed;
      Alcotest.(check bool) "time advanced" true
        (Sim.Clock.wall stack.Workloads.Harness.machine.Alloc.Machine.clock > 0))
    [
      Workloads.Harness.Baseline;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.default;
      Workloads.Harness.Mark_us;
      Workloads.Harness.Ff_malloc;
      Workloads.Harness.Cr_count;
      Workloads.Harness.P_sweeper;
      Workloads.Harness.Dang_san;
    ]

let test_replay_deterministic () =
  let t = Workloads.Trace.generate tiny_profile in
  let wall scheme =
    let stack = fresh_stack scheme in
    ignore (Workloads.Trace.replay t stack);
    Sim.Clock.wall stack.Workloads.Harness.machine.Alloc.Machine.clock
  in
  Alcotest.(check int) "same trace, same cycles"
    (wall (Workloads.Harness.Mine_sweeper Minesweeper.Config.default))
    (wall (Workloads.Harness.Mine_sweeper Minesweeper.Config.default))

let test_replay_protection () =
  (* A hand-written trace with a deliberate dangling pointer: the freed
     object must stay quarantined under MineSweeper during replay. *)
  let text =
    "# msweep-trace v1 dangling\n\
     a 0 64\n\
     p r 1 0\n\
     x 0\n"
    ^ String.concat ""
        (List.init 3000 (fun i ->
             Printf.sprintf "a %d 64\nx %d\n" (i + 1) (i + 1)))
  in
  let t = Workloads.Trace.of_string text in
  let stack =
    fresh_stack (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  ignore (Workloads.Trace.replay t stack);
  Alcotest.(check bool) "sweeps ran during replay" true
    (stack.Workloads.Harness.sweeps () > 0);
  (* The dangling root pointer still holds the victim's address. *)
  let victim =
    Vmem.load stack.Workloads.Harness.machine.Alloc.Machine.mem
      (Layout.stack_base + 8)
  in
  Alcotest.(check bool) "victim address preserved in root" true
    (Layout.in_heap victim);
  Alcotest.(check bool) "victim quarantined" true
    (stack.Workloads.Harness.is_protected_addr victim)

let test_threads_zero_header () =
  (* A declared mutator count below 1 is meaningless: both parsers must
     reject it with the offending line number (they share one grammar). *)
  Alcotest.check_raises "zero threads"
    (Workloads.Trace.Parse_error { line = 2; message = "threads must be >= 1" })
    (fun () ->
      ignore
        (Workloads.Trace.of_string
           "# msweep-trace v1 bad\n# threads 0\na 0 64\n"));
  Alcotest.check_raises "negative threads"
    (Workloads.Trace.Parse_error { line = 1; message = "threads must be >= 1" })
    (fun () ->
      ignore (Workloads.Trace.of_string "# threads -3\n"));
  Alcotest.check_raises "zero threads via stream"
    (Workloads.Trace.Parse_error { line = 2; message = "threads must be >= 1" })
    (fun () ->
      let st =
        Workloads.Trace.stream_of_string
          "# msweep-trace v1 bad\n# threads 0\na 0 64\n"
      in
      ignore (Workloads.Trace.fold_stream st ~init:0 ~f:(fun acc _ _ -> acc)))

let test_single_thread_free_column () =
  (* An explicit free-thread column parses even without a threads
     header; serialisation keeps the compact form whenever the column
     carries no information (mutator 0). *)
  let t = Workloads.Trace.of_string "# msweep-trace v1 one\na 0 64\nx 0 0\n" in
  Alcotest.(check int) "threads stays 1" 1 t.Workloads.Trace.threads;
  (match t.Workloads.Trace.ops.(1) with
  | Workloads.Trace.Free { id; thread } ->
    Alcotest.(check int) "free id" 0 id;
    Alcotest.(check int) "explicit thread 0" 0 thread
  | _ -> Alcotest.fail "op 1 should be a free");
  let text = Workloads.Trace.to_string t in
  Alcotest.(check bool) "compact form: no column for mutator 0" true
    (List.mem "x 0" (String.split_on_char '\n' text));
  Alcotest.(check string) "serialisation is a parse fixpoint" text
    (Workloads.Trace.to_string (Workloads.Trace.of_string text))

let test_sites_header_roundtrip () =
  let text =
    "# msweep-trace v1 st\n# sites 3\na 0 64 2\nx 0\na 1 32\nx 1\n"
  in
  let t = Workloads.Trace.of_string text in
  Alcotest.(check int) "sites parsed" 3 t.Workloads.Trace.sites;
  (match t.Workloads.Trace.ops.(0) with
  | Workloads.Trace.Alloc { id; site; _ } ->
    Alcotest.(check int) "alloc id" 0 id;
    Alcotest.(check int) "alloc site" 2 site
  | _ -> Alcotest.fail "op 0 should be an alloc");
  (match t.Workloads.Trace.ops.(2) with
  | Workloads.Trace.Alloc { site; _ } ->
    Alcotest.(check int) "site defaults to 0" 0 site
  | _ -> Alcotest.fail "op 2 should be an alloc");
  let reparsed = Workloads.Trace.of_string (Workloads.Trace.to_string t) in
  Alcotest.(check int) "sites survive roundtrip" 3
    reparsed.Workloads.Trace.sites;
  Alcotest.(check string) "text roundtrip with header"
    (Workloads.Trace.to_string t)
    (Workloads.Trace.to_string reparsed);
  (* Site-free traces keep the compact pre-sites form: no header, no
     site column — byte-compatible with older readers. *)
  let sitefree =
    Workloads.Trace.generate
      (Workloads.Profile.make ~name:"sitefree" ~suite:"test" ~ops:200
         ~size:(Sim.Dist.uniform ~lo:16 ~hi:64)
         ~lifetime:(Sim.Dist.exponential ~mean:50.)
         ~work_per_op:10 ~sites:1 ())
  in
  let text = Workloads.Trace.to_string sitefree in
  let has_prefix p line =
    String.length line >= String.length p && String.sub line 0 (String.length p) = p
  in
  Alcotest.(check bool) "no header for 1 site" false
    (List.exists (has_prefix "# sites") (String.split_on_char '\n' text));
  Alcotest.(check bool) "allocs keep the two-column form" true
    (List.exists
       (fun line ->
         has_prefix "a " line
         && List.length (String.split_on_char ' ' line) = 3)
       (String.split_on_char '\n' text))

let test_single_site_column () =
  (* An explicit site column parses even without a sites header;
     serialisation keeps the compact form whenever the column carries no
     information (site 0). *)
  let t = Workloads.Trace.of_string "# msweep-trace v1 one\na 0 64 0\nx 0\n" in
  Alcotest.(check int) "sites stays 1" 1 t.Workloads.Trace.sites;
  (match t.Workloads.Trace.ops.(0) with
  | Workloads.Trace.Alloc { site; _ } ->
    Alcotest.(check int) "explicit site 0" 0 site
  | _ -> Alcotest.fail "op 0 should be an alloc");
  let text = Workloads.Trace.to_string t in
  Alcotest.(check bool) "compact form: no column for site 0" true
    (List.mem "a 0 64" (String.split_on_char '\n' text));
  Alcotest.(check string) "serialisation is a parse fixpoint" text
    (Workloads.Trace.to_string (Workloads.Trace.of_string text))

let test_sites_zero_header () =
  Alcotest.check_raises "zero sites"
    (Workloads.Trace.Parse_error { line = 2; message = "sites must be >= 1" })
    (fun () ->
      ignore
        (Workloads.Trace.of_string "# msweep-trace v1 bad\n# sites 0\na 0 64\n"));
  Alcotest.check_raises "negative sites via stream"
    (Workloads.Trace.Parse_error { line = 1; message = "sites must be >= 1" })
    (fun () ->
      let st = Workloads.Trace.stream_of_string "# sites -2\na 0 64\n" in
      ignore (Workloads.Trace.fold_stream st ~init:0 ~f:(fun acc _ _ -> acc)))

let test_generated_sites_replayable () =
  (* Generator profiles now attribute allocs to sites; the pooled
     harness consumes them and every other scheme ignores them. *)
  let t = Workloads.Trace.generate tiny_profile in
  Alcotest.(check int) "default profile declares 8 sites" 8
    t.Workloads.Trace.sites;
  let some_nonzero =
    Array.exists
      (function
        | Workloads.Trace.Alloc { site; _ } -> site > 0
        | _ -> false)
      t.Workloads.Trace.ops
  in
  Alcotest.(check bool) "sites actually vary" true some_nonzero;
  let stack = fresh_stack (Workloads.Harness.Pooled None) in
  let executed = Workloads.Trace.replay t stack in
  Alcotest.(check int) "pooled replay executes every op"
    (Workloads.Trace.length t) executed

(* The streaming fold and the one-shot parser share one line parser;
   this property pins the stronger claim that chunking cannot change
   what a consumer observes: any chunk size, any generator profile. *)
let prop_chunked_fold_equals_parse =
  QCheck.Test.make ~name:"chunked fold == full parse (any chunk size)"
    ~count:40
    QCheck.(pair (int_range 1 257) (int_range 0 1_000_000))
    (fun (chunk_ops, seed) ->
      let profile =
        Workloads.Profile.make ~name:"prop" ~suite:"test" ~ops:400
          ~size:(Sim.Dist.uniform ~lo:8 ~hi:256)
          ~lifetime:(Sim.Dist.exponential ~mean:60.)
          ~work_per_op:10 ()
      in
      let t = Workloads.Trace.generate ~seed profile in
      let text = Workloads.Trace.to_string t in
      let st = Workloads.Trace.stream_of_string ~chunk_ops text in
      let streamed =
        List.rev
          (Workloads.Trace.fold_stream st ~init:[] ~f:(fun acc idx op ->
               (idx, op) :: acc))
      in
      let parsed = Workloads.Trace.of_string text in
      let expected =
        Array.to_list (Array.mapi (fun i op -> (i, op)) parsed.Workloads.Trace.ops)
      in
      Workloads.Trace.stream_name st = parsed.Workloads.Trace.name
      && Workloads.Trace.stream_threads st = parsed.Workloads.Trace.threads
      && Workloads.Trace.stream_sites st = parsed.Workloads.Trace.sites
      && streamed = expected)

let test_stream_single_shot () =
  let st = Workloads.Trace.stream_of_string "a 0 64\nx 0\n" in
  ignore (Workloads.Trace.fold_stream st ~init:() ~f:(fun () _ _ -> ()));
  Alcotest.check_raises "second fold rejected"
    (Invalid_argument "Trace.fold_stream: stream already consumed")
    (fun () ->
      ignore (Workloads.Trace.fold_stream st ~init:() ~f:(fun () _ _ -> ())))

(* --- One answer per location -------------------------------------------

   Every consumer of a trace must agree on which word a location names:
   the replay's memory write, the lint pass's "replay wraps to N" and
   the analyzer's abstract slot. Objects 0-2 are 64 bytes (8 words)
   with live neighbours on both sides; object 3 has no addressable
   word. *)

let location_cases =
  let module A = Workloads.Absheap in
  Workloads.Trace.
    [
      (Root (-1), Some (A.Root_slot 8191));
      (Root (-8193), Some (A.Root_slot 8191));
      (Root 8191, Some (A.Root_slot 8191));
      (Root 8192, Some (A.Root_slot 0));
      (Global (-1), Some (A.Global_slot 8191));
      (Global 5, Some (A.Global_slot 5));
      (Global 8197, Some (A.Global_slot 5));
      (Field (1, -1), Some (A.Field_slot (1, 7)));
      (Field (1, -9), Some (A.Field_slot (1, 7)));
      (Field (1, 7), Some (A.Field_slot (1, 7)));
      (Field (1, 8), Some (A.Field_slot (1, 0)));
      (Field (1, 99), Some (A.Field_slot (1, 3)));
      (Field (3, 0), None);
      (Field (3, -1), None);
    ]

let location_sizes = [| 64; 64; 64; 4 |]

let location_prefix =
  Array.to_list
    (Array.mapi
       (fun id size -> Workloads.Trace.Alloc { id; size; site = 0 })
       location_sizes)

let location_trace ops =
  { Workloads.Trace.name = "loc"; threads = 1; sites = 1;
    ops = Array.of_list ops }

(* Replay [ops] under the baseline; returns the memory and the address
   of each allocation, by id. *)
let replay_baseline ops =
  let stack = fresh_stack Workloads.Harness.Baseline in
  let addrs = Hashtbl.create 8 in
  let id = ref 0 in
  let stack =
    {
      stack with
      Workloads.Harness.malloc =
        (fun size ->
          let addr = stack.Workloads.Harness.malloc size in
          Hashtbl.replace addrs !id addr;
          incr id;
          addr);
    }
  in
  ignore (Workloads.Trace.replay (location_trace ops) stack);
  (stack.Workloads.Harness.machine.Alloc.Machine.mem, addrs)

(* Every word of the globals window, of the root window (plus a margin)
   and of the heap around the four objects that differs between two
   replays. *)
let changed_words (mem_a, addrs) mem_b =
  let lo = Hashtbl.fold (fun _ a acc -> min a acc) addrs max_int - 256 in
  let hi = Hashtbl.fold (fun _ a acc -> max a acc) addrs 0 + 256 in
  let root_lo = Layout.stack_base - 64 in
  let root_hi =
    Layout.stack_base + (8 * Workloads.Trace.root_window_words) + 64
  in
  let globals_hi =
    Layout.globals_base + (8 * Workloads.Trace.globals_window_words)
  in
  let readable mem a = Vmem.is_mapped mem a && Vmem.is_committed mem a in
  let changed = ref [] in
  List.iter
    (fun (lo, hi) ->
      let a = ref lo in
      while !a < hi do
        let va = if readable mem_a !a then Vmem.load mem_a !a else 0 in
        let vb = if readable mem_b !a then Vmem.load mem_b !a else 0 in
        if va <> vb then changed := !a :: !changed;
        a := !a + 8
      done)
    [ (Layout.globals_base, globals_hi); (root_lo, root_hi); (lo, hi) ];
  List.rev !changed

(* The slot the abstract heap resolves [store]'s location to, after the
   four allocations. *)
let absheap_slot store =
  let module A = Workloads.Absheap in
  let heap = A.create ~zeroing:true in
  List.iteri (fun i op -> ignore (A.step heap i op)) location_prefix;
  match A.step heap (List.length location_prefix) store with
  | A.Data { place = A.Slot slot | A.Wrapped { slot; _ }; _ } -> Some slot
  | _ -> None

let test_one_answer_per_location () =
  let module A = Workloads.Absheap in
  let before = replay_baseline location_prefix in
  let addrs = snd before in
  List.iter
    (fun (loc, expected) ->
      let store = Workloads.Trace.Store_data { loc; value = 7 } in
      let name =
        match loc with
        | Workloads.Trace.Root w -> Printf.sprintf "d r %d 7" w
        | Workloads.Trace.Global w -> Printf.sprintf "d g %d 7" w
        | Workloads.Trace.Field (id, w) -> Printf.sprintf "d f %d %d 7" id w
      in
      let mem, _ = replay_baseline (location_prefix @ [ store ]) in
      let expected_addr =
        match expected with
        | Some (A.Root_slot w) -> [ Layout.stack_base + (8 * w) ]
        | Some (A.Global_slot w) -> [ Layout.globals_base + (8 * w) ]
        | Some (A.Field_slot (id, w)) -> [ Hashtbl.find addrs id + (8 * w) ]
        | None -> []
      in
      Alcotest.(check (list int))
        (name ^ ": the replay writes only the word the rule names")
        expected_addr (changed_words before mem);
      Alcotest.(check bool) (name ^ ": the analyzer's slot") true
        (absheap_slot store = expected);
      (* The parenthesised tail of each [field-out-of-range] warning. *)
      let lint =
        Sanitizer.Trace_lint.lint (location_trace (location_prefix @ [ store ]))
        |> List.filter_map (fun d ->
               let msg = d.Sanitizer.Diagnostic.message in
               if d.Sanitizer.Diagnostic.rule <> "field-out-of-range" then None
               else
                 let i = String.rindex msg '(' in
                 Some (String.sub msg i (String.length msg - i)))
      in
      let raw =
        match loc with Workloads.Trace.Root w | Global w | Field (_, w) -> w
      in
      Alcotest.(check (list string))
        (name ^ ": lint names the same word")
        (match expected with
        | Some (A.Root_slot w | A.Global_slot w | A.Field_slot (_, w))
          when w = raw ->
          []
        | Some (A.Root_slot w | A.Global_slot w | A.Field_slot (_, w)) ->
          [ Printf.sprintf "(replay wraps to %d)" w ]
        | None -> [ "(replay skips it)" ])
        lint)
    location_cases

(* A data store through a negative field index hides object 2's address
   in object 0, which dies (zeroed) before object 2 does. If the replay
   wrote the neighbouring live object instead, object 2 would be
   retained forever: a retention the analyzer never predicted. *)
let test_negative_index_certifies () =
  let churn =
    List.init 400 (fun i ->
        let k = i + 10 in
        Printf.sprintf "a %d 4096\nw 1000\nx %d\n" k k)
  in
  let trace =
    Workloads.Trace.of_string
      ("a 0 64\na 1 64\na 2 64\nd f 0 -1 -3\nx 0\nx 2\n"
      ^ String.concat "" churn)
  in
  let orc = Sanitizer.Sweep_oracle.run ~latency_sweeps:1 trace in
  let sr = Flowcheck.Report.analyze_trace trace in
  let misses =
    Sanitizer.Sweep_oracle.certify_static
      ~predicted_unsound:sr.Flowcheck.Report.predicted_unsound
      ~predicted_retained:sr.Flowcheck.Report.predicted_retained orc
  in
  Alcotest.(check (list string)) "no static miss" []
    (List.map Sanitizer.Diagnostic.to_string misses);
  Alcotest.(check int) "every freed object is released" 384
    orc.Sanitizer.Sweep_oracle.releases

(* The sweep oracle, the race recorder and the harness replay run the
   same program: one quarantine buffer per declared thread. *)
let test_referees_share_threads () =
  let trace =
    Workloads.Trace.of_string
      ("# threads 2\n"
      ^ String.concat ""
          (List.init 3000 (fun k ->
               Printf.sprintf "a %d 2048\nw 500\nx %d %d\n" k k (k mod 2))))
  in
  let oracle = Sanitizer.Sweep_oracle.run trace in
  let recorder = Racecheck.Recorder.run trace in
  let stack =
    fresh_stack ~threads:2
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  ignore (Workloads.Trace.replay trace stack);
  let replayed = stack.Workloads.Harness.sweeps () in
  Alcotest.(check bool) "the trace sweeps" true (replayed > 0);
  Alcotest.(check int) "oracle sweeps = replay sweeps" replayed
    oracle.Sanitizer.Sweep_oracle.sweeps;
  Alcotest.(check int) "recorder sweeps = replay sweeps" replayed
    recorder.Racecheck.Recorder.sweeps

(* --- The runners' ops and the object table -------------------------- *)

let gen_id =
  QCheck.Gen.(oneof [ int; oneofl [ min_int; max_int; -1; 0; 1 ] ])

let gen_loc =
  let open QCheck.Gen in
  oneof
    [
      map (fun w -> Workloads.Trace.Root w) gen_id;
      map (fun w -> Workloads.Trace.Global w) gen_id;
      map2 (fun id w -> Workloads.Trace.Field (id, w)) gen_id gen_id;
    ]

(* Every op, with the locations and ops the runners added weighted up. *)
let gen_op =
  let open QCheck.Gen in
  let open Workloads.Trace in
  oneof
    [
      map3 (fun loc target word -> Store_interior { loc; target; word })
        gen_loc gen_id gen_id;
      map (fun loc -> Zero loc) gen_loc;
      map2 (fun loc target -> Store_ptr { loc; target }) gen_loc gen_id;
      map2 (fun loc target -> Clear_ptr { loc; target }) gen_loc gen_id;
      map2 (fun loc value -> Store_data { loc; value }) gen_loc gen_id;
      map3
        (fun id size site -> Alloc { id; size; site })
        gen_id (int_range 0 4096) (int_range 0 8);
      map2 (fun id thread -> Free { id; thread }) gen_id (int_range 0 3);
      map (fun n -> Work n) nat;
    ]

let prop_new_ops_roundtrip =
  QCheck.Test.make
    ~name:"new ops round-trip through text and the chunked stream"
    ~count:300
    (QCheck.make
       ~print:(fun (chunk, ops) ->
         Printf.sprintf "chunk %d\n%s" chunk
           (Workloads.Trace.to_string
              { Workloads.Trace.name = "ops"; threads = 1; sites = 1;
                ops = Array.of_list ops }))
       QCheck.Gen.(pair (int_range 1 9) (list_size (0 -- 40) gen_op)))
    (fun (chunk_ops, ops) ->
      let t =
        { Workloads.Trace.name = "ops"; threads = 1; sites = 1;
          ops = Array.of_list ops }
      in
      let text = Workloads.Trace.to_string t in
      let streamed =
        Workloads.Trace.fold_stream
          (Workloads.Trace.stream_of_string ~chunk_ops text)
          ~init:[] ~f:(fun acc _ op -> op :: acc)
      in
      (Workloads.Trace.of_string text).Workloads.Trace.ops
      = t.Workloads.Trace.ops
      && List.rev streamed = ops)

let test_new_ops_text () =
  let open Workloads.Trace in
  let text = "i g 3 2 -1\nz r 4\nz f 1 -2\ni f 0 1 5 9\nd g -1 7\n" in
  let t = of_string text in
  Alcotest.(check bool) "parsed as written" true
    (t.ops
    = [|
        Store_interior { loc = Global 3; target = 2; word = -1 };
        Zero (Root 4);
        Zero (Field (1, -2));
        Store_interior { loc = Field (0, 1); target = 5; word = 9 };
        Store_data { loc = Global (-1); value = 7 };
      |]);
  Alcotest.(check string) "printed as read" ("# msweep-trace v1 trace\n" ^ text)
    (to_string t)

let test_new_ops_parse_errors () =
  List.iter
    (fun (line, message) ->
      Alcotest.check_raises line
        (Workloads.Trace.Parse_error { line = 2; message })
        (fun () ->
          ignore (Workloads.Trace.of_string ("a 0 64\n" ^ line ^ "\na 1 8\n")));
      Alcotest.check_raises (line ^ " via stream")
        (Workloads.Trace.Parse_error { line = 2; message })
        (fun () ->
          let st =
            Workloads.Trace.stream_of_string ("a 0 64\n" ^ line ^ "\na 1 8\n")
          in
          Workloads.Trace.fold_stream st ~init:() ~f:(fun () _ _ -> ())))
    [
      ("i r 1 2", "unrecognised op: i r 1 2");
      ("i g 1 2 3 4", "unrecognised op: i g 1 2 3 4");
      ("z r", "unrecognised op: z r");
      ("z g 1 2", "unrecognised op: z g 1 2");
      ("p g 1", "unrecognised op: p g 1");
      ("g 1", "unrecognised op: g 1");
      ("z q 1", "unrecognised op: z q 1");
      ("i g x 2 3", "word");
      ("i g 1 x 3", "target");
      ("i f 1 2 3 x", "word");
      ("z f x 1", "id");
      ("d g 1 x", "value");
    ]

(* The interpreter's object table against a [Hashtbl] model: random
   allocs, frees and lookups over ids drawn from every integer the
   parser accepts, near each other so their probe runs collide, with
   bursts of thousands of allocations that make the table grow. A
   lookup is an interior pointer written to a root word, which holds
   the object's address plus the wrapped word offset, or 0 when the id
   is not live. *)
let prop_object_table =
  let open QCheck.Gen in
  let gen =
    list_repeat 6 gen_id >>= fun bases ->
    let id =
      map2 ( + ) (oneofl bases) (oneof [ return 0; int_range 0 3000 ])
    in
    list_size (0 -- 300)
      (frequency
         [
           (4, map2 (fun id size -> `Alloc (id, size)) id (int_range 0 200));
           (3, map (fun id -> `Free id) id);
           (4, map2 (fun id w -> `Lookup (id, w)) id gen_id);
           (1, map2 (fun id n -> `Burst (id, n)) id (int_range 0 3000));
         ])
  in
  QCheck.Test.make ~name:"object table agrees with a Hashtbl model" ~count:100
    (QCheck.make gen)
    (fun steps ->
      let machine = Alloc.Machine.create () in
      Alloc.Machine.map_roots machine;
      let next = ref Layout.heap_base in
      let freed = ref [] in
      let exec =
        Workloads.Trace.exec ~sites:1 machine
          {
            Workloads.Trace.alloc =
              (fun ~id:_ ~site:_ _ ->
                next := !next + 4096;
                !next);
            free = (fun ~id ~thread:_ addr -> freed := (id, addr) :: !freed);
            pointer_store = (fun ~slot:_ ~old_value:_ ~value:_ -> ());
            data_store = (fun ~slot:_ -> ());
            after_op = ignore;
          }
      in
      let model = Hashtbl.create 16 in
      let alloc id size =
        exec (Workloads.Trace.Alloc { id; size; site = 0 });
        Hashtbl.replace model id (!next, size)
      in
      List.for_all
        (function
          | `Alloc (id, size) ->
            alloc id size;
            true
          | `Burst (id, n) ->
            for k = 0 to n - 1 do
              alloc (id + k) 64
            done;
            true
          | `Free id ->
            freed := [];
            exec (Workloads.Trace.Free { id; thread = 0 });
            let expected =
              match Hashtbl.find_opt model id with
              | Some (addr, _) ->
                Hashtbl.remove model id;
                [ (id, addr) ]
              | None -> []
            in
            !freed = expected
          | `Lookup (id, word) ->
            let loc = Workloads.Trace.Root 0 in
            exec (Workloads.Trace.Store_interior { loc; target = id; word });
            let expected =
              match Hashtbl.find_opt model id with
              | Some (addr, size) ->
                addr + (8 * Workloads.Trace.interior_word ~size word)
              | None -> 0
            in
            Vmem.load machine.Alloc.Machine.mem Layout.stack_base = expected)
        steps
      && Hashtbl.fold
           (fun id (addr, _) ok ->
             freed := [];
             exec (Workloads.Trace.Free { id; thread = 0 });
             ok && !freed = [ (id, addr) ])
           model true)

(* [Zero] writes 0; it is an instrumented store exactly when the old
   word lay in the heap window. *)
let test_zero_reports () =
  let machine = Alloc.Machine.create () in
  Alloc.Machine.map_roots machine;
  let seen = ref [] in
  let step =
    Workloads.Trace.exec ~sites:1 machine
      {
        Workloads.Trace.alloc = (fun ~id:_ ~site:_ _ -> Layout.heap_base + 64);
        free = (fun ~id:_ ~thread:_ _ -> ());
        pointer_store =
          (fun ~slot ~old_value ~value ->
            seen := `Pointer (slot, old_value, value) :: !seen);
        data_store = (fun ~slot -> seen := `Data slot :: !seen);
        after_op = ignore;
      }
  in
  let open Workloads.Trace in
  let g3 = Layout.globals_base + 24 in
  List.iter step
    [
      Alloc { id = 0; size = 64; site = 0 };
      Store_ptr { loc = Global 3; target = 0 };
      Zero (Global 3);
      Store_data { loc = Global 3; value = 42 };
      Zero (Global 3);
      Zero (Global (3 + globals_window_words));
    ];
  Alcotest.(check bool) "pointer, data, pointer zeroing, data zeroings" true
    (List.rev !seen
    = [
        `Pointer (g3, 0, Layout.heap_base + 64);
        `Pointer (g3, Layout.heap_base + 64, 0);
        `Data g3;
        `Data g3;
        `Data g3;
      ]);
  Alcotest.(check int) "the word is zero" 0
    (Vmem.load machine.Alloc.Machine.mem g3)

(* In the abstract heap a globals word and a root word of the same index
   are two slots, and [Zero] drops whatever binding its slot held. *)
let test_absheap_globals_and_zero () =
  let module A = Workloads.Absheap in
  let open Workloads.Trace in
  let heap = A.create ~zeroing:true in
  let i = ref 0 in
  let step op =
    let e = A.step heap !i op in
    incr i;
    e
  in
  ignore (step (Alloc { id = 0; size = 64; site = 0 }));
  ignore (step (Store_ptr { loc = Root 5; target = 0 }));
  ignore (step (Store_ptr { loc = Global 5; target = 0 }));
  Alcotest.(check int) "two slots hold id 0" 2 (A.holder_count heap 0);
  let dropped op =
    match step op with
    | A.Data { displaced = Some (target, _); stored = None; _ } -> Some target
    | _ -> None
  in
  Alcotest.(check bool) "zeroing the root drops its pointer" true
    (dropped (Zero (Root 5)) = Some (A.Ptr 0));
  Alcotest.(check int) "the global still holds it" 1 (A.holder_count heap 0);
  ignore (step (Store_interior { loc = Root 6; target = 0; word = 3 }));
  Alcotest.(check int) "an interior integer aliases its target" 2
    (A.holder_count heap 0);
  Alcotest.(check bool) "zeroing drops the alias" true
    (dropped (Zero (Root 6)) = Some (A.Alias 0));
  ignore (step (Store_data { loc = Global 9; value = Layout.heap_base + 8 }));
  Alcotest.(check int) "one wild word" 1 (A.wild_count heap);
  Alcotest.(check bool) "zeroing drops the wild binding" true
    (dropped (Zero (Global (9 - globals_window_words))) = Some A.Wild);
  Alcotest.(check int) "no wild word left" 0 (A.wild_count heap);
  Alcotest.(check bool) "zeroing the global drops the last pointer" true
    (dropped (Zero (Global 5)) = Some (A.Ptr 0));
  Alcotest.(check int) "nothing holds id 0" 0 (A.holder_count heap 0)

let suite =
  ( "workloads.trace",
    [
      Alcotest.test_case "generate structure" `Quick test_generate_structure;
      Alcotest.test_case "generate deterministic" `Quick
        test_generate_deterministic;
      Alcotest.test_case "string roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "threads header roundtrip" `Quick
        test_threads_header_roundtrip;
      Alcotest.test_case "roundtrip across seeds and profiles" `Quick
        test_roundtrip_property;
      Alcotest.test_case "generate == reference on every suite profile"
        `Quick test_generate_matches_reference;
      QCheck_alcotest.to_alcotest prop_generate_matches_reference;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "parse error line numbers" `Quick
        test_parse_error_line_numbers;
      QCheck_alcotest.to_alcotest prop_parse_total;
      QCheck_alcotest.to_alcotest prop_scanner_matches_reference;
      Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
      Alcotest.test_case "replay all schemes" `Quick test_replay_all_schemes;
      Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
      Alcotest.test_case "replay protection" `Quick test_replay_protection;
      Alcotest.test_case "threads-0 header rejected" `Quick
        test_threads_zero_header;
      Alcotest.test_case "free-thread column, single-threaded" `Quick
        test_single_thread_free_column;
      Alcotest.test_case "sites header roundtrip" `Quick
        test_sites_header_roundtrip;
      Alcotest.test_case "site column, single-site" `Quick
        test_single_site_column;
      Alcotest.test_case "sites-0 header rejected" `Quick
        test_sites_zero_header;
      Alcotest.test_case "generated sites replay under pooled" `Quick
        test_generated_sites_replayable;
      QCheck_alcotest.to_alcotest prop_chunked_fold_equals_parse;
      Alcotest.test_case "stream is single-shot" `Quick
        test_stream_single_shot;
      Alcotest.test_case "one answer per location" `Quick
        test_one_answer_per_location;
      Alcotest.test_case "negative index certifies statically" `Quick
        test_negative_index_certifies;
      Alcotest.test_case "referees replay with the trace's threads" `Quick
        test_referees_share_threads;
      QCheck_alcotest.to_alcotest prop_new_ops_roundtrip;
      Alcotest.test_case "new ops in text" `Quick test_new_ops_text;
      Alcotest.test_case "new ops parse errors" `Quick test_new_ops_parse_errors;
      QCheck_alcotest.to_alcotest prop_object_table;
      Alcotest.test_case "zeroing reports" `Quick test_zero_reports;
      Alcotest.test_case "absheap: globals and zeroing" `Quick
        test_absheap_globals_and_zero;
    ] )
