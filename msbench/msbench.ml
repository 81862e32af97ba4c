(* Host-throughput benchmark of the MineSweeper simulator.

   Usage (see README.md):
     msbench.exe --workload W --seed S --seconds N --trace 0|1 [--out F]
     msbench.exe [--seed S] [--traced] [--smoke] [--out F]
         every workload, each in its own child process
     msbench.exe summarize [--rev R] RUN.json...
     msbench.exe compare PARENT.json CHANGE.json
     msbench.exe manifest

   The last line of a run's standard output is one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   untraced, the per-layer metrics traced. *)

type entry = {
  name : string;
  why : string;
  make : seed:int -> smoke:bool -> Runner.workload;
}

let workloads =
  [
    {
      name = "spec2006";
      why =
        "19 SPEC CPU2006 profiles on baseline and MineSweeper, batch: the paper's \
         headline path; sweep marking dominates host time on five profiles";
      make =
        (fun ~seed ~smoke -> Wl_spec.make ~seed ~ops_scale:(if smoke then 0.01 else 0.5));
    };
    {
      name = "serve";
      why =
        "bursty open-loop traffic on the mostly-concurrent preset: per-call alloc/free and \
         per-sweep fixed costs; the only user of the stop-the-world rescan";
      make = (fun ~seed ~smoke -> Wl_serve.make ~seed ~scale:(if smoke then 0.03 else 0.5));
    };
    {
      name = "fleet";
      why =
        "5 tenants, one leaking, with per-tenant quarantine budgets forcing reclaims: the \
         scheduler, interference, registry merge/export; machine-budget pressure only in a check";
      make = (fun ~seed ~smoke -> Wl_fleet.make ~seed ~scale:(if smoke then 0.02 else 0.3));
    };
    {
      name = "trace-tools";
      why =
        "trace generate, parse, lint, analyze and pool-plan: never touches Vmem, Alloc or \
         Instance, so allocator and sweep changes must leave it flat";
      make = (fun ~seed ~smoke -> Wl_trace.make ~seed ~scale:(if smoke then 0.005 else 0.05));
    };
  ]

let run_seconds = 25
let spans_dir = "msbench/out"

let metric_line name value =
  let unit_ = match Metrics.find name with Some d -> d.Metrics.unit_ | None -> "" in
  Printf.printf "  %-40s %16.6g %s\n" name value unit_

let metrics_json values =
  Json.obj
    (List.map
       (fun (name, v) ->
         let unit_ = match Metrics.find name with Some d -> d.Metrics.unit_ | None -> "" in
         (name, Json.obj [ ("value", Json.num v); ("unit", Json.str unit_) ]))
       values)

(* One workload in this process. Exit code 0 only when every check
   passed and no operation failed. *)
let run_one w ~seed ~seconds ~traced ~smoke ~out =
  let rss_at_start = Runner.peak_rss_mb () in
  (* The micro-benchmarks run first: Bechamel's per-call estimates are
     only meaningful on a small heap. *)
  let micro = if traced then Micro.run ~quota:(if smoke then 0.02 else 0.25) () else [] in
  let wl = w.make ~seed ~smoke in
  (* Warm-up: one small unit, so lazy initialisation and heap growth
     are not charged to the first measured unit. *)
  if not smoke then ignore ((w.make ~seed ~smoke:true).Runner.run_unit ~key:0);
  let units, elapsed, peak_rss_mb = Runner.measure ~seconds ~traced wl in
  let e2e = Runner.end_to_end units ~rss_rise_mb:(peak_rss_mb -. rss_at_start) in
  let layers =
    if not traced then []
    else begin
      let measured = wl.layers () @ Runner.common_layers units ~keys:wl.keys @ micro in
      List.map
        (fun (d : Metrics.def) ->
          (d.name, Option.value ~default:0. (List.assoc_opt d.name measured)))
        Metrics.per_layer
    end
  in
  let attempted = Runner.attempted units and failed = Runner.failed units in
  let checks =
    (("every re-run reproduces its first run's simulation", Runner.reruns_match units)
     :: wl.checks ())
    @ [ ("no operation failed", failed = 0) ]
  in
  let correct = List.for_all snd checks in
  Printf.printf "workload %s  seed %d  %d units in %.2f s%s\n" w.name seed
    (List.length units) elapsed (if traced then "  (traced)" else "");
  List.iter (fun (c, ok) -> Printf.printf "  %s  %s\n" (if ok then "PASS" else "FAIL") c) checks;
  let shown = if traced then layers else e2e in
  List.iter (fun (n, v) -> metric_line n v) shown;
  if traced then begin
    if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
    let path = Filename.concat spans_dir (w.name ^ ".spans.jsonl") in
    Span.write path;
    Printf.printf "  spans written to %s\n" path
  end;
  let record =
    Json.obj
      [
        ("workload", Json.str w.name);
        ("seed", string_of_int seed);
        ("seconds", Json.num seconds);
        ("traced", string_of_bool traced);
        ("units", string_of_int (List.length units));
        ("elapsed_s", Json.num elapsed);
        ("correct", string_of_bool correct);
        ("attempted", string_of_int attempted);
        ("failed", string_of_int failed);
        ("metrics", metrics_json shown);
        ( "units_detail",
          "["
          ^ String.concat ","
              (List.map
                 (fun (m : Runner.measured) ->
                   let s = m.sample in
                   Json.obj
                     [
                       ("key", string_of_int s.key); ("traced", string_of_bool m.traced);
                       ("ops", string_of_int s.ops); ("setup_s", Json.num s.setup);
                       ("wall_s", Json.num s.wall); ("cpu_s", Json.num s.cpu);
                       ("speed", Json.num m.speed);
                     ])
                 units)
          ^ "]" );
      ]
  in
  Option.iter
    (fun path ->
      let oc = open_out_bin path in
      output_string oc (record ^ "\n");
      close_out oc)
    out;
  print_endline
    (Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json shown);
       ]);
  if correct then 0 else 1

(* Every workload, each in a child process of its own. *)
let run_all ~seed ~seconds ~traced ~smoke ~out =
  let parts =
    List.map
      (fun w ->
        let part = Option.map (fun f -> Printf.sprintf "%s.%s.part" f w.name) out in
        let args =
          [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") ]
          @ (if smoke then [ "--smoke" ] else [])
          @ match part with Some p -> [ "--out"; p ] | None -> []
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        (w.name, status = Unix.WEXITED 0, part))
      workloads
  in
  Option.iter
    (fun path ->
      let runs =
        List.filter_map
          (fun (_, _, part) ->
            match part with
            | Some p when Sys.file_exists p ->
              let ic = open_in_bin p in
              let s = String.trim (really_input_string ic (in_channel_length ic)) in
              close_in ic;
              Sys.remove p;
              Some s
            | _ -> None)
          parts
      in
      let oc = open_out_bin path in
      output_string oc ("{\"runs\":[" ^ String.concat "," runs ^ "]}\n");
      close_out oc)
    out;
  let ok = List.for_all (fun (_, ok, _) -> ok) parts in
  List.iter (fun (n, ok, _) -> Printf.printf "%s %s\n" n (if ok then "ok" else "FAILED")) parts;
  if ok then 0 else 1

(* -- summaries ------------------------------------------------------- *)

let runs_of_file path =
  let doc = Json.read_file path in
  match Json.member "runs" doc with Some (Json.List rs) -> rs | _ -> [ doc ]

let summarize ~rev files =
  let runs = List.concat_map runs_of_file files in
  let values = Hashtbl.create 64 in
  let seeds = ref [] and traced_seeds = ref [] and seconds = ref 0. in
  List.iter
    (fun r ->
      let w = Json.to_str (Json.field "workload" r) in
      let seed = Json.to_num (Json.field "seed" r) in
      if Json.field "traced" r = Json.Bool true then traced_seeds := seed :: !traced_seeds
      else seeds := seed :: !seeds;
      seconds := Json.to_num (Json.field "seconds" r);
      List.iter
        (fun (m, v) ->
          let x = Json.to_num (Json.field "value" v) in
          Hashtbl.replace values (w, m) (x :: Option.value ~default:[] (Hashtbl.find_opt values (w, m))))
        (Json.to_obj (Json.field "metrics" r)))
    runs;
  let workload_json w =
    let metrics =
      List.filter_map
        (fun (d : Metrics.def) ->
          match Hashtbl.find_opt values (w.name, d.name) with
          | None -> None
          | Some xs ->
            let q1, q3 = Quant.quartiles xs in
            Some
              ( d.name,
                Json.obj
                  [
                    ("median", Json.num (Quant.median xs)); ("q1", Json.num q1);
                    ("q3", Json.num q3); ("n", string_of_int (List.length xs));
                    ("unit", Json.str d.unit_);
                    ("better", Json.str (Metrics.better_name d.better));
                    ("bound", Printf.sprintf "%g" (Metrics.bound_for d w.name));
                  ] ))
        (Metrics.end_to_end @ Metrics.per_layer)
    in
    (w.name, "{\n    " ^ String.concat ",\n    " (List.map (fun (k, v) -> Json.str k ^ ":" ^ v) metrics) ^ "\n  }")
  in
  let seed_list seeds = "[" ^ String.concat "," (List.map Json.num (List.sort_uniq compare seeds)) ^ "]" in
  print_string
    ("{\"schema\":\"msbench-summary-v2\",\"nproc\":"
    ^ string_of_int (Domain.recommended_domain_count ())
    ^ ",\"ocaml\":" ^ Json.str Sys.ocaml_version ^ ",\"rev\":" ^ Json.str rev
    ^ ",\"seconds\":" ^ Json.num !seconds ^ ",\"seeds\":" ^ seed_list !seeds
    ^ ",\"traced_seeds\":" ^ seed_list !traced_seeds
    ^ ",\n\"workloads\":{\n  "
    ^ String.concat ",\n  " (List.map (fun (k, v) -> Json.str k ^ ":" ^ v) (List.map workload_json workloads))
    ^ "\n}}\n");
  0

(* A change's median against its parent's, per workload and metric.

   An end-to-end metric is judged by its workload's bound. Where the
   quartile spread on either side exceeds the bound it is unresolved:
   the runs cannot tell a regression from noise. [setup_s] must also be
   worse by more than [Metrics.setup_floor_s].

   An exact per-layer metric repeats for a seed, so when both sides'
   traced runs used the same seeds any difference is SIM-CHANGED: the
   change moved the simulated outcome, not only the host's time.

   Exits 1 on a REGRESSION or SIM-CHANGED. *)
let compare_files a b =
  let da = Json.read_file a and db = Json.read_file b in
  let wa = Json.to_obj (Json.field "workloads" da)
  and wb = Json.to_obj (Json.field "workloads" db) in
  let same_seeds =
    match (Json.member "traced_seeds" da, Json.member "traced_seeds" db) with
    | Some x, Some y -> x = y
    | _ -> false
  in
  let failures = ref 0 in
  let fail verdict =
    incr failures;
    verdict
  in
  Printf.printf "%-12s %-38s %14s %14s %9s %7s %7s  %s\n" "workload" "metric" "parent"
    "change" "worse%" "bound%" "iqr%" "verdict";
  List.iter
    (fun (w, ma) ->
      match List.assoc_opt w wb with
      | None -> ()
      | Some mb ->
        List.iter
          (fun (m, sa) ->
            match (Json.member m mb, Metrics.find m) with
            | Some sb, Some d ->
              let get k s = Json.to_num (Json.field k s) in
              let pa = get "median" sa and pb = get "median" sb in
              let spread s = (get "q3" s -. get "q1" s) /. Float.abs (get "median" s) in
              let iqr = Float.max (spread sa) (spread sb) in
              let worse =
                (match d.better with Metrics.Lower -> pb -. pa | Metrics.Higher -> pa -. pb)
                /. Float.abs pa
              in
              let bound = Metrics.bound_for d w in
              let verdict =
                if d.exact then
                  if not same_seeds then "info"
                  else if List.for_all (fun k -> get k sa = get k sb) [ "median"; "q1"; "q3"; "n" ]
                  then "same"
                  else fail "SIM-CHANGED"
                else if bound = 0. then "info"
                else if d.name = "setup_s" && pb -. pa <= Metrics.setup_floor_s then "ok"
                else if iqr > bound then "unresolved"
                else if worse > bound then fail "REGRESSION"
                else "ok"
              in
              Printf.printf "%-12s %-38s %14.6g %14.6g %9.2f %7.1f %7.2f  %s\n" w m pa pb
                (worse *. 100.) (bound *. 100.) (iqr *. 100.) verdict
            | _ -> ())
          (Json.to_obj ma))
    wa;
  if !failures > 0 then 1 else 0

let manifest () =
  let defs ds ~bound =
    "[\n"
    ^ String.concat ",\n"
        (List.map
           (fun (d : Metrics.def) ->
             "    "
             ^ Json.obj
                 ([ ("name", Json.str d.name); ("unit", Json.str d.unit_);
                    ("better", Json.str (Metrics.better_name d.better)) ]
                 @ if bound then [ ("bound", Printf.sprintf "%g" (Metrics.bound d)) ] else []))
           ds)
    ^ "\n  ]"
  in
  print_string
    ("{\n  \"command\": [\"bash\", \"msbench/run.sh\"],\n  \"paths\": [\"msbench\"],\n"
   ^ "  \"run_seconds\": " ^ string_of_int run_seconds ^ ",\n  \"workloads\": [\n"
    ^ String.concat ",\n"
        (List.map
           (fun w -> "    " ^ Json.obj [ ("name", Json.str w.name); ("why", Json.str w.why) ])
           workloads)
    ^ "\n  ],\n  \"end_to_end\": " ^ defs Metrics.end_to_end ~bound:true
    ^ ",\n  \"per_layer\": " ^ defs Metrics.per_layer ~bound:false ^ "\n}\n");
  0

(* -- command line ---------------------------------------------------- *)

let usage =
  "msbench.exe [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--traced] [--smoke] \
   [--out F]\n\
   msbench.exe summarize [--rev R] RUN.json...\n\
   msbench.exe compare PARENT.json CHANGE.json\n\
   msbench.exe manifest"

let main () =
  let argv = Sys.argv in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  let rest () = Array.to_list (Array.sub argv 2 (Array.length argv - 2)) in
  match sub with
  | "manifest" -> manifest ()
  | "compare" -> (
    match rest () with
    | [ a; b ] -> compare_files a b
    | _ ->
      prerr_endline usage;
      2)
  | "summarize" ->
    let rev, files =
      match rest () with "--rev" :: r :: files -> (r, files) | files -> ("unknown", files)
    in
    summarize ~rev files
  | _ ->
    let workload = ref "all" and seed = ref 0 and seconds = ref (float_of_int run_seconds) in
    let traced = ref false and smoke = ref false and out = ref None in
    let spec =
      [
        ("--workload", Arg.Set_string workload, "W one of the workloads, or all (default)");
        ("--seed", Arg.Set_int seed, "S input seed; 0 keeps each profile's own seed");
        ("--seconds", Arg.Set_float seconds, "N measure for N seconds");
        ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 record spans");
        ("--traced", Arg.Set traced, " same as --trace 1");
        ("--smoke", Arg.Set smoke, " tiny inputs, checks on");
        ("--out", Arg.String (fun f -> out := Some f), "F write the full run record here");
      ]
    in
    Arg.parse_argv argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
    let seconds = if !smoke then Float.min !seconds 0.5 else !seconds in
    if !workload = "all" then
      run_all ~seed:!seed ~seconds ~traced:!traced ~smoke:!smoke ~out:!out
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> run_one w ~seed:!seed ~seconds ~traced:!traced ~smoke:!smoke ~out:!out
      | None -> raise (Arg.Bad ("unknown workload " ^ !workload))

let () =
  match main () with
  | code -> exit code
  | exception Arg.Help msg ->
    print_string msg;
    exit 0
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 2
