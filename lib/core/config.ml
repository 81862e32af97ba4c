type concurrency =
  | Sequential
  | Concurrent of { helpers : int; stop_the_world : bool }

type sweep_mode =
  | Full_scan
  | Incremental

type t = {
  quarantining : bool;
  zeroing : bool;
  unmapping : bool;
  sweeping : bool;
  keep_failed : bool;
  purging : bool;
  concurrency : concurrency;
  sweep_mode : sweep_mode;
  domains : int;
  threshold : float;
  threshold_min_bytes : int;
  unmap_factor : float;
  pause_factor : float;
  shadow_granule : int;
}

let default = {
  quarantining = true;
  zeroing = true;
  unmapping = true;
  sweeping = true;
  keep_failed = true;
  purging = true;
  concurrency = Concurrent { helpers = 6; stop_the_world = false };
  sweep_mode = Full_scan;
  domains = 1;
  threshold = 0.15;
  threshold_min_bytes = 128 * 1024;
  unmap_factor = 9.0;
  pause_factor = 1.0;
  shadow_granule = 16;
}

let with_sweep_mode sweep_mode t = { t with sweep_mode }
let with_domains n t = { t with domains = max 1 n }

let mostly_concurrent =
  { default with concurrency = Concurrent { helpers = 6; stop_the_world = true } }

let incremental = with_sweep_mode Incremental default

let incremental_mostly = with_sweep_mode Incremental mostly_concurrent

(* Cumulative optimisation levels, in the paper's order of estimated
   importance (Section 5.4). *)
let unoptimised = {
  default with
  zeroing = false;
  unmapping = false;
  purging = false;
  concurrency = Sequential;
}

let plus_zeroing = { unoptimised with zeroing = true }
let plus_unmapping = { plus_zeroing with unmapping = true }

let plus_concurrency =
  { plus_unmapping with
    concurrency = Concurrent { helpers = 6; stop_the_world = false } }

let plus_purging = { plus_concurrency with purging = true }

(* Partial versions for the source-of-overheads study (Section 5.5). *)
let partial_base = {
  default with
  quarantining = false;
  zeroing = false;
  unmapping = false;
  sweeping = false;
  purging = false;
}

let partial_unmap_zero = { partial_base with zeroing = true; unmapping = true }

let partial_quarantine =
  { partial_unmap_zero with quarantining = true;
    sweeping = false; concurrency = Sequential }

let partial_concurrency =
  { partial_quarantine with
    concurrency = Concurrent { helpers = 6; stop_the_world = false } }

let partial_sweep = { partial_concurrency with sweeping = true; keep_failed = false }
let partial_full = { partial_sweep with keep_failed = true; purging = true }

(* The canonical preset table: the single place a preset string is tied
   to a configuration. The CLI, the harness and the oracle all resolve
   through it; aliases keep historical spellings working. *)
let presets =
  [
    ("default", default);
    ("mostly", mostly_concurrent);
    ("incremental", incremental);
    ("incremental-mostly", incremental_mostly);
    ("unoptimised", unoptimised);
    ("partial", partial_quarantine);
  ]

let preset_aliases =
  [ ("fully", "default"); ("ms", "default"); ("ms-inc", "incremental") ]

let of_preset name =
  let canonical =
    match List.assoc_opt name preset_aliases with
    | Some target -> target
    | None -> name
  in
  match List.assoc_opt canonical presets with
  | Some config -> Ok config
  | None ->
    Error
      (Printf.sprintf "unknown MineSweeper preset %S (expected one of: %s)"
         name
         (String.concat ", " (List.map fst presets)))

let preset_name config =
  let rec find = function
    | [] -> None
    | (name, preset) :: rest -> if config = preset then Some name else find rest
  in
  find presets

let pp ppf t =
  let concurrency =
    match t.concurrency with
    | Sequential -> "sequential"
    | Concurrent { helpers; stop_the_world } ->
      Printf.sprintf "concurrent(helpers=%d%s)" helpers
        (if stop_the_world then ", stw" else "")
  in
  let mode =
    match t.sweep_mode with Full_scan -> "full" | Incremental -> "incremental"
  in
  let domains_s =
    if t.domains > 1 then Printf.sprintf " domains=%d" t.domains else ""
  in
  Format.fprintf ppf
    "{quarantine=%b zero=%b unmap=%b sweep=%b(%s) keep_failed=%b purge=%b %s%s \
     threshold=%.2f}"
    t.quarantining t.zeroing t.unmapping t.sweeping mode t.keep_failed
    t.purging concurrency domains_s t.threshold
