(* Host clocks and the span recorder of traced runs.

   Spans are recorded from outside the libraries: the workloads open a
   span around each call into a layer's public functions. A span's self
   time is its duration minus the time covered by its children, so the
   self times of one tree add up to the root's duration. *)

let wall = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Durations go into a log-spaced histogram, [per_octave] buckets per
   doubling of nanoseconds, so quantiles read to within ~4 %. *)
let per_octave = 16
let buckets = per_octave * 44

type key = {
  name : string;
  mutable calls : int;
  mutable total : float;
  mutable self : float;
  mutable max : float;
  hist : int array;
}

let keys : key list ref = ref []

let key name =
  match List.find_opt (fun k -> k.name = name) !keys with
  | Some k -> k
  | None ->
    let k =
      { name; calls = 0; total = 0.; self = 0.; max = 0.; hist = Array.make buckets 0 }
    in
    keys := k :: !keys;
    k

let bucket_of seconds =
  let ns = seconds *. 1e9 in
  if ns <= 1. then 0
  else min (buckets - 1) (int_of_float (float_of_int per_octave *. Float.log2 ns))

(* Geometric midpoint of a bucket, in seconds. *)
let bucket_value b = (2. ** ((float_of_int b +. 0.5) /. float_of_int per_octave)) /. 1e9

let quantile k q =
  if k.calls = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int k.calls))) in
    let rec go b seen =
      let seen = seen + k.hist.(b) in
      if seen >= rank || b = buckets - 1 then bucket_value b else go (b + 1) seen
    in
    go 0 0
  end

(* Raw spans kept for the JSONL file: the first [cap] recorded ones,
   in a buffer allocated on the first one (a large heap distorts the
   micro-benchmarks that run before). *)
let cap = 100_000

type raw = {
  ids : int array;
  names : string array;
  starts : float array;
  ends : float array;
  parents : int array;
  reqs : int array;
}

let raw =
  lazy
    {
      ids = Array.make cap 0;
      names = Array.make cap "";
      starts = Array.make cap 0.;
      ends = Array.make cap 0.;
      parents = Array.make cap 0;
      reqs = Array.make cap 0;
    }

let kept = ref 0
let dropped = ref 0

type frame = {
  id : int;
  parent : int;
  req : int;
  start : float;
  mutable children : float;
}

let stack : frame list ref = ref []
let next_id = ref 0
let enabled = ref false
let recording = ref false

(* [enabled]: spans are timed at all (the closures are wrapped).
   [recording]: finished spans feed the aggregates and the raw buffer —
   off for the units that only exist to measure tracing overhead. *)
let configure ~enabled:e ~recording:r =
  enabled := e;
  recording := r

let is_enabled () = !enabled

let start ?req () =
  if !enabled then begin
    let parent, inherited =
      match !stack with f :: _ -> (f.id, f.req) | [] -> (-1, -1)
    in
    let id = !next_id in
    incr next_id;
    stack :=
      {
        id;
        parent;
        req = Option.value req ~default:inherited;
        start = wall ();
        children = 0.;
      }
      :: !stack
  end

let stop ?at k =
  if !enabled then
    match !stack with
    | [] -> invalid_arg "Span.stop: no open span"
    | f :: rest ->
      stack := rest;
      let fin = match at with Some t -> t | None -> wall () in
      let d = fin -. f.start in
      (match rest with p :: _ -> p.children <- p.children +. d | [] -> ());
      if !recording then begin
        k.calls <- k.calls + 1;
        k.total <- k.total +. d;
        k.self <- k.self +. (d -. f.children);
        if d > k.max then k.max <- d;
        let b = bucket_of d in
        k.hist.(b) <- k.hist.(b) + 1;
        if !kept < cap then begin
          let r = Lazy.force raw and i = !kept in
          r.ids.(i) <- f.id;
          r.names.(i) <- k.name;
          r.starts.(i) <- f.start;
          r.ends.(i) <- fin;
          r.parents.(i) <- f.parent;
          r.reqs.(i) <- f.req;
          incr kept
        end
        else incr dropped
      end

let with_ ?req k f =
  if not !enabled then f ()
  else begin
    start ?req ();
    match f () with
    | v ->
      stop k;
      v
    | exception e ->
      stop k;
      raise e
  end

(* Spans sorted by id (= start order); times in seconds from the first
   kept span. *)
let write path =
  let oc = open_out_bin path in
  let n = !kept in
  let r = Lazy.force raw in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare r.ids.(a) r.ids.(b)) order;
  let origin = Array.fold_left (fun acc i -> Float.min acc r.starts.(i)) infinity order in
  Printf.fprintf oc
    "{\"schema\":\"msbench-spans-v1\",\"kept\":%d,\"dropped\":%d}\n" n !dropped;
  Array.iter
    (fun i ->
      Printf.fprintf oc
        "{\"span\":%d,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d}\n"
        r.ids.(i) r.names.(i) (r.starts.(i) -. origin) (r.ends.(i) -. origin) r.parents.(i)
        r.reqs.(i))
    order;
  close_out oc
