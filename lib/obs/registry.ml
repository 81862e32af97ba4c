type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }

let log2_buckets = 63

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Derived_counter of (unit -> int)
  | Derived_gauge of (unit -> int)

(* Insertion-ordered assoc (reversed); reads sort by name, so the
   export order is independent of registration order. *)
type t = { mutable entries : (string * metric) list }

exception Duplicate of string
exception Kind_mismatch of string

let create () = { entries = [] }

let register t name metric =
  if List.mem_assoc name t.entries then raise (Duplicate name);
  t.entries <- (name, metric) :: t.entries

let counter t name =
  let c = { c_name = name; c_value = 0 } in
  register t name (Counter c);
  c

let gauge t name =
  let g = { g_name = name; g_value = 0 } in
  register t name (Gauge g);
  g

let empty_histogram name =
  { h_name = name; h_buckets = Array.make log2_buckets 0; h_count = 0; h_sum = 0 }

let histogram t name =
  let h = empty_histogram name in
  register t name (Histogram h);
  h

let derive_counter t name fn = register t name (Derived_counter fn)
let derive_gauge t name fn = register t name (Derived_gauge fn)

let metrics t =
  List.sort (fun (a, _) (b, _) -> String.compare a b) t.entries

let names t = List.map fst (metrics t)
let mem t name = List.mem_assoc name t.entries
let find t name = List.assoc_opt name t.entries

let value = function
  | Counter c -> c.c_value
  | Gauge g -> g.g_value
  | Histogram h -> h.h_count
  | Derived_counter fn | Derived_gauge fn -> fn ()

let read t name = Option.map value (find t name)
let snapshot t = List.map (fun (name, m) -> (name, value m)) (metrics t)

let reset t =
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0
      | Histogram h ->
        Array.fill h.h_buckets 0 log2_buckets 0;
        h.h_count <- 0;
        h.h_sum <- 0
      | Derived_counter _ | Derived_gauge _ -> ())
    t.entries

(* Namespaced additive union: every metric of [src] lands in [into] under
   [prefix ^ name]. Scalars merge by their kind's value (derived metrics
   are sampled at merge time and materialise as plain cells); histograms
   merge bucket-wise, preserving count and sum so quantiles over the
   union stay exact at bucket granularity. Merging the same prefix twice
   (or several sources under one prefix) therefore aggregates — the fleet
   layer's cross-tenant quantiles are exactly this. Iteration follows
   [metrics src] (sorted by name), so the result is deterministic
   regardless of registration order. *)
let merge_into ?(prefix = "") src ~into =
  let add_counter name v =
    match List.assoc_opt name into.entries with
    | None ->
      let c = { c_name = name; c_value = v } in
      register into name (Counter c)
    | Some (Counter c) -> c.c_value <- c.c_value + v
    | Some _ -> raise (Kind_mismatch name)
  in
  let add_gauge name v =
    match List.assoc_opt name into.entries with
    | None ->
      let g = { g_name = name; g_value = v } in
      register into name (Gauge g)
    | Some (Gauge g) -> g.g_value <- g.g_value + v
    | Some _ -> raise (Kind_mismatch name)
  in
  let add_histogram name (h : histogram) =
    let dst =
      match List.assoc_opt name into.entries with
      | None ->
        let fresh = empty_histogram name in
        register into name (Histogram fresh);
        fresh
      | Some (Histogram dst) -> dst
      | Some _ -> raise (Kind_mismatch name)
    in
    for i = 0 to log2_buckets - 1 do
      dst.h_buckets.(i) <- dst.h_buckets.(i) + h.h_buckets.(i)
    done;
    dst.h_count <- dst.h_count + h.h_count;
    dst.h_sum <- dst.h_sum + h.h_sum
  in
  List.iter
    (fun (name, m) ->
      let name = prefix ^ name in
      match m with
      | Counter c -> add_counter name c.c_value
      | Derived_counter fn -> add_counter name (fn ())
      | Gauge g -> add_gauge name g.g_value
      | Derived_gauge fn -> add_gauge name (fn ())
      | Histogram h -> add_histogram name h)
    (metrics src)

module Counter = struct
  let incr c n =
    assert (n >= 0);
    c.c_value <- c.c_value + n

  let reset c = c.c_value <- 0
  let value c = c.c_value
  let name c = c.c_name
end

module Gauge = struct
  let set g v = g.g_value <- v
  let set_max g v = if v > g.g_value then g.g_value <- v
  let value g = g.g_value
  let name g = g.g_name
end

module Histogram = struct
  let bucket_count = log2_buckets

  let bucket_of v =
    if v <= 1 then 0
    else begin
      let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
      min (log2_buckets - 1) (go v 0)
    end

  let lower_bound i = if i = 0 then 0 else 1 lsl i

  (* Exclusive upper edge of bucket [i]. Bucket 0 covers [0, 2); bucket i
     covers [2^i, 2^(i+1)); the last bucket is open-ended and reports
     max_int (1 lsl 63 would overflow). *)
  let upper_bound i =
    if i = 0 then 2 else if i >= log2_buckets - 1 then max_int else 1 lsl (i + 1)

  let observe h v =
    let v = max 0 v in
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v

  let count h = h.h_count
  let sum h = h.h_sum

  let buckets h =
    let acc = ref [] in
    for i = log2_buckets - 1 downto 0 do
      let n = h.h_buckets.(i) in
      if n > 0 then acc := (lower_bound i, n) :: !acc
    done;
    !acc

  (* Quantile with within-bucket linear interpolation. Reporting a raw
     bucket upper bound overstates the tail by up to 2x (a p999 of 1025
     cycles would read as 2048); interpolating linearly inside the bucket
     assumes observations are uniform there, which bounds the absolute
     error by the bucket width — worst-case relative error (hi-lo)/lo,
     i.e. < 100% for buckets >= 1 and typically far less. See DESIGN §8.

       q <= 0 -> lower edge of the first non-empty bucket
       q >= 1 -> upper edge of the last non-empty bucket
       empty histogram -> 0.                                            *)
  let quantile h q =
    let count = h.h_count in
    if count = 0 then 0.
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let target = q *. float_of_int count in
      let result = ref None and cum = ref 0 in
      let i = ref 0 in
      while !result = None && !i < log2_buckets do
        let n = h.h_buckets.(!i) in
        if n > 0 && float_of_int (!cum + n) >= target then begin
          let lo = float_of_int (lower_bound !i) in
          (* The last bucket is open-ended; interpolate against a synthetic
             2*lo edge rather than max_int. *)
          let hi =
            if !i >= log2_buckets - 1 then lo *. 2.
            else float_of_int (upper_bound !i)
          in
          let within = (target -. float_of_int !cum) /. float_of_int n in
          let within = Float.min 1. (Float.max 0. within) in
          result := Some (lo +. (within *. (hi -. lo)))
        end
        else begin
          cum := !cum + n;
          incr i
        end
      done;
      (* Unreachable fallback: the cumulative count always reaches
         [count] >= target within the loop. *)
      match !result with Some x -> x | None -> 0.
    end

  let name h = h.h_name
end
