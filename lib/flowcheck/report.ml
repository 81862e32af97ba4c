module Trace = Workloads.Trace
module Heap = Workloads.Absheap
module Flat_table = Workloads.Flat_table
module Diagnostic = Sanitizer.Diagnostic

type window_stats = {
  opened : int;
  closed : int;
  open_at_end : int;
  max_len : int;
  total_len : int;
}

type t = {
  trace_name : string;
  threads : int;
  ops : int;
  allocs : int;
  frees : int;
  findings : Diagnostic.t list;
  predicted_unsound : int list;
  predicted_retained : int list;
  windows : window_stats;
  wild_stores : int;
  subgranule_frees : int;
  bounds : Policy.bounds list;
}

let primary_policy policies =
  match
    List.find_opt (function Policy.Minesweeper _ -> true | _ -> false) policies
  with
  | Some p -> p
  | None -> Policy.Minesweeper Minesweeper.Config.default

let slot_to_string = function
  | Heap.Root_slot w -> Printf.sprintf "root[%d]" w
  | Heap.Global_slot w -> Printf.sprintf "global[%d]" w
  | Heap.Field_slot (id, w) -> Printf.sprintf "obj%d[%d]" id w

let render_chain chain id =
  let hops =
    List.rev_map
      (fun (slot, op) -> Printf.sprintf "%s@%d" (slot_to_string slot) op)
      chain
  in
  String.concat " -> " (hops @ [ Printf.sprintf "id %d" id ])

let analyze ?(policies = Policy.default_policies) stream =
  let primary = primary_policy policies in
  let granule = Option.value ~default:16 (Policy.shadow_granule primary) in
  let heap = Heap.create ~zeroing:(Policy.zeroing primary) in
  let policies = Array.of_list policies in
  let accs = Array.map Policy.acc policies in
  let diags = ref [] in
  let flag ~rule ~op message =
    diags :=
      Diagnostic.make ~rule ~severity:Diagnostic.Warning ~op_index:op message
      :: !diags
  in
  (* Id sets and maps in flat tables, so an event's upkeep allocates
     nothing: unsound ids (no row), retained id -> size, and the open
     dangling windows ({!window_stats}) id -> the op it opened at. *)
  let unsound = Flat_table.create ~width:0 in
  let retained = Flat_table.create ~width:1 in
  let retain id size =
    Flat_table.set retained (Flat_table.add retained id 0) 0 size
  in
  let windows = Flat_table.create ~width:1 in
  let wild_stores = ref 0 in
  let subgranule = ref 0 in
  let allocs = ref 0 in
  let frees = ref 0 in
  let opened = ref 0 and closed = ref 0 in
  let max_len = ref 0 and total_len = ref 0 in
  let measure len =
    max_len := max !max_len len;
    total_len := !total_len + len
  in
  (* An edge to [target] died at [op]: close the dangling window once
     the last one is gone. *)
  let edge_died op = function
    | Heap.Ptr id | Heap.Alias id
      when (not (Heap.is_live heap id)) && Heap.holder_count heap id = 0 ->
      let w = Flat_table.find windows id 0 in
      if w >= 0 then begin
        let opened_at = windows.Flat_table.rows.(w) in
        Flat_table.remove windows w;
        incr closed;
        measure (op - opened_at)
      end
    | Heap.Ptr _ | Heap.Alias _ | Heap.Wild -> ()
  in
  let displaced_died op = function
    | Some (target, _) -> edge_died op target
    | None -> ()
  in
  (* Zeroing destroyed every slot stored inside the dying object —
     exactly what the replay's registry drop models. *)
  let rec dropped_died op = function
    | [] -> ()
    | (_, target, _) :: rest ->
      edge_died op target;
      dropped_died op rest
  in
  (* The free's outside edges in one pass: how many are pointers and
     how many aliases, and the first slot of each. *)
  let ptrs = ref 0 and aliases = ref 0 in
  let first_ptr = ref (Heap.Root_slot 0)
  and first_alias = ref (Heap.Root_slot 0) in
  let rec count_outside = function
    | [] -> ()
    | (slot, Heap.Ptr _, _) :: rest ->
      if !ptrs = 0 then first_ptr := slot;
      incr ptrs;
      count_outside rest
    | (slot, (Heap.Alias _ | Heap.Wild), _) :: rest ->
      if !aliases = 0 then first_alias := slot;
      incr aliases;
      count_outside rest
  in
  let step i = function
    | Heap.Alloc { size; _ } ->
      incr allocs;
      for k = 0 to Array.length accs - 1 do
        Policy.acc_alloc accs.(k) ~size
      done
    | Heap.Free
        { id; before = Some (Heap.Live { size; _ }); outside; dropped; _ } ->
      incr frees;
      for k = 0 to Array.length accs - 1 do
        Policy.acc_free accs.(k) ~size
      done;
      dropped_died i dropped;
      ptrs := 0;
      aliases := 0;
      count_outside outside;
      if !ptrs > 0 then begin
        ignore (Flat_table.add unsound id 0);
        retain id size;
        flag ~rule:"flow-dangling" ~op:i
          (Printf.sprintf
             "id %d freed while %d live slot(s) still point at it; witness: %s"
             id !ptrs
             (render_chain (Heap.witness_chain heap !first_ptr) id))
      end
      else if !aliases > 0 then begin
        retain id size;
        flag ~rule:"flow-alias" ~op:i
          (Printf.sprintf
             "id %d freed while %d data slot(s) alias its address (unlucky \
              integers, e.g. %s): conservative retention expected"
             id !aliases
             (slot_to_string !first_alias))
      end;
      if !ptrs + !aliases > 0 && Flat_table.find windows id 0 < 0 then begin
        Flat_table.set windows (Flat_table.add windows id 0) 0 i;
        incr opened
      end;
      if Heap.wild_count heap > 0 then retain id size;
      if Policy.usable primary size < granule then begin
        incr subgranule;
        retain id size
      end
    | Heap.Free _ | Heap.Work -> ()
    | Heap.Store { displaced; _ } -> displaced_died i displaced
    | Heap.Clear { cleared; _ } -> displaced_died i cleared
    | Heap.Data { place; value; stored; displaced } ->
      (match (stored, place) with
      | Some Heap.Wild, Heap.(Slot slot | Wrapped { slot; _ }) ->
        incr wild_stores;
        flag ~rule:"flow-wild" ~op:i
          (Printf.sprintf
             "heap-range data value %#x stored at %s may alias any \
              allocation (conservative retention possible)"
             value (slot_to_string slot))
      | _ -> ());
      displaced_died i displaced
  in
  let ops = ref 0 in
  Trace.fold_stream stream ~init:() ~f:(fun () i op ->
      ops := i + 1;
      step i (Heap.step heap i op));
  (* Windows still open ran to the end of the trace: measure them there. *)
  Flat_table.iter windows (fun _ _ w ->
      measure (!ops - windows.Flat_table.rows.(w)));
  let sorted_ids tbl =
    let ids = ref [] in
    Flat_table.iter tbl (fun id _ _ -> ids := id :: !ids);
    List.sort compare !ids
  in
  let bounds =
    List.init (Array.length accs) (fun k ->
        let retained_bytes = ref 0 in
        Flat_table.iter retained (fun _ _ r ->
            retained_bytes :=
              !retained_bytes
              + Policy.usable policies.(k)
                  retained.Flat_table.rows.(r));
        Policy.finish accs.(k) ~retained_bytes:!retained_bytes)
  in
  {
    trace_name = Trace.stream_name stream;
    threads = Trace.stream_threads stream;
    ops = !ops;
    allocs = !allocs;
    frees = !frees;
    findings = Diagnostic.sort (List.rev !diags);
    predicted_unsound = sorted_ids unsound;
    predicted_retained = sorted_ids retained;
    windows =
      {
        opened = !opened;
        closed = !closed;
        open_at_end = Flat_table.count windows;
        max_len = !max_len;
        total_len = !total_len;
      };
    wild_stores = !wild_stores;
    subgranule_frees = !subgranule;
    bounds;
  }

let analyze_trace ?policies trace =
  analyze ?policies (Trace.stream_of_trace trace)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_ints ids =
  "[" ^ String.concat "," (List.map string_of_int ids) ^ "]"

let bounds_to_json (b : Policy.bounds) =
  Printf.sprintf
    "{\"policy\":\"%s\",\"allocs\":%d,\"frees\":%d,\"peak_live_bytes\":%d,\
     \"total_freed_bytes\":%d,\"max_entry_bytes\":%d,\"occupancy_bound\":%d,\
     \"modeled_occupancy\":%d,\"sweeps_bound\":%d,\"swept_bytes_bound\":%d,\
     \"never_reuse\":%b}"
    (json_escape b.Policy.policy)
    b.Policy.allocs b.Policy.frees b.Policy.peak_live_bytes
    b.Policy.total_freed_bytes b.Policy.max_entry_bytes
    b.Policy.occupancy_bound b.Policy.modeled_occupancy b.Policy.sweeps_bound
    b.Policy.swept_bytes_bound b.Policy.never_reuse

let finding_to_json (d : Diagnostic.t) =
  Printf.sprintf "{\"rule\":\"%s\",\"severity\":\"%s\",\"op\":%d,\"message\":\"%s\"}"
    (json_escape d.Diagnostic.rule)
    (Diagnostic.severity_to_string d.Diagnostic.severity)
    d.Diagnostic.op_index
    (json_escape d.Diagnostic.message)

(* Schema v2 = v1 plus the two siteflow fields ([sites], [pools]),
   empty when the pooling analysis was not run. Every v1 field keeps
   its name, type and order, so v1 consumers keep working. *)
let to_json ?pools t =
  let sites_json, pools_json =
    match pools with
    | None -> ("[]", "[]")
    | Some plan -> (Poolplan.sites_json plan, Poolplan.pools_json plan)
  in
  Printf.sprintf
    "{\"schema\":\"msweep-flowcheck-v2\",\"trace\":\"%s\",\"threads\":%d,\
     \"ops\":%d,\"allocs\":%d,\"frees\":%d,\"findings\":[%s],\
     \"predicted_unsound\":%s,\"predicted_retained\":%s,\
     \"windows\":{\"opened\":%d,\"closed\":%d,\"open_at_end\":%d,\
     \"max_len\":%d,\"total_len\":%d},\"wild_stores\":%d,\
     \"subgranule_frees\":%d,\"bounds\":[%s],\"sites\":%s,\"pools\":%s}"
    (json_escape t.trace_name) t.threads t.ops t.allocs t.frees
    (String.concat "," (List.map finding_to_json t.findings))
    (json_ints t.predicted_unsound)
    (json_ints t.predicted_retained)
    t.windows.opened t.windows.closed t.windows.open_at_end t.windows.max_len
    t.windows.total_len t.wild_stores t.subgranule_frees
    (String.concat "," (List.map bounds_to_json t.bounds))
    sites_json pools_json

(* Tolerant top-level field extractor: enough JSON awareness (strings,
   escapes, bracket depth) to pull one field out of any v1 or v2
   document without a parser dependency. Consumers that read documents
   this way are insensitive to fields added by later schemas — the
   compatibility contract the v1->v2 bump relies on. *)
let json_field doc key =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle and dlen = String.length doc in
  let rec find i in_string escaped depth =
    if i >= dlen then None
    else
      let c = doc.[i] in
      if in_string then
        find (i + 1)
          (not (c = '"' && not escaped))
          (c = '\\' && not escaped)
          depth
      else
        match c with
        | '"' when depth = 1 && i + nlen <= dlen && String.sub doc i nlen = needle
          -> Some (i + nlen)
        | '"' -> find (i + 1) true false depth
        | '{' | '[' -> find (i + 1) false false (depth + 1)
        | '}' | ']' -> find (i + 1) false false (depth - 1)
        | _ -> find (i + 1) false false depth
  in
  match find 0 false false 0 with
  | None -> None
  | Some start ->
    (* Take the value: until a comma or closing brace at this depth. *)
    let buf = Buffer.create 32 in
    let rec take i in_string escaped depth =
      if i >= dlen then Buffer.contents buf
      else
        let c = doc.[i] in
        if in_string then begin
          Buffer.add_char buf c;
          take (i + 1) (not (c = '"' && not escaped)) (c = '\\' && not escaped)
            depth
        end
        else
          match c with
          | (',' | '}') when depth = 0 -> Buffer.contents buf
          | '"' ->
            Buffer.add_char buf c;
            take (i + 1) true false depth
          | '{' | '[' ->
            Buffer.add_char buf c;
            take (i + 1) false false (depth + 1)
          | '}' | ']' ->
            Buffer.add_char buf c;
            take (i + 1) false false (depth - 1)
          | _ ->
            Buffer.add_char buf c;
            take (i + 1) false false depth
    in
    Some (take start false false 0)

let render t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "flowcheck: %s: %d ops, %d allocs, %d frees, %d finding(s)"
    t.trace_name t.ops t.allocs t.frees (List.length t.findings);
  List.iter (fun d -> line "  %s" (Diagnostic.to_string d)) t.findings;
  line
    "  dangling windows: %d opened, %d closed, %d open at end (max %d ops, \
     total %d ops)"
    t.windows.opened t.windows.closed t.windows.open_at_end t.windows.max_len
    t.windows.total_len;
  line "  predicted unsound-if-recycled: %d id(s); predicted retention: %d \
        id(s); wild stores: %d; sub-granule frees: %d"
    (List.length t.predicted_unsound)
    (List.length t.predicted_retained)
    t.wild_stores t.subgranule_frees;
  List.iter
    (fun (b : Policy.bounds) ->
      line
        "  [%s] peak live %d B; occupancy bound %d B (modeled %d B); sweeps \
         <= %d; swept <= %d B%s"
        b.Policy.policy b.Policy.peak_live_bytes b.Policy.occupancy_bound
        b.Policy.modeled_occupancy b.Policy.sweeps_bound
        b.Policy.swept_bytes_bound
        (if b.Policy.never_reuse then " (never-reuse: retired address space)"
         else ""))
    t.bounds;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Differential bound check                                            *)

let check_bounds t ~policy ~peak_quarantine_bytes ~swept_bytes ~sweeps =
  match
    List.find_opt (fun (b : Policy.bounds) -> b.Policy.policy = policy) t.bounds
  with
  | None ->
    [
      Diagnostic.make ~rule:"flow-bound-missing" ~severity:Diagnostic.Error
        (Printf.sprintf "no static bounds for policy %s in this report" policy);
    ]
  | Some b ->
    let out = ref [] in
    let check rule measured bound what =
      if measured > bound then
        out :=
          Diagnostic.make ~rule ~severity:Diagnostic.Error
            (Printf.sprintf
               "measured %s (%d) exceeds the static bound (%d) for %s" what
               measured bound policy)
          :: !out
    in
    check "flow-bound-occupancy" peak_quarantine_bytes b.Policy.occupancy_bound
      "ms.peak_quarantine_bytes";
    check "flow-bound-swept" swept_bytes b.Policy.swept_bytes_bound
      "ms.swept_bytes";
    check "flow-bound-sweeps" sweeps b.Policy.sweeps_bound "ms.sweeps";
    Diagnostic.sort !out

(* ------------------------------------------------------------------ *)
(* Corpus self-test                                                    *)

let corpus_expectations =
  [
    ("double-free", []);
    ("free-unallocated", []);
    ("duplicate-alloc", []);
    ("store-after-free", []);
    ("store-unallocated", []);
    ("dangling-target", []);
    ("unclear-before-free", [ "flow-dangling" ]);
    ("field-out-of-range", []);
    ("uaf-chain", [ "flow-dangling" ]);
    ("free-thread-out-of-range", []);
    ("alloc-site-out-of-range", []);
  ]

let corpus_self_test () =
  List.map
    (fun (c : Sanitizer.Corpus.case) ->
      let r = analyze_trace c.Sanitizer.Corpus.trace in
      let got =
        List.sort_uniq compare
          (List.map (fun d -> d.Diagnostic.rule) r.findings)
      in
      let expected =
        Option.value ~default:[]
          (List.assoc_opt c.Sanitizer.Corpus.name corpus_expectations)
      in
      (c.Sanitizer.Corpus.name, expected, got, got = expected))
    Sanitizer.Corpus.cases
