type location =
  | Root of int
  | Field of int * int

type op =
  | Alloc of { id : int; size : int; site : int }
  | Store_ptr of { loc : location; target : int }
  | Clear_ptr of { loc : location; target : int }
  | Store_data of { loc : location; value : int }
  | Free of { id : int; thread : int }
  | Work of int

type t = {
  name : string;
  threads : int;
  sites : int;
  ops : op array;
}

(* Site ids out of [0, sites) alias site 0 — the same convention the
   free-thread column uses, so malformed traces stay replayable (the
   lint pass flags them). *)
let clamp_site ~sites site = if site >= 0 && site < sites then site else 0

let length t = Array.length t.ops

let allocation_count t =
  Array.fold_left
    (fun acc op -> match op with Alloc _ -> acc + 1 | _ -> acc)
    0 t.ops

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let root_window_words = 8192

(* The stable allocation-site key: a pure function of the sampled size
   (log2 size-class bucket, folded onto [0, sites)), standing in for the
   call-site/type key a compiler pass would emit. Being a function of
   the size alone keeps the generator's RNG streams untouched and lets
   [Driver] attribute its own mallocs to the same sites. *)
let site_of_size ~sites size =
  if sites <= 1 then 0
  else begin
    let rec bucket acc n = if n <= 8 then acc else bucket (acc + 1) (n lsr 1) in
    bucket 0 (max 1 size) mod sites
  end

(* The generator's live set: a Fenwick tree of 0/1 counts over the
   allocation ids [0, capacity). Insert, remove and "k-th smallest live
   id" are each O(log capacity). *)
module Live = struct
  type t = {
    tree : int array; (* 1-based; slot j sums ids [j - lowbit j, j) *)
    top : int; (* highest power of two <= capacity, 0 when empty *)
    mutable count : int;
  }

  let create capacity =
    let rec top p = if 2 * p > capacity then p else top (2 * p) in
    { tree = Array.make (capacity + 1) 0;
      top = (if capacity = 0 then 0 else top 1);
      count = 0 }

  let update t id delta =
    let j = ref (id + 1) in
    while !j < Array.length t.tree do
      t.tree.(!j) <- t.tree.(!j) + delta;
      j := !j + (!j land (- !j))
    done;
    t.count <- t.count + delta

  let add t id = update t id 1
  let remove t id = update t id (-1)

  (* The [k]-th smallest live id, [1 <= k <= count]: binary descent
     from the highest power of two, skipping every subtree whose whole
     count still falls short of [k]. *)
  let nth_smallest t k =
    let pos = ref 0 and rem = ref k and step = ref t.top in
    while !step > 0 do
      let next = !pos + !step in
      if next < Array.length t.tree && t.tree.(next) < !rem then begin
        pos := next;
        rem := !rem - t.tree.(next)
      end;
      step := !step lsr 1
    done;
    !pos
end

let generate ?(seed = 1) profile =
  let rng = Sim.Rng.create (seed lxor profile.Profile.seed) in
  let size_rng = Sim.Rng.split rng in
  let life_rng = Sim.Rng.split rng in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let total = profile.Profile.ops in
  let live = Live.create (max 0 total) in
  let sizes = Array.make (max 0 total) 0 in (* allocation id -> size *)
  let deaths = Hashtbl.create 1024 in
  let refs = Hashtbl.create 1024 in (* id -> (location * target) list *)
  (* A uniform draw over the live objects ranked most-recent first: rank
     [n] is the [(count - n)]-th smallest live id, because ids are
     handed out in increasing order. Pinned by the trace bytes. *)
  let pick_live () =
    if live.Live.count = 0 then None
    else begin
      let n = Sim.Rng.int rng live.Live.count in
      let id = Live.nth_smallest live (live.Live.count - n) in
      Some (id, sizes.(id))
    end
  in
  for i = 0 to total - 1 do
    (match Hashtbl.find_opt deaths i with
    | Some ids ->
      Hashtbl.remove deaths i;
      List.iter
        (fun id ->
          (* Clear (most of) the pointers to the dying object first. *)
          List.iter
            (fun loc ->
              if not (Sim.Rng.bool rng profile.Profile.dangling_rate) then
                emit (Clear_ptr { loc; target = id }))
            (Option.value ~default:[] (Hashtbl.find_opt refs id));
          Hashtbl.remove refs id;
          emit (Free { id; thread = 0 });
          Live.remove live id)
        ids
    | None -> ());
    let size = Sim.Dist.sample profile.Profile.size size_rng in
    let site = site_of_size ~sites:profile.Profile.sites size in
    emit (Alloc { id = i; size; site });
    sizes.(i) <- size;
    Live.add live i;
    if Sim.Rng.bool rng profile.Profile.pointer_density then begin
      let loc =
        if Sim.Rng.bool rng profile.Profile.root_fraction then
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
    if Sim.Rng.bool rng profile.Profile.false_pointer_rate then
      (* An unlucky integer: recorded as data so instrumented schemes do
         not see it. Value resolved at replay time from a live id. *)
      (match pick_live () with
      | Some (target, _) ->
        emit (Store_data { loc = Root (Sim.Rng.int rng root_window_words);
                           value = - target - 1 })
        (* negative values encode "address of object ~target" *)
      | None -> ());
    if not (Sim.Rng.bool rng profile.Profile.leak_rate) then begin
      let lifetime = Sim.Dist.sample profile.Profile.lifetime life_rng in
      let at = i + 1 + lifetime in
      if at < total then
        Hashtbl.replace deaths at
          (i :: Option.value ~default:[] (Hashtbl.find_opt deaths at))
    end;
    emit (Work profile.Profile.work_per_op)
  done;
  { name = profile.Profile.name; threads = 1;
    sites = max 1 profile.Profile.sites;
    ops = Array.of_list (List.rev !ops) }

(* ------------------------------------------------------------------ *)
(* Index rule and interpreter                                          *)

(* Euclidean modulo: [-1] wraps to [n - 1], never below 0. *)
let wrap w n =
  let r = w mod n in
  if r < 0 then r + n else r

let root_word w = wrap w root_window_words
let field_word ~size w = if size < 8 then None else Some (wrap w (size / 8))
let aliased_id value = if value < 0 then Some (-value - 1) else None

type target = {
  alloc : id:int -> site:int -> int -> int;
  free : id:int -> thread:int -> int -> unit;
  pointer_store : slot:int -> old_value:int -> value:int -> unit;
  data_store : slot:int -> unit;
  after_op : int -> unit;
}

let run t (machine : Alloc.Machine.t) on =
  let mem = machine.Alloc.Machine.mem in
  let objects = Hashtbl.create 4096 in (* live id -> (addr, size) *)
  let address id = Option.map fst (Hashtbl.find_opt objects id) in
  let slot_of loc =
    let slot =
      match loc with
      | Root w -> Some (Layout.stack_base + (8 * root_word w))
      | Field (id, w) -> (
        match Hashtbl.find_opt objects id with
        | Some (addr, size) -> (
          match field_word ~size w with
          | Some w -> Some (addr + (8 * w))
          | None -> None)
        | None -> None)
    in
    match slot with
    | Some slot
      when Vmem.is_mapped mem slot
           && Vmem.is_committed mem slot
           && Vmem.protection mem slot = Vmem.Read_write ->
      Some slot
    | Some _ | None -> None
  in
  Array.iteri
    (fun op_index op ->
      (match op with
      | Alloc { id; size; site } ->
        let addr = on.alloc ~id ~site:(clamp_site ~sites:t.sites site) size in
        Hashtbl.replace objects id (addr, size)
      | Free { id; thread } -> (
        match address id with
        | Some addr ->
          Hashtbl.remove objects id;
          on.free ~id ~thread addr
        | None -> ())
      | Store_ptr { loc; target } -> (
        match (slot_of loc, address target) with
        | Some slot, Some value ->
          let old_value = Vmem.load mem slot in
          Vmem.store mem slot value;
          on.pointer_store ~slot ~old_value ~value
        | _ -> ())
      | Clear_ptr { loc; target } -> (
        match (slot_of loc, address target) with
        | Some slot, Some old_value when Vmem.load mem slot = old_value ->
          Vmem.store mem slot 0;
          on.pointer_store ~slot ~old_value ~value:0
        | _ -> ())
      | Store_data { loc; value } -> (
        match slot_of loc with
        | Some slot ->
          let value =
            match aliased_id value with
            | Some id -> Option.value ~default:0 (address id)
            | None -> value
          in
          Vmem.store mem slot value;
          on.data_store ~slot
        | None -> ())
      | Work cycles -> Alloc.Machine.charge machine cycles);
      on.after_op op_index)
    t.ops

let replay t (stack : Harness.t) =
  run t stack.Harness.machine
    {
      alloc =
        (fun ~id:_ ~site size ->
          let addr = stack.Harness.malloc_site ~site size in
          stack.Harness.tick ();
          addr);
      free = (fun ~id:_ ~thread addr -> stack.Harness.free ~thread addr);
      pointer_store = stack.Harness.on_pointer_write;
      data_store = (fun ~slot:_ -> ());
      after_op = ignore;
    };
  stack.Harness.drain ();
  length t

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)

let loc_to_string = function
  | Root w -> Printf.sprintf "r %d" w
  | Field (id, w) -> Printf.sprintf "f %d %d" id w

let to_string t =
  let buffer = Buffer.create (Array.length t.ops * 12) in
  Buffer.add_string buffer (Printf.sprintf "# msweep-trace v1 %s\n" t.name);
  if t.threads <> 1 then
    Buffer.add_string buffer (Printf.sprintf "# threads %d\n" t.threads);
  if t.sites <> 1 then
    Buffer.add_string buffer (Printf.sprintf "# sites %d\n" t.sites);
  Array.iter
    (fun op ->
      Buffer.add_string buffer
        (match op with
        | Alloc { id; size; site } ->
          if site = 0 then Printf.sprintf "a %d %d\n" id size
          else Printf.sprintf "a %d %d %d\n" id size site
        | Free { id; thread } ->
          if thread = 0 then Printf.sprintf "x %d\n" id
          else Printf.sprintf "x %d %d\n" id thread
        | Store_ptr { loc; target } ->
          Printf.sprintf "p %s %d\n" (loc_to_string loc) target
        | Clear_ptr { loc; target } ->
          Printf.sprintf "c %s %d\n" (loc_to_string loc) target
        | Store_data { loc; value } ->
          Printf.sprintf "d %s %d\n" (loc_to_string loc) value
        | Work cycles -> Printf.sprintf "w %d\n" cycles))
    t.ops;
  Buffer.contents buffer

exception Parse_error of { line : int; message : string }

let parse_error line message = raise (Parse_error { line; message })

(* A request larger than the heap window fits in no replay's address
   space; a negative one is no request at all. *)
let max_size = Layout.heap_limit - Layout.heap_base

(* One line of the text format. The one-shot parser and the chunked
   stream share this so they can never disagree on the grammar. *)
type parsed_line =
  | L_op of op
  | L_name of string
  | L_threads of int
  | L_sites of int
  | L_nothing

let parse_line ~line_no line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let int_at msg w =
    match int_of_string_opt w with
    | Some v -> v
    | None -> parse_error line_no msg
  in
  let size_at w =
    let size = int_at "size" w in
    if size < 0 || size > max_size then
      parse_error line_no
        (Printf.sprintf "size %d outside [0, %d]" size max_size);
    size
  in
  match words with
  | [] -> L_nothing
  | "#" :: "msweep-trace" :: "v1" :: rest ->
    if rest <> [] then L_name (String.concat " " rest) else L_nothing
  | [ "#"; "threads"; n ] ->
    let n = int_at "threads" n in
    if n < 1 then parse_error line_no "threads must be >= 1";
    L_threads n
  | [ "#"; "sites"; n ] ->
    let n = int_at "sites" n in
    if n < 1 then parse_error line_no "sites must be >= 1";
    L_sites n
  | "#" :: _ -> L_nothing
  | [ "a"; id; size ] ->
    L_op (Alloc { id = int_at "id" id; size = size_at size; site = 0 })
  | [ "a"; id; size; site ] ->
    L_op
      (Alloc
         {
           id = int_at "id" id;
           size = size_at size;
           site = int_at "site" site;
         })
  | [ "x"; id ] -> L_op (Free { id = int_at "id" id; thread = 0 })
  | [ "x"; id; thread ] ->
    L_op (Free { id = int_at "id" id; thread = int_at "thread" thread })
  | [ "w"; cycles ] -> L_op (Work (int_at "cycles" cycles))
  | [ kind; "r"; w; v ] when kind = "p" || kind = "c" || kind = "d" ->
    let loc = Root (int_at "word" w) in
    let v = int_at "value" v in
    L_op
      (match kind with
      | "p" -> Store_ptr { loc; target = v }
      | "c" -> Clear_ptr { loc; target = v }
      | _ -> Store_data { loc; value = v })
  | [ kind; "f"; id; w; v ] when kind = "p" || kind = "c" || kind = "d" ->
    let loc = Field (int_at "id" id, int_at "word" w) in
    let v = int_at "value" v in
    L_op
      (match kind with
      | "p" -> Store_ptr { loc; target = v }
      | "c" -> Clear_ptr { loc; target = v }
      | _ -> Store_data { loc; value = v })
  | _ -> parse_error line_no ("unrecognised op: " ^ line)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let name = ref "trace" in
  let threads = ref 1 in
  let sites = ref 1 in
  let ops = ref [] in
  List.iteri
    (fun idx line ->
      match parse_line ~line_no:(idx + 1) line with
      | L_op op -> ops := op :: !ops
      | L_name n -> name := n
      | L_threads n -> threads := n
      | L_sites n -> sites := n
      | L_nothing -> ())
    lines;
  { name = !name; threads = !threads; sites = !sites;
    ops = Array.of_list (List.rev !ops) }

(* ------------------------------------------------------------------ *)
(* Chunked streaming                                                   *)

let default_chunk_ops = 4096

type stream = {
  s_name : string ref;
  s_threads : int ref;
  s_sites : int ref;
  s_chunk : int;
  s_pull : unit -> op option;
  s_close : unit -> unit;
  mutable s_peek : op option;
  mutable s_consumed : bool;
}

(* Build a stream over a line producer. Leading header/comment lines are
   consumed eagerly (one op of lookahead) so [stream_name] and
   [stream_threads] are usable before the fold; header lines appearing
   later in the file are still honoured as the fold passes them. *)
let stream_of_lines ?(chunk_ops = default_chunk_ops) next_line close =
  let name = ref "trace" in
  let threads = ref 1 in
  let sites = ref 1 in
  let line_no = ref 0 in
  let rec pull () =
    match next_line () with
    | None -> None
    | Some line -> (
      incr line_no;
      match parse_line ~line_no:!line_no line with
      | L_op op -> Some op
      | L_name n ->
        name := n;
        pull ()
      | L_threads n ->
        threads := n;
        pull ()
      | L_sites n ->
        sites := n;
        pull ()
      | L_nothing -> pull ())
  in
  let peek = pull () in
  {
    s_name = name;
    s_threads = threads;
    s_sites = sites;
    s_chunk = max 1 chunk_ops;
    s_pull = pull;
    s_close = close;
    s_peek = peek;
    s_consumed = false;
  }

let stream_of_string ?chunk_ops s =
  let len = String.length s in
  let pos = ref 0 in
  (* Mirrors [String.split_on_char '\n']: [n] newlines make [n + 1]
     lines, so a trailing segment (possibly empty) still counts. *)
  let next_line () =
    if !pos > len then None
    else begin
      let start = !pos in
      let stop =
        match String.index_from_opt s start '\n' with
        | Some i -> i
        | None -> len
      in
      pos := stop + 1;
      Some (String.sub s start (stop - start))
    end
  in
  stream_of_lines ?chunk_ops next_line (fun () -> ())

let stream_of_file ?chunk_ops path =
  let ic = open_in path in
  let next_line () =
    match input_line ic with
    | line -> Some line
    | exception End_of_file -> None
  in
  stream_of_lines ?chunk_ops next_line (fun () -> close_in_noerr ic)

let stream_of_trace ?(chunk_ops = default_chunk_ops) t =
  let i = ref 0 in
  let pull () =
    if !i >= Array.length t.ops then None
    else begin
      let op = t.ops.(!i) in
      incr i;
      Some op
    end
  in
  {
    s_name = ref t.name;
    s_threads = ref t.threads;
    s_sites = ref t.sites;
    s_chunk = max 1 chunk_ops;
    s_pull = pull;
    s_close = (fun () -> ());
    s_peek = None;
    s_consumed = false;
  }

let stream_name st = !(st.s_name)
let stream_threads st = !(st.s_threads)
let stream_sites st = !(st.s_sites)

let fold_stream st ~init ~f =
  if st.s_consumed then
    invalid_arg "Trace.fold_stream: stream already consumed";
  st.s_consumed <- true;
  Fun.protect ~finally:st.s_close (fun () ->
      let buf = Array.make st.s_chunk (Work 0) in
      let next () =
        match st.s_peek with
        | Some op ->
          st.s_peek <- None;
          Some op
        | None -> st.s_pull ()
      in
      let rec refill n =
        if n >= st.s_chunk then n
        else
          match next () with
          | None -> n
          | Some op ->
            buf.(n) <- op;
            refill (n + 1)
      in
      let acc = ref init in
      let idx = ref 0 in
      let rec loop () =
        let n = refill 0 in
        for i = 0 to n - 1 do
          acc := f !acc !idx buf.(i);
          incr idx
        done;
        if n = st.s_chunk then loop ()
      in
      loop ();
      !acc)

let to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
