type location =
  | Root of int
  | Global of int
  | Field of int * int

type op =
  | Alloc of { id : int; size : int; site : int }
  | Store_ptr of { loc : location; target : int }
  | Clear_ptr of { loc : location; target : int }
  | Store_data of { loc : location; value : int }
  | Store_interior of { loc : location; target : int; word : int }
  | Zero of location
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
let globals_window_words = Layout.globals_size / 8

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
let global_word w = wrap w globals_window_words
(* [field_word] as an index, -1 for no word: the interpreter's form. *)
let field_index ~size w = if size < 8 then -1 else wrap w (size / 8)
let field_word ~size w =
  let w = field_index ~size w in
  if w < 0 then None else Some w
let interior_word ~size w = wrap w (max 1 (size / 8))
let aliased_id value = if value < 0 then Some (-value - 1) else None

type target = {
  alloc : id:int -> site:int -> int -> int;
  free : id:int -> thread:int -> int -> unit;
  pointer_store : slot:int -> old_value:int -> value:int -> unit;
  data_store : slot:int -> unit;
  after_op : int -> unit;
}

(* The live objects: id -> (address, size) in a two-column
   {!Flat_table}, so a lookup allocates nothing. *)
let addr_col = 0
let size_col = 1

let exec ~sites (machine : Alloc.Machine.t) on =
  let mem = machine.Alloc.Machine.mem in
  let objects = Flat_table.create ~width:2 in
  (* Address and size of the object in table slot [i]. *)
  let addr_of i = objects.Flat_table.rows.((2 * i) + addr_col) in
  let size_of i = objects.Flat_table.rows.((2 * i) + size_col) in
  (* The writable slot a location names, or -1 when the op skips it. *)
  let slot_of loc =
    let slot =
      match loc with
      | Root w -> Layout.stack_base + (8 * root_word w)
      | Global w -> Layout.globals_base + (8 * global_word w)
      | Field (id, w) ->
        let i = Flat_table.find objects id 0 in
        let w = if i < 0 then -1 else field_index ~size:(size_of i) w in
        if w < 0 then -1 else addr_of i + (8 * w)
    in
    if slot >= 0 && Vmem.is_writable mem slot then slot else -1
  in
  let data_store slot value =
    Vmem.store mem slot value;
    on.data_store ~slot
  in
  let op_index = ref 0 in
  fun op ->
    (match op with
    | Alloc { id; size; site } ->
      let addr = on.alloc ~id ~site:(clamp_site ~sites site) size in
      let i = Flat_table.add objects id 0 in
      Flat_table.set objects i addr_col addr;
      Flat_table.set objects i size_col size
    | Free { id; thread } ->
      let i = Flat_table.find objects id 0 in
      if i >= 0 then begin
        let addr = addr_of i in
        Flat_table.remove objects i;
        on.free ~id ~thread addr
      end
    | Store_ptr { loc; target } ->
      let slot = slot_of loc and i = Flat_table.find objects target 0 in
      if slot >= 0 && i >= 0 then begin
        let value = addr_of i in
        let old_value = Vmem.load mem slot in
        Vmem.store mem slot value;
        on.pointer_store ~slot ~old_value ~value
      end
    | Clear_ptr { loc; target } ->
      let slot = slot_of loc and i = Flat_table.find objects target 0 in
      if slot >= 0 && i >= 0 && Vmem.load mem slot = addr_of i then begin
        Vmem.store mem slot 0;
        on.pointer_store ~slot ~old_value:(addr_of i) ~value:0
      end
    | Store_data { loc; value } ->
      let slot = slot_of loc in
      if slot >= 0 then
        data_store slot
          (match aliased_id value with
          | Some id ->
            let i = Flat_table.find objects id 0 in
            if i >= 0 then addr_of i else 0
          | None -> value)
    | Store_interior { loc; target; word } ->
      let slot = slot_of loc in
      if slot >= 0 then begin
        let i = Flat_table.find objects target 0 in
        data_store slot
          (if i < 0 then 0
           else addr_of i + (8 * interior_word ~size:(size_of i) word))
      end
    | Zero loc ->
      let slot = slot_of loc in
      if slot >= 0 then begin
        let old_value = Vmem.load mem slot in
        Vmem.store mem slot 0;
        if Layout.in_heap old_value then
          on.pointer_store ~slot ~old_value ~value:0
        else on.data_store ~slot
      end
    | Work cycles -> Alloc.Machine.charge machine cycles);
    on.after_op !op_index;
    incr op_index

let run t machine on = Array.iter (exec ~sites:t.sites machine on) t.ops

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

let add_int buffer n = Buffer.add_string buffer (string_of_int n)

(* A location as its window letter and indices, each after one space. *)
let add_loc buffer = function
  | Root w ->
    Buffer.add_string buffer " r ";
    add_int buffer w
  | Global w ->
    Buffer.add_string buffer " g ";
    add_int buffer w
  | Field (id, w) ->
    Buffer.add_string buffer " f ";
    add_int buffer id;
    Buffer.add_char buffer ' ';
    add_int buffer w

let to_string t =
  let buffer = Buffer.create (Array.length t.ops * 12) in
  let field n =
    Buffer.add_char buffer ' ';
    add_int buffer n
  in
  let header key n =
    Buffer.add_string buffer key;
    field n;
    Buffer.add_char buffer '\n'
  in
  Buffer.add_string buffer "# msweep-trace v1 ";
  Buffer.add_string buffer t.name;
  Buffer.add_char buffer '\n';
  if t.threads <> 1 then header "# threads" t.threads;
  if t.sites <> 1 then header "# sites" t.sites;
  Array.iter
    (fun op ->
      (match op with
      | Alloc { id; size; site } ->
        Buffer.add_char buffer 'a';
        field id;
        field size;
        if site <> 0 then field site
      | Free { id; thread } ->
        Buffer.add_char buffer 'x';
        field id;
        if thread <> 0 then field thread
      | Store_ptr { loc; target } ->
        Buffer.add_char buffer 'p';
        add_loc buffer loc;
        field target
      | Clear_ptr { loc; target } ->
        Buffer.add_char buffer 'c';
        add_loc buffer loc;
        field target
      | Store_data { loc; value } ->
        Buffer.add_char buffer 'd';
        add_loc buffer loc;
        field value
      | Store_interior { loc; target; word } ->
        Buffer.add_char buffer 'i';
        add_loc buffer loc;
        field target;
        field word
      | Zero loc ->
        Buffer.add_char buffer 'z';
        add_loc buffer loc
      | Work cycles ->
        Buffer.add_char buffer 'w';
        field cycles);
      Buffer.add_char buffer '\n')
    t.ops;
  Buffer.contents buffer

exception Parse_error of { line : int; message : string }

let parse_error line message = raise (Parse_error { line; message })

(* A request larger than the heap window fits in no replay's address
   space; a negative one is no request at all. *)
let max_size = Layout.heap_limit - Layout.heap_base

(* The one scanner of the text format: [of_string] and every stream
   read their lines through [scan_line], so they can never disagree on
   the grammar. A line splits on ' ' into tokens, empty ones skipped
   (any other byte, '\t' and '\r' included, belongs to its token). The
   scanner records where the first [max_tokens] tokens lie rather than
   copying them, and keeps the header lines' name, thread count and
   site count. *)
let max_tokens = 6

type scanner = {
  starts : int array;
  stops : int array;
  mutable eol : int;  (* where the line just scanned ends *)
  mutable name : string;
  mutable threads : int;
  mutable sites : int;
}

let scanner () =
  {
    starts = Array.make max_tokens 0;
    stops = Array.make max_tokens 0;
    eol = 0;
    name = "trace";
    threads = 1;
    sites = 1;
  }

(* Record the tokens of the line at [pos], which ends at the first '\n'
   before [limit] or at [limit]; return how many there are (those past
   [max_tokens] are counted, not recorded). Slots for absent tokens are
   left empty, so reading one never reaches past this line's text. *)
let tokenize sc s pos limit =
  Array.fill sc.starts 0 max_tokens 0;
  Array.fill sc.stops 0 max_tokens 0;
  let n = ref 0 and i = ref pos in
  while !i < limit && String.unsafe_get s !i <> '\n' do
    if String.unsafe_get s !i = ' ' then incr i
    else begin
      let start = !i in
      while
        !i < limit
        && (let c = String.unsafe_get s !i in
            c <> ' ' && c <> '\n')
      do
        incr i
      done;
      if !n < max_tokens then begin
        sc.starts.(!n) <- start;
        sc.stops.(!n) <- !i
      end;
      incr n
    end
  done;
  sc.eol <- !i;
  !n

(* Token [k] when it is one byte long, '\000' otherwise. *)
let token_char sc s k =
  if sc.stops.(k) - sc.starts.(k) = 1 then String.unsafe_get s sc.starts.(k)
  else '\000'

(* Token [k] copied out: for the rare header lines only. *)
let token sc s k = String.sub s sc.starts.(k) (sc.stops.(k) - sc.starts.(k))

(* Token [k] as an integer; [field] names it in the error. A plain
   decimal token, an optional '-' and at most 18 digits (which cannot
   overflow), is read in place. Any other goes to [int_of_string_opt],
   which takes the hex, octal and binary prefixes, '_' and '+', and
   rejects what overflows. *)
let token_int sc ~line_no s k field =
  let start = sc.starts.(k) and stop = sc.stops.(k) in
  let first = if String.unsafe_get s start = '-' then start + 1 else start in
  let n = ref 0 and i = ref first in
  while
    !i < stop
    && (let c = String.unsafe_get s !i in
        c >= '0' && c <= '9')
  do
    n := (10 * !n) + (Char.code (String.unsafe_get s !i) - Char.code '0');
    incr i
  done;
  if !i = stop && stop > first && stop - first <= 18 then
    if first > start then - !n else !n
  else
    match int_of_string_opt (String.sub s start (stop - start)) with
    | Some v -> v
    | None -> parse_error line_no field

let token_size sc ~line_no s k =
  let size = token_int sc ~line_no s k "size" in
  if size < 0 || size > max_size then
    parse_error line_no (Printf.sprintf "size %d outside [0, %d]" size max_size);
  size

let unrecognised sc ~line_no s pos =
  parse_error line_no ("unrecognised op: " ^ String.sub s pos (sc.eol - pos))

(* A header line sets the scanner's fields; any other line starting
   with a "#" token is a comment. *)
let scan_header sc ~line_no s n =
  if n >= 3 && token sc s 1 = "msweep-trace" && token sc s 2 = "v1" then begin
    if n > 3 then
      sc.name <-
        String.sub s sc.stops.(2) (sc.eol - sc.stops.(2))
        |> String.split_on_char ' '
        |> List.filter (fun w -> w <> "")
        |> String.concat " "
  end
  else if n = 3 && token sc s 1 = "threads" then begin
    let threads = token_int sc ~line_no s 2 "threads" in
    if threads < 1 then parse_error line_no "threads must be >= 1";
    sc.threads <- threads
  end
  else if n = 3 && token sc s 1 = "sites" then begin
    let sites = token_int sc ~line_no s 2 "sites" in
    if sites < 1 then parse_error line_no "sites must be >= 1";
    sc.sites <- sites
  end

(* [r w] or [g w] at tokens 1 and 2. *)
let window_loc sc ~line_no s window =
  let w = token_int sc ~line_no s 2 "word" in
  if window = 'r' then Root w else Global w

(* [f id w] at tokens 1 to 3. *)
let field_loc sc ~line_no s =
  let w = token_int sc ~line_no s 3 "word" in
  Field (token_int sc ~line_no s 2 "id", w)

let store kind loc v =
  match kind with
  | 'p' -> Store_ptr { loc; target = v }
  | 'c' -> Clear_ptr { loc; target = v }
  | _ -> Store_data { loc; value = v }

(* The op on line [line_no], which starts at [pos] (see [tokenize]);
   [None] for a blank, comment or header line. Where a line has several
   malformed fields, the order they are read in below decides which one
   the error names. *)
let scan_line sc ~line_no s pos limit =
  let n = tokenize sc s pos limit in
  if n = 0 then None
  else
    match token_char sc s 0 with
    | '#' ->
      scan_header sc ~line_no s n;
      None
    | 'a' when n = 3 || n = 4 ->
      let site = if n = 4 then token_int sc ~line_no s 3 "site" else 0 in
      let size = token_size sc ~line_no s 2 in
      Some (Alloc { id = token_int sc ~line_no s 1 "id"; size; site })
    | 'x' when n = 2 || n = 3 ->
      let thread = if n = 3 then token_int sc ~line_no s 2 "thread" else 0 in
      Some (Free { id = token_int sc ~line_no s 1 "id"; thread })
    | 'w' when n = 2 -> Some (Work (token_int sc ~line_no s 1 "cycles"))
    | ('p' | 'c' | 'd') as kind -> (
      match token_char sc s 1 with
      | ('r' | 'g') as window when n = 4 ->
        let loc = window_loc sc ~line_no s window in
        Some (store kind loc (token_int sc ~line_no s 3 "value"))
      | 'f' when n = 5 ->
        let loc = field_loc sc ~line_no s in
        Some (store kind loc (token_int sc ~line_no s 4 "value"))
      | _ -> unrecognised sc ~line_no s pos)
    | 'i' -> (
      let interior loc k =
        let target = token_int sc ~line_no s k "target" in
        Some
          (Store_interior
             { loc; target; word = token_int sc ~line_no s (k + 1) "word" })
      in
      match token_char sc s 1 with
      | ('r' | 'g') as window when n = 5 ->
        interior (window_loc sc ~line_no s window) 3
      | 'f' when n = 6 -> interior (field_loc sc ~line_no s) 4
      | _ -> unrecognised sc ~line_no s pos)
    | 'z' -> (
      match token_char sc s 1 with
      | ('r' | 'g') as window when n = 3 ->
        Some (Zero (window_loc sc ~line_no s window))
      | 'f' when n = 4 -> Some (Zero (field_loc sc ~line_no s))
      | _ -> unrecognised sc ~line_no s pos)
    | _ -> unrecognised sc ~line_no s pos

(* As [String.split_on_char '\n']: [n] newlines make [n + 1] lines, so
   a trailing segment (possibly empty) still counts. *)
let of_string s =
  let sc = scanner () in
  let len = String.length s in
  let ops = ref (Array.make 1024 (Work 0)) and count = ref 0 in
  let pos = ref 0 and line_no = ref 1 in
  while !pos <= len do
    (match scan_line sc ~line_no:!line_no s !pos len with
    | Some op ->
      if !count = Array.length !ops then begin
        let bigger = Array.make (2 * !count) (Work 0) in
        Array.blit !ops 0 bigger 0 !count;
        ops := bigger
      end;
      !ops.(!count) <- op;
      incr count
    | None -> ());
    pos := sc.eol + 1;
    incr line_no
  done;
  ({ name = sc.name; threads = sc.threads; sites = sc.sites;
     ops = Array.sub !ops 0 !count } : t)

(* ------------------------------------------------------------------ *)
(* Chunked streaming                                                   *)

let default_chunk_ops = 4096

type stream = {
  s_header : scanner;  (* name, threads and sites, as read so far *)
  s_chunk : int;
  s_pull : unit -> op option;
  s_close : unit -> unit;
  mutable s_peek : op option;
  mutable s_consumed : bool;
}

(* Build a stream over an op producer that reads its headers into [sc].
   Leading header/comment lines are consumed eagerly (one op of
   lookahead) so [stream_name] and [stream_threads] are usable before
   the fold; header lines appearing later in the file are still honoured
   as the fold passes them. *)
let make_stream ?(chunk_ops = default_chunk_ops) sc pull close =
  let peek =
    match pull () with
    | op -> op
    | exception e ->
      close ();
      raise e
  in
  {
    s_header = sc;
    s_chunk = max 1 chunk_ops;
    s_pull = pull;
    s_close = close;
    s_peek = peek;
    s_consumed = false;
  }

let stream_of_string ?chunk_ops s =
  let sc = scanner () in
  let len = String.length s in
  let pos = ref 0 and line_no = ref 0 in
  let rec pull () =
    if !pos > len then None
    else begin
      incr line_no;
      let op = scan_line sc ~line_no:!line_no s !pos len in
      pos := sc.eol + 1;
      match op with Some _ -> op | None -> pull ()
    end
  in
  make_stream ?chunk_ops sc pull (fun () -> ())

let stream_of_file ?chunk_ops path =
  let ic = open_in path in
  let sc = scanner () in
  let line_no = ref 0 in
  let rec pull () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
      incr line_no;
      match scan_line sc ~line_no:!line_no line 0 (String.length line) with
      | Some _ as op -> op
      | None -> pull ())
  in
  make_stream ?chunk_ops sc pull (fun () -> close_in_noerr ic)

let stream_of_trace ?(chunk_ops = default_chunk_ops) (t : t) =
  let sc = scanner () in
  sc.name <- t.name;
  sc.threads <- t.threads;
  sc.sites <- t.sites;
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
    s_header = sc;
    s_chunk = max 1 chunk_ops;
    s_pull = pull;
    s_close = (fun () -> ());
    s_peek = None;
    s_consumed = false;
  }

let stream_name st = st.s_header.name
let stream_threads st = st.s_header.threads
let stream_sites st = st.s_header.sites

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
