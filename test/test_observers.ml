(* Allocator events are built only for an observer. One fixed script
   through [Quarantine] and one through [Jemalloc]: with a no-op
   observer attached each must allocate at least the words of the
   events it emits more than without one, and a recording observer must
   see exactly the events listed here, which are what the record-per-
   call implementation emitted for the same scripts. *)

module Q = Minesweeper.Quarantine
module Je = Alloc.Jemalloc

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let entry addr usable = { Q.addr; usable; unmapped_len = 0; failures = 0 }

(* Two thread buffers, and thread 7 aliasing buffer 0. *)
let quarantine_script q =
  Q.push q ~thread:0 (entry 0x100000 48);
  Q.push q ~thread:0 (entry 0x100040 48);
  Q.push q ~thread:1 (entry 0x200000 32);
  Q.push q ~thread:1 (entry 0x200040 32);
  Q.push q ~thread:7 (entry 0x200080 16);
  Q.flush_thread q ~thread:1;
  Q.push q ~thread:1 (entry 0x2000c0 32);
  ignore (Q.flush_batch q ~batch:4 : int);
  (match Q.lock_in q with
  | first :: rest ->
    Q.requeue_failed q first;
    List.iter (Q.release q) rest
  | [] -> ());
  Q.push q ~thread:0 (entry 0x300000 64);
  Q.flush_all q;
  List.iter (Q.release q) (Q.lock_in q)

let render_q = function
  | Q.Pushed { thread; raw_thread; addr; usable } ->
    Printf.sprintf "push %d/%d %#x %d" thread raw_thread addr usable
  | Q.Flushed { thread; entries } -> Printf.sprintf "flush %d %d" thread entries
  | Q.Locked_in { entries } ->
    Printf.sprintf "lock-in [%s]"
      (String.concat ";"
         (List.map (fun (a, u) -> Printf.sprintf "%#x %d" a u) entries))
  | Q.Requeued { addr } -> Printf.sprintf "requeue %#x" addr
  | Q.Released { addr } -> Printf.sprintf "release %#x" addr

let quarantine_events =
  [
    "push 0/0 0x100000 48"; "push 0/0 0x100040 48"; "push 1/1 0x200000 32";
    "push 1/1 0x200040 32"; "push 0/7 0x200080 16"; "flush 1 2";
    "push 1/1 0x2000c0 32"; "flush 0 3"; "flush 1 1";
    "lock-in [0x2000c0 32;0x100000 48;0x100040 48;0x200080 16;0x200000 \
     32;0x200040 32]";
    "requeue 0x2000c0"; "release 0x100000"; "release 0x100040";
    "release 0x200080"; "release 0x200000"; "release 0x200040";
    "push 0/0 0x300000 64"; "flush 0 1"; "lock-in [0x2000c0 32;0x300000 64]";
    "release 0x2000c0"; "release 0x300000";
  ]

(* Small classes through the thread cache, large ones through the extent
   layer, and the reuse of a freed chunk. *)
let jemalloc_script je =
  let a = Je.malloc je 16 in
  let b = Je.malloc je 64 in
  let c = Je.malloc je 100 in
  let big = Je.malloc je 40_000 in
  Je.free je b;
  let d = Je.malloc je 64 in
  Je.free je big;
  Je.free je a;
  let big2 = Je.malloc je 20_000 in
  Je.free je c;
  Je.free je d;
  Je.free je big2

let render_je = function
  | Je.Served { addr; usable; from_tcache } ->
    Printf.sprintf "serve %#x %d %b" addr usable from_tcache
  | Je.Recycled { addr; to_tcache } ->
    Printf.sprintf "recycle %#x %b" addr to_tcache

let jemalloc_events =
  [
    "serve 0x40000070 16 true"; "serve 0x400011c0 64 true";
    "serve 0x40002310 112 true"; "serve 0x40003000 40960 false";
    "recycle 0x400011c0 true"; "serve 0x400011c0 64 true";
    "recycle 0x40003000 false"; "recycle 0x40000070 true";
    "serve 0x40003000 20480 false"; "recycle 0x40002310 true";
    "recycle 0x400011c0 true"; "recycle 0x40003000 false";
  ]

(* Run [script] on a fresh [create ()] three ways: recording, with a
   no-op observer and with none. *)
let check_observer ~create ~set_observer ~script ~render ~expected () =
  let recorded = ref [] in
  let x = create () in
  set_observer x (fun e -> recorded := e :: !recorded);
  script x;
  let events = List.rev !recorded in
  Alcotest.(check (list string)) "events" expected (List.map render events);
  let observed =
    let x = create () in
    set_observer x ignore;
    minor_words (fun () -> script x)
  in
  let unobserved =
    let x = create () in
    minor_words (fun () -> script x)
  in
  let event_words =
    List.fold_left (fun n e -> n + Obj.reachable_words (Obj.repr e)) 0 events
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "observed run allocates its %d events' %d words more (%.0f vs %.0f)"
       (List.length events) event_words observed unobserved)
    true
    (observed -. unobserved >= float_of_int event_words)

let test_quarantine_events =
  check_observer
    ~create:(fun () -> Q.create (Alloc.Machine.create ()) ~threads:2)
    ~set_observer:Q.set_observer ~script:quarantine_script ~render:render_q
    ~expected:quarantine_events

let test_jemalloc_events =
  check_observer
    ~create:(fun () -> Je.create (Alloc.Machine.create ()))
    ~set_observer:Je.set_observer ~script:jemalloc_script ~render:render_je
    ~expected:jemalloc_events

let suite =
  ( "alloc.observers",
    [
      Alcotest.test_case "quarantine events only when observed" `Quick
        test_quarantine_events;
      Alcotest.test_case "jemalloc events only when observed" `Quick
        test_jemalloc_events;
    ] )
