(* Model-based testing: random malloc/free interleavings executed
   simultaneously against the JeMalloc model and a trivial reference
   model (a map of live allocations), checking the allocator invariants
   the rest of the system depends on:

   - served ranges never overlap live ranges;
   - usable_size covers the request and is stable across the lifetime;
   - live accounting matches the reference exactly;
   - the same is re-checked with MineSweeper interposed, where ranges
     additionally must not overlap *quarantined* ranges. *)

type action =
  | Do_malloc of int
  | Do_free of int (* index into live list, modulo length *)

let action_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun size -> Do_malloc size) (int_range 1 40_000));
        (2, map (fun i -> Do_free i) (int_range 0 1000));
      ])

let action_print = function
  | Do_malloc n -> Printf.sprintf "malloc %d" n
  | Do_free i -> Printf.sprintf "free #%d" i

let actions =
  QCheck.make
    ~print:QCheck.Print.(list action_print)
    QCheck.Gen.(list_size (return 400) action_gen)

let overlaps (a, alen) (b, blen) = a < b + blen && b < a + alen

let check_no_overlap live addr len =
  List.for_all (fun (base, l) -> not (overlaps (addr, len) (base, l))) live

let prop_jemalloc_against_model =
  QCheck.Test.make ~name:"jemalloc matches the reference model" ~count:25
    actions
    (fun script ->
      let machine = Alloc.Machine.create () in
      let je = Alloc.Jemalloc.create machine in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun action ->
          match action with
          | Do_malloc size ->
            let addr = Alloc.Jemalloc.malloc je size in
            let usable = Alloc.Jemalloc.usable_size je addr in
            if usable < size then ok := false;
            if not (check_no_overlap !live addr usable) then ok := false;
            live := (addr, usable) :: !live
          | Do_free i ->
            (match !live with
            | [] -> ()
            | _ ->
              let n = i mod List.length !live in
              let addr, usable = List.nth !live n in
              (* usable must be stable until the free *)
              if Alloc.Jemalloc.usable_size je addr <> usable then ok := false;
              Alloc.Jemalloc.free je addr;
              live := List.filteri (fun j _ -> j <> n) !live))
        script;
      !ok
      && Alloc.Jemalloc.live_allocations je = List.length !live
      && Alloc.Jemalloc.live_bytes je
         = List.fold_left (fun acc (_, u) -> acc + u) 0 !live)

let prop_minesweeper_against_model =
  QCheck.Test.make
    ~name:"minesweeper never serves live or quarantined ranges" ~count:15
    actions
    (fun script ->
      let machine = Alloc.Machine.create () in
      Alloc.Machine.map_roots machine;
      let ms = Minesweeper.Instance.create machine in
      let live = ref [] in
      let quarantined = ref [] in
      let ok = ref true in
      List.iter
        (fun action ->
          (* Quarantined entries leave our model set once recycled (we
             detect recycling lazily: if a new allocation overlaps a
             quarantined range, that range must no longer be
             quarantined). *)
          match action with
          | Do_malloc size ->
            let addr = Minesweeper.Instance.malloc ms size in
            let usable =
              Alloc.Jemalloc.usable_size (Minesweeper.Instance.jemalloc ms) addr
            in
            if usable < size then ok := false;
            if not (check_no_overlap !live addr usable) then ok := false;
            quarantined :=
              List.filter
                (fun (base, l, qaddr) ->
                  if overlaps (addr, usable) (base, l) then begin
                    (* Reuse of a once-quarantined range is only legal
                       after release. *)
                    if Minesweeper.Instance.is_quarantined ms qaddr then
                      ok := false;
                    false
                  end
                  else true)
                !quarantined;
            live := (addr, usable) :: !live
          | Do_free i ->
            (match !live with
            | [] -> ()
            | _ ->
              let n = i mod List.length !live in
              let addr, usable = List.nth !live n in
              Minesweeper.Instance.free ms addr;
              if not (Minesweeper.Instance.is_quarantined ms addr) then
                ok := false;
              live := List.filteri (fun j _ -> j <> n) !live;
              quarantined := (addr, usable, addr) :: !quarantined))
        script;
      Minesweeper.Instance.drain ms;
      !ok)

let suite =
  ( "model-based",
    [
      QCheck_alcotest.to_alcotest prop_jemalloc_against_model;
      QCheck_alcotest.to_alcotest prop_minesweeper_against_model;
    ] )
