type sink =
  | App
  | Background
  | Stall

type t = {
  mem : Vmem.t;
  cost : Sim.Cost.t;
  clock : Sim.Clock.t;
  mutable sink : sink;
}

let charge t n =
  if n > 0 then
    match t.sink with
    | App -> Sim.Clock.advance t.clock n
    | Background -> Sim.Clock.background t.clock n
    | Stall -> Sim.Clock.stall t.clock n

let create () =
  let cost = Sim.Cost.default in
  let t = { mem = Vmem.create (); cost; clock = Sim.Clock.create (); sink = App } in
  Vmem.set_demand_commit_hook t.mem (fun ~pages ->
      charge t (pages * cost.Sim.Cost.page_fault));
  t

let map_roots t =
  List.iter
    (fun (base, size) ->
      if not (Vmem.is_mapped t.mem base) then
        Vmem.map t.mem ~addr:base ~len:size)
    Layout.root_regions

let charge_bytes t per_byte n = charge t (Sim.Cost.bytes_cost per_byte n)

let with_sink t sink f =
  let saved = t.sink in
  t.sink <- sink;
  Fun.protect ~finally:(fun () -> t.sink <- saved) f

let now t = Sim.Clock.now t.clock
