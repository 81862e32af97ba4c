type slot =
  | Root_slot of int
  | Field_slot of int * int

let slot_compare (a : slot) (b : slot) = compare a b

let slot_to_string = function
  | Root_slot w -> Printf.sprintf "root[%d]" w
  | Field_slot (id, w) -> Printf.sprintf "obj%d[%d]" id w

let normalize_root w = Root_slot (Workloads.Trace.root_word w)

let normalize_field ~id ~size w =
  match Workloads.Trace.field_word ~size w with
  | Some w -> Some (Field_slot (id, w))
  | None -> None

type target =
  | Ptr of int
  | Alias of int
  | Wild

let target_id = function
  | Ptr id | Alias id -> Some id
  | Wild -> None

let target_to_string = function
  | Ptr id -> Printf.sprintf "&%d" id
  | Alias id -> Printf.sprintf "alias(%d)" id
  | Wild -> "wild"

let classify_data value =
  match Workloads.Trace.aliased_id value with
  | Some id -> `Alias id
  | None -> if value >= Layout.heap_base then `Wild else `Harmless
