type severity =
  | Error
  | Warning

type t = {
  rule : string;
  severity : severity;
  op_index : int;
  message : string;
}

let make ~rule ~severity ?(op_index = -1) message =
  { rule; severity; op_index; message }

let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string d =
  if d.op_index < 0 then
    Printf.sprintf "%s [%s]: %s" (severity_to_string d.severity) d.rule d.message
  else
    Printf.sprintf "op %d: %s [%s]: %s" d.op_index
      (severity_to_string d.severity)
      d.rule d.message

let errors ds = List.filter (fun d -> d.severity = Error) ds

let has_rule rule ds = List.exists (fun d -> d.rule = rule) ds

let sort ds =
  List.stable_sort
    (fun a b ->
      match compare a.rule b.rule with
      | 0 -> (
        match compare a.op_index b.op_index with
        | 0 -> compare a.message b.message
        | c -> c)
      | c -> c)
    ds
