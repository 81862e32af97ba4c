(* Reference text parser: [Workloads.Trace]'s line parser as it was when
   every line was split into a list of token strings
   ([String.split_on_char] plus an empty-token filter) and matched as a
   list, and [of_string] split the text into a list of lines. The
   in-place scanner that replaced it must give the same op or header,
   or the same [Parse_error] line and message, for every line;
   [test_trace.ml] checks it on random lines through [of_string], every
   stream and a file. *)

open Workloads.Trace
module Trace = Workloads.Trace

let parse_error line message = raise (Trace.Parse_error { line; message })

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
  let root_loc window w =
    let w = int_at "word" w in
    if window = "r" then Root w else Global w
  in
  let store kind loc v =
    let v = int_at "value" v in
    L_op
      (match kind with
      | "p" -> Store_ptr { loc; target = v }
      | "c" -> Clear_ptr { loc; target = v }
      | _ -> Store_data { loc; value = v })
  in
  let interior loc target word =
    let target = int_at "target" target in
    L_op (Store_interior { loc; target; word = int_at "word" word })
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
  | [ (("p" | "c" | "d") as kind); (("r" | "g") as window); w; v ] ->
    store kind (root_loc window w) v
  | [ (("p" | "c" | "d") as kind); "f"; id; w; v ] ->
    store kind (Field (int_at "id" id, int_at "word" w)) v
  | [ "i"; (("r" | "g") as window); w; target; word ] ->
    interior (root_loc window w) target word
  | [ "i"; "f"; id; w; target; word ] ->
    interior (Field (int_at "id" id, int_at "word" w)) target word
  | [ "z"; (("r" | "g") as window); w ] -> L_op (Zero (root_loc window w))
  | [ "z"; "f"; id; w ] -> L_op (Zero (Field (int_at "id" id, int_at "word" w)))
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

