(* The JSON this benchmark reads and writes: its own run records and
   summaries. A small reader is enough; the output side is [Printf]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* A measured value with all its digits; non-finite values (a ratio over
   an empty set) print as 0 so the document stays valid JSON. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        let e = peek () in
        incr pos;
        Buffer.add_char b
          (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          let k = string_ () in
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

let to_num = function Num x -> x | _ -> raise (Parse_error "expected a number")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_obj = function Obj fs -> fs | _ -> raise (Parse_error "expected an object")

let field k v =
  match member k v with
  | Some x -> x
  | None -> raise (Parse_error ("missing field " ^ k))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s
