(* Order statistics shared by the runner, [summarize] and [compare]. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so spreads computed here and by a
   Python reader of the same values agree exactly. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))
