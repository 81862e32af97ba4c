let geomean = function
  | [] -> 1.0
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (logsum /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let worst = function
  | [] -> 1.0
  | xs -> List.fold_left Float.max neg_infinity xs

let percent_overhead r = (r -. 1.0) *. 100.0
