let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    let a = Array.of_list s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let min_max_median xs =
  match sorted xs with
  | [] -> (0.0, 0.0, 0.0)
  | first :: _ as s ->
    let last = List.nth s (List.length s - 1) in
    (first, last, median xs)

let pearson xs ys =
  let n = List.length xs in
  if n = 0 || n <> List.length ys then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let num = ref 0.0 and dx2 = ref 0.0 and dy2 = ref 0.0 in
    List.iter2
      (fun x y ->
        let dx = x -. mx and dy = y -. my in
        num := !num +. (dx *. dy);
        dx2 := !dx2 +. (dx *. dx);
        dy2 := !dy2 +. (dy *. dy))
      xs ys;
    let denom = sqrt (!dx2 *. !dy2) in
    if denom = 0.0 then 0.0 else !num /. denom
  end

let jaccard compare a b =
  let a = List.sort_uniq compare a and b = List.sort_uniq compare b in
  let inter = List.filter (fun x -> List.exists (fun y -> compare x y = 0) b) a in
  let ni = List.length inter in
  let nu = List.length a + List.length b - ni in
  if nu = 0 then 1.0 else float_of_int ni /. float_of_int nu

let cdf xs =
  let s = sorted xs in
  let n = float_of_int (List.length s) in
  if n = 0.0 then []
  else begin
    (* one point per distinct value, at its highest rank *)
    let rec walk i acc = function
      | [] -> List.rev acc
      | [ x ] -> List.rev ((x, float_of_int (i + 1) /. n) :: acc)
      | x :: (y :: _ as rest) ->
        if x = y then walk (i + 1) acc rest
        else walk (i + 1) ((x, float_of_int (i + 1) /. n) :: acc) rest
    in
    walk 0 [] s
  end

let percentile xs p =
  (* out-of-range ranks would index outside the array; NaN clamps to 0 *)
  let p = if p >= 0.0 then min p 1.0 else 0.0 in
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let rank = p *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
    end
