let combine cx cy cxy =
  let mn = min cx cy and mx = max cx cy in
  if mx = 0 then 0.0 else float_of_int (cxy - mn) /. float_of_int mx

let distance x y =
  combine (Lz.compressed_size x) (Lz.compressed_size y)
    (Lz.compressed_size_pair x y)

let distance_via cache x y =
  combine (Sizecache.size cache x) (Sizecache.size cache y)
    (Sizecache.size_pair cache x y)

let against ?pool ?span ~cache ~baseline xs =
  (* warm the baseline's solo size before fanning out, so the workers'
     shared term is a guaranteed hit instead of a race of misses *)
  ignore (Sizecache.size cache baseline : int);
  let score x = distance_via cache x baseline in
  let one x =
    match span with
    | None -> score x
    | Some name -> Telemetry.with_span name (fun () -> score x)
  in
  match pool with
  | None -> Array.map one xs
  | Some pool -> Parallel.Pool.map pool one xs

let matrix ?pool ~cache xs =
  let n = Array.length xs in
  (* solo sizes first (in parallel), so every pair worker hits on both
     solo terms and only compresses its own concatenation *)
  let solo x = ignore (Sizecache.size cache x : int) in
  (match pool with
  | None -> Array.iter solo xs
  | Some pool -> ignore (Parallel.Pool.map pool (fun x -> solo x) xs));
  let pairs =
    Array.of_list
      (List.concat
         (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k)))))
  in
  let d (i, j) = distance_via cache xs.(i) xs.(j) in
  let ds =
    match pool with
    | None -> Array.map d pairs
    | Some pool -> Parallel.Pool.map pool d pairs
  in
  let m = Array.make_matrix n n 0.0 in
  Array.iteri
    (fun k (i, j) ->
      m.(i).(j) <- ds.(k);
      m.(j).(i) <- ds.(k))
    pairs;
  m
