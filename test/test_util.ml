(* Unit + property tests for the util library. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let xs = List.init 8 (fun _ -> Util.Rng.int64 a) in
  let ys = List.init 8 (fun _ -> Util.Rng.int64 b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let b = Util.Rng.split a in
  let xs = List.init 8 (fun _ -> Util.Rng.int64 a) in
  let ys = List.init 8 (fun _ -> Util.Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Util.Rng.create 9 in
  ignore (Util.Rng.int64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Util.Rng.int64 a)
    (Util.Rng.int64 b)

let test_mean_median () =
  check_float "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median even" 2.5 (Util.Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 3.0 (Util.Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "mean empty" 0.0 (Util.Stats.mean [])

let test_min_max_median () =
  let mn, mx, md = Util.Stats.min_max_median [ 3.0; 1.0; 7.0; 5.0 ] in
  check_float "min" 1.0 mn;
  check_float "max" 7.0 mx;
  check_float "median" 4.0 md

let test_pearson () =
  check_float "perfect" 1.0
    (Util.Stats.pearson [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 30.0 ]);
  check_float "inverse" (-1.0)
    (Util.Stats.pearson [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  check_float "constant" 0.0 (Util.Stats.pearson [ 1.0; 1.0 ] [ 2.0; 3.0 ])

let test_jaccard () =
  check_float "overlap" 0.5 (Util.Stats.jaccard compare [ 1; 2; 3 ] [ 2; 3; 4 ]);
  check_float "empty" 1.0 (Util.Stats.jaccard compare ([] : int list) []);
  check_float "disjoint" 0.0 (Util.Stats.jaccard compare [ 1 ] [ 2 ]);
  check_float "duplicates collapse" 1.0
    (Util.Stats.jaccard compare [ 1; 1; 2 ] [ 2; 2; 1 ])

let test_cdf () =
  let c = Util.Stats.cdf [ 1.0; 1.0; 2.0; 4.0 ] in
  Alcotest.(check int) "distinct points" 3 (List.length c);
  let _, frac1 = List.hd c in
  check_float "first point fraction" 0.5 frac1

let test_percentile () =
  check_float "p0" 1.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0);
  check_float "p100" 3.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 1.0);
  check_float "p50" 2.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.5)

let test_percentile_clamped () =
  (* out-of-range ranks used to compute an index outside the sorted
     array: p > 1 read past the end, p < 0 crashed on a negative index *)
  check_float "p>1 clamps to max" 3.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 1.5);
  check_float "p<0 clamps to min" 1.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] (-0.3));
  check_float "nan clamps to min" 1.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] Float.nan);
  check_float "singleton, any p" 7.0 (Util.Stats.percentile [ 7.0 ] 99.0)

let test_render_table () =
  let t =
    Util.Render.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains rule" true (String.contains t '-');
  Alcotest.(check bool) "contains cell" true
    (String.length t > 0 && String.contains t '3')

let prop_pearson_bounded =
  QCheck.Test.make ~name:"pearson in [-1,1]" ~count:200
    QCheck.(pair (list_of_size Gen.(2 -- 20) (float_bound_exclusive 100.0))
              (list_of_size Gen.(2 -- 20) (float_bound_exclusive 100.0)))
    (fun (xs, ys) ->
      let n = min (List.length xs) (List.length ys) in
      let take n l = List.filteri (fun i _ -> i < n) l in
      let r = Util.Stats.pearson (take n xs) (take n ys) in
      r >= -1.0000001 && r <= 1.0000001)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_exclusive 1000.0))
    (fun xs ->
      Util.Stats.percentile xs 0.2 <= Util.Stats.percentile xs 0.8)

(* Util.Lru against a naive reference: an assoc list, most recently used
   first, evicted from the tail.  Values carry their own weight, so a
   duplicate insert with a different value shows whether the first one
   was kept. *)
type lru_op =
  | Find of int
  | Find_valid of int * bool
  | Add of int * int * int  (* key, value tag, weight *)
  | Remove of int

let lru_op_gen =
  let open QCheck.Gen in
  let key = 0 -- 7 in
  frequency
    [
      (4, map (fun k -> Find k) key);
      (1, map2 (fun k ok -> Find_valid (k, ok)) key bool);
      (4, map3 (fun k tag w -> Add (k, tag, w)) key (0 -- 99) (1 -- 12));
      (1, map (fun k -> Remove k) key);
    ]

let show_lru_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Find_valid (k, ok) -> Printf.sprintf "find_valid %d %b" k ok
  | Add (k, tag, w) -> Printf.sprintf "add %d (%d, w%d)" k tag w
  | Remove k -> Printf.sprintf "remove %d" k

let prop_lru_matches_model =
  QCheck.Test.make ~name:"lru matches reference model" ~count:300
    QCheck.(
      pair (int_range 1 10)
        (make ~print:(Print.list show_lru_op)
           Gen.(list_size (0 -- 60) lru_op_gen)))
    (fun (budget, ops) ->
      let evicted = ref [] in
      let lru =
        Util.Lru.create
          ~weight:(fun _ (_, w) -> w)
          ~on_evict:(fun k v -> evicted := (k, v) :: !evicted)
          ~budget ()
      in
      (* the model: (key, value) most recent first, plus its counters *)
      let model = ref [] and hits = ref 0 and misses = ref 0 in
      let model_evicted = ref [] and lookups = ref 0 in
      let total () = List.fold_left (fun acc (_, (_, w)) -> acc + w) 0 !model in
      let touch k v = model := (k, v) :: List.remove_assoc k !model in
      let step op =
        let agree =
          match op with
          | Find k ->
            incr lookups;
            let expect = List.assoc_opt k !model in
            (match expect with
            | Some v ->
              incr hits;
              touch k v
            | None -> incr misses);
            Util.Lru.find lru k = expect
          | Find_valid (k, ok) ->
            incr lookups;
            let expect =
              match List.assoc_opt k !model with
              | Some v when ok ->
                incr hits;
                touch k v;
                Some v
              | Some _ ->
                incr misses;
                model := List.remove_assoc k !model;
                None
              | None ->
                incr misses;
                None
            in
            Util.Lru.find_valid lru k (fun v -> if ok then Some v else None)
            = expect
          | Add (k, tag, w) ->
            if w <= budget && not (List.mem_assoc k !model) then begin
              model := (k, (tag, w)) :: !model;
              while total () > budget do
                let rev = List.rev !model in
                model_evicted := List.hd rev :: !model_evicted;
                model := List.rev (List.tl rev)
              done
            end;
            Util.Lru.add lru k (tag, w);
            true
          | Remove k ->
            model := List.remove_assoc k !model;
            Util.Lru.remove lru k;
            true
        in
        agree
        && Util.Lru.keys lru = List.map fst !model
        && Util.Lru.weight lru = total ()
        && Util.Lru.weight lru <= budget
        && Util.Lru.length lru = List.length !model
        && Util.Lru.hits lru = !hits
        && Util.Lru.misses lru = !misses
        && Util.Lru.hits lru + Util.Lru.misses lru = !lookups
        && !evicted = !model_evicted
        && Util.Lru.evictions lru = List.length !model_evicted
      in
      List.for_all step ops)

(* Two domains hammering one cache: counters are conserved, the budget
   holds, the resident weight is exactly that of the resident keys, and
   every eviction reaches [on_evict] once. *)
let test_lru_two_domains () =
  let budget = 40 in
  let weight k = (k mod 5) + 1 in
  let evicted = Atomic.make 0 in
  let lru =
    Util.Lru.create
      ~weight:(fun k _ -> weight k)
      ~on_evict:(fun _ _ -> Atomic.incr evicted)
      ~telemetry:"test.lru" ~budget ()
  in
  let work seed () =
    let rng = Util.Rng.create seed in
    let lookups = ref 0 in
    for _ = 1 to 20_000 do
      let k = Util.Rng.int rng 64 in
      match Util.Rng.int rng 4 with
      | 0 -> Util.Lru.add lru k k
      | 1 ->
        incr lookups;
        ignore
          (Util.Lru.find_valid lru k (fun v ->
               if v mod 7 = 0 then None else Some v))
      | _ ->
        incr lookups;
        assert (Util.Lru.find_or_add lru k (fun () -> k) = k)
    done;
    !lookups
  in
  let other = Domain.spawn (work 2) in
  let mine = work 1 () in
  let lookups = mine + Domain.join other in
  let keys = Util.Lru.keys lru in
  Alcotest.(check int) "hits + misses = lookups" lookups
    (Util.Lru.hits lru + Util.Lru.misses lru);
  Alcotest.(check bool) "within budget" true (Util.Lru.weight lru <= budget);
  Alcotest.(check int) "resident weight = weight of resident keys"
    (List.fold_left (fun acc k -> acc + weight k) 0 keys)
    (Util.Lru.weight lru);
  Alcotest.(check int) "length = resident keys" (List.length keys)
    (Util.Lru.length lru);
  Alcotest.(check int) "on_evict once per eviction" (Util.Lru.evictions lru)
    (Atomic.get evicted);
  Alcotest.(check bool) "evicted under pressure" true (Util.Lru.evictions lru > 0)

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "mean/median" `Quick test_mean_median;
    Alcotest.test_case "min-max-median" `Quick test_min_max_median;
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "jaccard" `Quick test_jaccard;
    Alcotest.test_case "cdf" `Quick test_cdf;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile clamped" `Quick test_percentile_clamped;
    Alcotest.test_case "render table" `Quick test_render_table;
    QCheck_alcotest.to_alcotest prop_pearson_bounded;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_lru_matches_model;
    Alcotest.test_case "lru two domains" `Quick test_lru_two_domains;
  ]
