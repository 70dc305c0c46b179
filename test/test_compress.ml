(* Tests for the LZ compressor and NCD. *)

let roundtrip s =
  Compress.Lz.decompress (Compress.Lz.compress s) = s

let test_roundtrip_basics () =
  List.iter
    (fun s -> Alcotest.(check bool) "roundtrip" true (roundtrip s))
    [
      "";
      "a";
      "ab";
      "aaaaaaaaaaaaaaaaaaaaaaaa";
      "abcabcabcabcabcabcabc";
      String.init 256 Char.chr;
      String.concat "" (List.init 40 (fun i -> Printf.sprintf "block%d" (i mod 5)));
    ]

let test_compresses_repetition () =
  let rep = String.concat "" (List.init 100 (fun _ -> "hello world ")) in
  let c = Compress.Lz.compressed_size rep in
  Alcotest.(check bool) "repetition shrinks"
    true
    (c < String.length rep / 4)

let test_random_incompressible () =
  let rng = Util.Rng.create 5 in
  let s = String.init 2000 (fun _ -> Char.chr (Util.Rng.int rng 256)) in
  let c = Compress.Lz.compressed_size s in
  Alcotest.(check bool) "random stays large" true (c > 1800)

let prop_roundtrip =
  QCheck.Test.make ~name:"lz roundtrip" ~count:200
    QCheck.(string_gen_of_size QCheck.Gen.(0 -- 2000) QCheck.Gen.char)
    roundtrip

let prop_roundtrip_structured =
  (* strings with heavy repetition exercise the match finder paths *)
  QCheck.Test.make ~name:"lz roundtrip structured" ~count:100
    QCheck.(list_of_size Gen.(0 -- 50) (pair (string_gen_of_size Gen.(1 -- 8) Gen.printable) small_nat))
    (fun chunks ->
      let s =
        String.concat ""
          (List.concat_map
             (fun (chunk, reps) -> List.init (reps mod 20) (fun _ -> chunk))
             chunks)
      in
      roundtrip s)

let expect_invalid label f =
  match f () with
  | (_ : string) -> Alcotest.fail (label ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_decompress_truncated () =
  (* the range decoder used to synthesize phantom zero bytes once the
     real input ran out, so a chopped stream quietly decoded to junk
     instead of failing *)
  let packed = Compress.Lz.compress "the quick brown fox jumps over the lazy dog" in
  expect_invalid "empty" (fun () -> Compress.Lz.decompress "");
  expect_invalid "header only" (fun () ->
      Compress.Lz.decompress (String.sub packed 0 4));
  expect_invalid "chopped payload" (fun () ->
      Compress.Lz.decompress (String.sub packed 0 (4 + ((String.length packed - 4) / 2))))

let test_decompress_oversized_header () =
  (* an output length larger than the coded payload supports must fail
     fast, not invent bytes that were never encoded *)
  let s = String.concat "" (List.init 30 (fun i -> Printf.sprintf "word%d " i)) in
  let packed = Compress.Lz.compress s in
  let lied =
    let n = String.length s + 4096 in
    String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xFF))
    ^ String.sub packed 4 (String.length packed - 4)
  in
  expect_invalid "oversized header" (fun () -> Compress.Lz.decompress lied)

let test_ncd_identity () =
  let s = String.concat "" (List.init 50 (fun i -> string_of_int (i * i))) in
  Alcotest.(check bool) "ncd(x,x) small" true (Compress.Ncd.distance s s < 0.2)

let test_ncd_unrelated () =
  let rng = Util.Rng.create 9 in
  let mk () = String.init 1500 (fun _ -> Char.chr (Util.Rng.int rng 256)) in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "ncd unrelated high" true (Compress.Ncd.distance a b > 0.8)

let test_ncd_partial_overlap_ordering () =
  let rng = Util.Rng.create 13 in
  let mk n = String.init n (fun _ -> Char.chr (Util.Rng.int rng 64 + 32)) in
  let base = mk 1200 in
  let near = String.sub base 0 1000 ^ mk 200 in
  let far = mk 1200 in
  let d_near = Compress.Ncd.distance base near in
  let d_far = Compress.Ncd.distance base far in
  Alcotest.(check bool) "more overlap, smaller distance" true (d_near < d_far)

(* --- the pair-size lower bound --- *)

let bound_levels = [ Compress.Lz.Greedy; Compress.Lz.Chained 128; Compress.Lz.Chained 4 ]

let pair_gen =
  (* random bytes plus a structured tail so the pair stream exercises both
     the literal and the cross-segment match paths of every finder *)
  QCheck.(
    pair
      (string_gen_of_size Gen.(0 -- 600) Gen.char)
      (pair (string_gen_of_size Gen.(0 -- 600) Gen.char) small_nat))

let structure (y, reps) = y ^ String.concat "" (List.init (reps mod 8) (fun _ -> y))

(* C(x·y) >= max(C(x), C(y)): concatenating can never compress below
   either part alone — the inequality that keeps NCD non-negative — so
   it is pinned at every level, not just the default. *)
let prop_pair_size_lower_bound =
  QCheck.Test.make ~name:"pair size >= max of solo sizes, every level" ~count:120
    pair_gen
    (fun (x, tail) ->
      let y = structure tail in
      List.for_all
        (fun level ->
          let cx = Compress.Lz.compressed_size ~level x in
          let cy = Compress.Lz.compressed_size ~level y in
          Compress.Lz.compressed_size_pair ~level x y >= max cx cy)
        bound_levels)

let prop_ncd_range =
  QCheck.Test.make ~name:"ncd in [0, ~1.1]" ~count:60
    QCheck.(pair (string_gen_of_size Gen.(1 -- 500) Gen.char)
              (string_gen_of_size Gen.(1 -- 500) Gen.char))
    (fun (a, b) ->
      let d = Compress.Ncd.distance a b in
      d >= 0.0 && d <= 1.15)

let tests =
  [
    Alcotest.test_case "roundtrip basics" `Quick test_roundtrip_basics;
    Alcotest.test_case "compresses repetition" `Quick test_compresses_repetition;
    Alcotest.test_case "random incompressible" `Quick test_random_incompressible;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_structured;
    Alcotest.test_case "decompress truncated" `Quick test_decompress_truncated;
    Alcotest.test_case "decompress oversized header" `Quick
      test_decompress_oversized_header;
    Alcotest.test_case "ncd identity" `Quick test_ncd_identity;
    Alcotest.test_case "ncd unrelated" `Quick test_ncd_unrelated;
    Alcotest.test_case "ncd ordering" `Quick test_ncd_partial_overlap_ordering;
    QCheck_alcotest.to_alcotest prop_ncd_range;
    QCheck_alcotest.to_alcotest prop_pair_size_lower_bound;
  ]
