(* The compression property-test layer locking down the NCD kernel
   overhaul.

   The match finder now comes in two levels — [Greedy], the pre-overhaul
   finder frozen as a differential oracle, and [Chained d], the
   hash-chain finder the tuning stack runs on.  Both emit the same token
   format, so one [decompress] must invert either; this file drives that
   contract with adversarial generators (periodic runs that stress the
   lazy-match deferral, repeats straddling the 32 KiB window boundary,
   incompressible noise, and concatenated corpus code sections), pins the
   frozen oracle to golden output digests, and checks the NCD metric
   sanity properties the fitness function leans on. *)

let levels =
  [ Compress.Lz.Greedy; Compress.Lz.Chained 1; Compress.Lz.Chained 128 ]

(* The entry points run at the process default level; the properties
   reach each level by installing it for the length of one call. *)
let at_level level f =
  let saved = Compress.Lz.default_level () in
  Compress.Lz.set_default_level level;
  Fun.protect ~finally:(fun () -> Compress.Lz.set_default_level saved) f

let compress level s = at_level level (fun () -> Compress.Lz.compress s)

let compress_pair level x y =
  at_level level (fun () -> Compress.Lz.compress_pair x y)

let distance level x y = at_level level (fun () -> Compress.Ncd.distance x y)

let roundtrip_all s =
  List.for_all
    (fun level ->
      Compress.Lz.decompress (compress level s) = s)
    levels

(* --- adversarial generators --- *)

(* period-1/2/3 runs: long strings of period p exercise the overlapping
   self-referential matches (dist < len) and the lazy deferral window *)
let gen_periodic =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "<periodic %d bytes>" (String.length s))
    QCheck.Gen.(
      let* p = 1 -- 3 in
      let* unit = string_size ~gen:printable (return p) in
      let* len = 0 -- 40_000 in
      return (String.init len (fun i -> unit.[i mod p])))

(* a motif, then ≥ 30000 bytes of filler, then the motif again: the
   back-reference distance lands on either side of the 32 KiB window
   limit, the boundary where a candidate must be rejected *)
let gen_window_boundary =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "<window %d bytes>" (String.length s))
    QCheck.Gen.(
      let* motif = string_size ~gen:printable (8 -- 40) in
      let* filler_len = 30_000 -- 36_000 in
      let* filler_char = printable in
      return (motif ^ String.make filler_len filler_char ^ motif))

let gen_random_bytes =
  QCheck.string_gen_of_size QCheck.Gen.(0 -- 8192) QCheck.Gen.char

(* concatenated corpus code sections — the exact stream shape the NCD
   C(x·y) term compresses during tuning *)
let corpus_streams =
  lazy
    (Array.of_list
       (List.concat_map
          (fun b ->
            List.map
              (fun preset ->
                (Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc preset
                   (Corpus.program b))
                  .Isa.Binary.text)
              [ "O0"; "O2" ])
          (List.filteri (fun i _ -> i < 8) Corpus.all)))

let gen_corpus_pair =
  QCheck.make
    ~print:(fun (i, j) -> Printf.sprintf "corpus streams (%d, %d)" i j)
    QCheck.Gen.(pair (0 -- 1000) (0 -- 1000))

let corpus_pair (i, j) =
  let streams = Lazy.force corpus_streams in
  let n = Array.length streams in
  (streams.(i mod n), streams.(j mod n))

(* --- roundtrip at every level --- *)

let prop_roundtrip_periodic =
  QCheck.Test.make ~name:"periodic runs roundtrip at every level" ~count:60
    gen_periodic roundtrip_all

let prop_roundtrip_window =
  QCheck.Test.make ~name:"window-boundary repeats roundtrip at every level"
    ~count:40 gen_window_boundary roundtrip_all

let prop_roundtrip_random =
  QCheck.Test.make ~name:"random bytes roundtrip at every level" ~count:60
    gen_random_bytes roundtrip_all

let prop_roundtrip_corpus_concat =
  QCheck.Test.make ~name:"concatenated corpus binaries roundtrip at every level"
    ~count:25 gen_corpus_pair (fun ij ->
      let x, y = corpus_pair ij in
      roundtrip_all (x ^ y))

(* --- cross-finder differential --- *)

(* whatever stream either finder emits, the one decoder recovers the
   same input: the finders may disagree on tokens, never on meaning *)
let prop_cross_finder =
  QCheck.Test.make ~name:"greedy and chained streams decode identically"
    ~count:60
    QCheck.(pair gen_periodic gen_random_bytes)
    (fun (a, b) ->
      let s = a ^ b in
      let via level =
        Compress.Lz.decompress (compress level s)
      in
      via Compress.Lz.Greedy = s
      && via (Compress.Lz.Chained 128) = s
      && via (Compress.Lz.Chained 1) = s)

(* --- the two-segment pair entry point --- *)

let prop_pair_equals_concat =
  QCheck.Test.make ~name:"compress_pair is byte-identical to compress (x ^ y)"
    ~count:30 gen_corpus_pair (fun ij ->
      let x, y = corpus_pair ij in
      List.for_all
        (fun level ->
          compress_pair level x y
          = compress level (x ^ y))
        levels)

let test_pair_edge_cases () =
  List.iter
    (fun level ->
      List.iter
        (fun (x, y) ->
          Alcotest.(check string)
            (Printf.sprintf "pair %s (%d,%d)" (Compress.Lz.level_name level)
               (String.length x) (String.length y))
            (compress level (x ^ y))
            (compress_pair level x y))
        [ ("", ""); ("", "abc"); ("abc", ""); ("a", "a"); ("ab", "abab") ])
    levels

(* --- the frozen oracle --- *)

(* Golden output digests of the [Greedy] finder.  These pin the oracle's
   exact output bytes: the table1 determinism sentinel and the
   cross-finder differential both assume [Greedy] never drifts, so a
   failure here means the frozen path was touched — re-baselining these
   constants is only legitimate together with the sentinel baseline in
   tools/ci.sh. *)
let greedy_golden =
  [
    ("empty", "7dea362b3fac8e00956a4952a3d4f474", 8);
    ("period1", "231406488184984402a2f9197b1d84e9", 18);
    ("period2", "527da3c0292d3bd9221a12b0714add52", 23);
    ("period3", "7620505bd0adbf07d9ec515ac9d99ba1", 25);
    ("random4k", "e4f08e17fe08fd63ed64852ce2c2d431", 4256);
    ("window", "3ee5415eed163fa95f6ddc806c48f891", 495);
    ("mixed", "62f877e5071783cbdacf1a0da494fc5d", 58);
  ]

(* The same inputs through the default [Chained] level, the bytes every
   fitness evaluation reads.  Recorded before the greedy finder moved
   onto the shared Fenwick model and emitter; the chained path's code did
   not change, so neither may these. *)
let chained_golden =
  [
    ("empty", "7dea362b3fac8e00956a4952a3d4f474", 8);
    ("period1", "231406488184984402a2f9197b1d84e9", 18);
    ("period2", "527da3c0292d3bd9221a12b0714add52", 23);
    ("period3", "7620505bd0adbf07d9ec515ac9d99ba1", 25);
    ("random4k", "e4f08e17fe08fd63ed64852ce2c2d431", 4256);
    ("window", "bae11d7969316d9fee9d0e4923dca6e3", 489);
    ("mixed", "62f877e5071783cbdacf1a0da494fc5d", 58);
  ]

let golden_inputs () =
  let rng = Util.Rng.create 42 in
  let rand n = String.init n (fun _ -> Char.chr (Util.Rng.int rng 256)) in
  [
    ("empty", "");
    ("period1", String.make 5000 'x');
    ("period2", String.concat "" (List.init 2500 (fun _ -> "ab")));
    ("period3", String.concat "" (List.init 2000 (fun _ -> "abc")));
    ("random4k", rand 4096);
    ( "window",
      String.concat ""
        (List.init 3 (fun _ -> rand 100 ^ String.make 33000 'q' ^ "needle")) );
    ( "mixed",
      String.concat ""
        (List.init 60 (fun i -> Printf.sprintf "fn_%d(){push;pop;ret}" (i mod 7)))
    );
  ]

let check_golden level golden () =
  let tag = Compress.Lz.level_name level in
  List.iter2
    (fun (name, s) (name', digest, size) ->
      assert (name = name');
      let c = compress level s in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s output digest" name tag) digest
        (Digest.to_hex (Digest.string c));
      Alcotest.(check int)
        (Printf.sprintf "%s: %s output size" name tag) size (String.length c))
    (golden_inputs ()) golden

(* --- NCD metric sanity, per level --- *)

let ncd_levels = [ Compress.Lz.Greedy; Compress.Lz.Chained 128 ]

let prop_ncd_self =
  QCheck.Test.make ~name:"ncd(x, x) near zero at every level" ~count:40
    (QCheck.string_gen_of_size QCheck.Gen.(32 -- 4000) QCheck.Gen.char)
    (fun x ->
      List.for_all
        (fun level ->
          let d = distance level x x in
          d >= 0.0 && d <= 0.25)
        ncd_levels)

let prop_ncd_symmetry =
  QCheck.Test.make ~name:"ncd symmetric within epsilon at every level"
    ~count:40
    QCheck.(
      pair
        (string_gen_of_size Gen.(1 -- 2000) Gen.char)
        (string_gen_of_size Gen.(1 -- 2000) Gen.char))
    (fun (x, y) ->
      List.for_all
        (fun level ->
          abs_float
            (distance level x y
            -. distance level y x)
          <= 0.1)
        ncd_levels)

let prop_ncd_range =
  QCheck.Test.make ~name:"ncd in [0, 1 + eps] at every level" ~count:40
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 2000) Gen.char)
        (string_gen_of_size Gen.(0 -- 2000) Gen.char))
    (fun (x, y) ->
      List.for_all
        (fun level ->
          let d = distance level x y in
          d >= 0.0 && d <= 1.15)
        ncd_levels)

(* --- the level knob itself --- *)

let test_level_names () =
  List.iter
    (fun (s, level) ->
      Alcotest.(check bool) (s ^ " parses") true
        (Compress.Lz.level_of_string s = level))
    [
      ("greedy", Compress.Lz.Greedy);
      ("chained", Compress.Lz.Chained Compress.Lz.default_chain_depth);
      ("chained-64", Compress.Lz.Chained 64);
      ("chained:7", Compress.Lz.Chained 7);
    ];
  List.iter
    (fun level ->
      Alcotest.(check bool)
        (Compress.Lz.level_name level ^ " roundtrips") true
        (Compress.Lz.level_of_string (Compress.Lz.level_name level) = level))
    levels;
  List.iter
    (fun bad ->
      match Compress.Lz.level_of_string bad with
      | (_ : Compress.Lz.level) ->
        Alcotest.fail (bad ^ ": expected Invalid_argument")
      | exception Invalid_argument _ -> ())
    [ "fast"; "chained-0"; "chained--3"; "chained-"; "" ]

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip_periodic;
    QCheck_alcotest.to_alcotest prop_roundtrip_window;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_roundtrip_corpus_concat;
    QCheck_alcotest.to_alcotest prop_cross_finder;
    QCheck_alcotest.to_alcotest prop_pair_equals_concat;
    Alcotest.test_case "pair edge cases" `Quick test_pair_edge_cases;
    Alcotest.test_case "greedy golden digests" `Quick
      (check_golden Compress.Lz.Greedy greedy_golden);
    QCheck_alcotest.to_alcotest prop_ncd_self;
    QCheck_alcotest.to_alcotest prop_ncd_symmetry;
    QCheck_alcotest.to_alcotest prop_ncd_range;
    Alcotest.test_case "level names" `Quick test_level_names;
    Alcotest.test_case "chained golden digests" `Quick
      (check_golden (Compress.Lz.Chained Compress.Lz.default_chain_depth)
         chained_golden);
  ]
