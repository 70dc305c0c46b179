(* Tests for the persistent content-addressed artifact store behind
   serving mode: round-trips, the byte-bounded LRU, crash-safety
   (temp-file sweep, torn-entry quarantine), and reopen semantics
   (entries survive a restart; mtimes seed the recency order). *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "bintuner-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let entry_path dir key =
  let digest = Digest.to_hex (Digest.string key) in
  Filename.concat (Filename.concat dir (String.sub digest 0 2)) digest

let mkbin c =
  {
    Isa.Binary.arch = Isa.Insn.X86_64;
    profile = "gcc-10.2";
    opt_label = "test";
    text = String.make 64 c;
    data = "\001\000\000\000";
    data_words = [| 1 |];
    symbols = [| ("g", 0, 1) |];
    functions = [| ("main", 0, 64) |];
    entry = 0;
    ret_reg = 0;
  }

let test_store_roundtrip () =
  with_temp_dir (fun dir ->
      let st = Bintuner.Store.create dir in
      Alcotest.(check (option string)) "cold key" None
        (Bintuner.Store.find st "k1");
      Alcotest.(check int) "one miss" 1 (Bintuner.Store.misses st);
      Bintuner.Store.store st "k1" "payload one";
      Alcotest.(check (option string)) "served back" (Some "payload one")
        (Bintuner.Store.find st "k1");
      Alcotest.(check int) "one hit" 1 (Bintuner.Store.hits st);
      (* keep-first on a duplicate publish *)
      Bintuner.Store.store st "k1" "payload one";
      Alcotest.(check int) "duplicate not re-admitted" 1
        (Bintuner.Store.length st);
      (* binary keys never collide with raw keys: MD5 of distinct strings *)
      Bintuner.Store.store_size st "sz" 12345;
      Alcotest.(check (option int)) "size round-trip" (Some 12345)
        (Bintuner.Store.find_size st "sz");
      let bin = mkbin 'Q' in
      Bintuner.Store.store_binary st "bin" bin;
      Alcotest.(check bool) "binary round-trip" true
        (Bintuner.Store.find_binary st "bin" = Some bin);
      Alcotest.(check bool) "bytes accounted" true (Bintuner.Store.bytes st > 0))

let test_store_survives_reopen () =
  with_temp_dir (fun dir ->
      let st = Bintuner.Store.create dir in
      Bintuner.Store.store st "alpha" "AAAA";
      Bintuner.Store.store_binary st "bin" (mkbin 'R');
      (* a crashed writer's leftover must be swept at reopen *)
      let shard = Filename.dirname (entry_path dir "alpha") in
      let stale = Filename.concat shard "deadbeef.tmp.999.0" in
      let oc = open_out stale in
      output_string oc "half an entry";
      close_out oc;
      let st2 = Bintuner.Store.create dir in
      Alcotest.(check (option string)) "entry survives restart" (Some "AAAA")
        (Bintuner.Store.find st2 "alpha");
      Alcotest.(check bool) "binary survives restart" true
        (Bintuner.Store.find_binary st2 "bin" = Some (mkbin 'R'));
      Alcotest.(check bool) "stale temp file swept" false (Sys.file_exists stale))

let test_store_lru_byte_bound () =
  with_temp_dir (fun dir ->
      (* each entry: ~54-byte header + 100-byte payload; an 800-byte
         budget holds ~5 of the 20 *)
      let st = Bintuner.Store.create ~max_bytes:800 dir in
      for i = 1 to 20 do
        Bintuner.Store.store st
          (Printf.sprintf "key-%d" i)
          (String.make 100 (Char.chr (64 + i)))
      done;
      Alcotest.(check bool) "byte bound held" true
        (Bintuner.Store.bytes st <= Bintuner.Store.max_bytes st);
      Alcotest.(check bool) "evictions happened" true
        (Bintuner.Store.evictions st > 0);
      Alcotest.(check (option string)) "newest entry resident"
        (Some (String.make 100 (Char.chr 84)))
        (Bintuner.Store.find st "key-20");
      Alcotest.(check (option string)) "oldest entry evicted" None
        (Bintuner.Store.find st "key-1");
      Alcotest.(check bool) "evicted file deleted from disk" false
        (Sys.file_exists (entry_path dir "key-1"));
      (* an entry bigger than the whole budget is refused outright *)
      Bintuner.Store.store st "whale" (String.make 10_000 'w');
      Alcotest.(check (option string)) "oversized entry refused" None
        (Bintuner.Store.find st "whale"))

let test_store_torn_entry_quarantined () =
  with_temp_dir (fun dir ->
      let st = Bintuner.Store.create dir in
      Bintuner.Store.store st "victim" (String.make 200 'x');
      (* tear the entry: rewrite the file with only its first half *)
      let path = entry_path dir "victim" in
      let ic = open_in_bin path in
      let half = really_input_string ic 100 in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc half;
      close_out oc;
      Alcotest.(check (option string)) "torn entry is a miss" None
        (Bintuner.Store.find st "victim");
      Alcotest.(check int) "quarantined counter" 1
        (Bintuner.Store.quarantined st);
      Alcotest.(check bool) "bytes kept for autopsy" true
        (Sys.file_exists
           (Filename.concat (Filename.concat dir "quarantine")
              (Digest.to_hex (Digest.string "victim"))));
      Alcotest.(check bool) "entry gone from its shard" false
        (Sys.file_exists path);
      (* the recompute path: publishing again fully heals the key *)
      Bintuner.Store.store st "victim" (String.make 200 'x');
      Alcotest.(check (option string)) "recomputed entry served"
        (Some (String.make 200 'x'))
        (Bintuner.Store.find st "victim"))

let test_store_unmarshalable_binary_quarantined () =
  with_temp_dir (fun dir ->
      let st = Bintuner.Store.create dir in
      (* a valid store entry whose payload is not a marshaled binary —
         e.g. written by an incompatible build — degrades to a miss *)
      Bintuner.Store.store st "bogus" "not a marshaled Binary.t";
      Alcotest.(check bool) "find_binary misses, no exception" true
        (Bintuner.Store.find_binary st "bogus" = None);
      Alcotest.(check int) "and quarantines" 1 (Bintuner.Store.quarantined st))

let test_store_undecodable_size_quarantined () =
  with_temp_dir (fun dir ->
      let st = Bintuner.Store.create dir in
      (* digest-valid, but not an integer: without the quarantine it
         would stay resident, and keep-first would refuse the recomputed
         size forever *)
      Bintuner.Store.store st "size-key" "twelve";
      Alcotest.(check (option int)) "find_size misses" None
        (Bintuner.Store.find_size st "size-key");
      Alcotest.(check int) "and quarantines" 1 (Bintuner.Store.quarantined st);
      Bintuner.Store.store_size st "size-key" 12;
      Alcotest.(check (option int)) "the recomputed size is served" (Some 12)
        (Bintuner.Store.find_size st "size-key"))

let test_store_reopen_mtime_seeds_lru () =
  with_temp_dir (fun dir ->
      let st = Bintuner.Store.create dir in
      Bintuner.Store.store st "cold-key" (String.make 100 'c');
      Bintuner.Store.store st "warm-key" (String.make 100 'w');
      (* age the cold entry so a reopened store sees it as LRU *)
      let now = Unix.gettimeofday () in
      Unix.utimes (entry_path dir "cold-key") (now -. 3600.0) (now -. 3600.0);
      Unix.utimes (entry_path dir "warm-key") now now;
      (* a budget holding exactly one entry: reopen must evict the older *)
      let st2 = Bintuner.Store.create ~max_bytes:200 dir in
      Alcotest.(check int) "one entry retained" 1 (Bintuner.Store.length st2);
      Alcotest.(check (option string)) "newer entry survives"
        (Some (String.make 100 'w'))
        (Bintuner.Store.find st2 "warm-key");
      Alcotest.(check (option string)) "older entry evicted" None
        (Bintuner.Store.find st2 "cold-key"))

let tests =
  [
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store survives reopen" `Quick test_store_survives_reopen;
    Alcotest.test_case "store lru byte bound" `Quick test_store_lru_byte_bound;
    Alcotest.test_case "store torn entry quarantined" `Quick
      test_store_torn_entry_quarantined;
    Alcotest.test_case "store unmarshalable binary" `Quick
      test_store_unmarshalable_binary_quarantined;
    Alcotest.test_case "store undecodable size" `Quick
      test_store_undecodable_size_quarantined;
    Alcotest.test_case "store reopen mtime lru" `Quick
      test_store_reopen_mtime_seeds_lru;
  ]
