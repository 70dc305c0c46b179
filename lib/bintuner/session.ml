(* A tuning session: the shared substrate serving mode multiplexes jobs
   onto, and — created per call and dropped on exit — the substrate of
   one-shot [Tuner.tune].  A session owns one pool, memo, size cache per
   level and incremental store and hands them to every job, so the second
   job over a corpus starts with the first job's compiles, compressed
   sizes and pass-prefix snapshots already warm.

   Sharing is safe because every constituent cache is keyed on full
   content identity — the memo and artifact store on
   (program digest, profile, arch, flag vector), the size caches on
   stream MD5 (segregated per compression level, since sizes at
   different levels are different numbers), the incremental store on the
   pipeline's program-digest cache seed — and every cached value is a
   pure function of its key.  A cross-job hit is therefore bit-identical
   to a recompute, which is what lets the serve differential test pin
   warm-session results to cold one-shot ones.

   The final-selection cache follows the same rule: its keys are MD5
   digests of whole marshalled binaries (and of the workload inputs), and
   its values — O0 reference outputs, functional verdicts, BinHunt
   scores — are pure functions of those contents. *)

type final =
  | Reference of (Vir.Interp.output_item list * int) list
  | Verdict of bool
  | Diff_score of float

type check = (string, final) Util.Lru.t

type t = {
  pool : Parallel.Pool.t;
  owned_pool : bool;
  memo : Memo.t;
  incremental : Incremental.t;
  store : Store.t option;
  (* one size cache per compression level, created on first use; keyed
     by [Lz.level_name] *)
  sizecaches : (string, Compress.Sizecache.t) Hashtbl.t;
  check : check;
  lock : Mutex.t;
}

(* entries, not bytes: a reference is a few output lists, a verdict or
   score one word *)
let check_entries = 4096

let create ?(jobs = 1) ?pool ?memo_max_bytes ?store () =
  let owned_pool, pool =
    match pool with
    | Some p -> (false, p)
    | None -> (true, Parallel.Pool.create (max 1 jobs))
  in
  {
    pool;
    owned_pool;
    memo = Memo.create ?max_bytes:memo_max_bytes ();
    incremental = Incremental.create ();
    store;
    sizecaches = Hashtbl.create 4;
    check = Util.Lru.create ~telemetry:"check" ~budget:check_entries ();
    lock = Mutex.create ();
  }

let pool t = t.pool
let memo t = t.memo
let incremental t = t.incremental
let store t = t.store
let check t = t.check

(* Level-segregated size caches: sizes measured at different match-finder
   levels are different numbers, so each level gets its own table and its
   own backing-key namespace ("sz|<level>|<cache key>") in the store. *)
let sizecache t level =
  let name = Compress.Lz.level_name level in
  Mutex.lock t.lock;
  let cache =
    match Hashtbl.find_opt t.sizecaches name with
    | Some c -> c
    | None ->
      let backing =
        Option.map
          (fun st ->
            let tag k = "sz|" ^ name ^ "|" ^ k in
            {
              Compress.Sizecache.load = (fun k -> Store.find_size st (tag k));
              save = (fun k v -> Store.store_size st (tag k) v);
            })
          t.store
      in
      let c = Compress.Sizecache.create ~level ?backing () in
      Hashtbl.replace t.sizecaches name c;
      c
  in
  Mutex.unlock t.lock;
  cache

let check_counters c =
  [
    ("check.hit", Util.Lru.hits c);
    ("check.miss", Util.Lru.misses c);
    ("check.evict", Util.Lru.evictions c);
  ]

(* Every cache counter the session owns, under the telemetry names, in a
   fixed order; the size caches are summed over levels and the store's
   counters read 0 without a store. *)
let counters t =
  Mutex.lock t.lock;
  let caches = Hashtbl.fold (fun _ c acc -> c :: acc) t.sizecaches [] in
  Mutex.unlock t.lock;
  let sizes f = List.fold_left (fun acc c -> acc + f c) 0 caches in
  let store f = match t.store with Some s -> f s | None -> 0 in
  [
    ("memo.hit", Memo.hits t.memo);
    ("memo.miss", Memo.misses t.memo);
    ("memo.evict", Memo.evictions t.memo);
    ("sizecache.hit", sizes Compress.Sizecache.hits);
    ("sizecache.miss", sizes Compress.Sizecache.misses);
    ("incr.hit", Incremental.hits t.incremental);
    ("incr.miss", Incremental.misses t.incremental);
    ("incr.evict", Incremental.evictions t.incremental);
  ]
  @ check_counters t.check
  @ [
    ("store.hit", store Store.hits);
    ("store.miss", store Store.misses);
    ("store.evict", store Store.evictions);
    ("store.quarantine", store Store.quarantined);
  ]

let close t = if t.owned_pool then Parallel.Pool.shutdown t.pool
