(* A tuning session: the shared substrate serving mode multiplexes jobs
   onto, and — created per call and dropped on exit — the substrate of
   one-shot [Tuner.tune].  A session owns one pool, memo, size cache and
   incremental store and hands them to every job, so the second job over
   a corpus starts with the first job's compiles, compressed sizes and
   pass-prefix snapshots already warm.

   Sharing is safe because every constituent cache is keyed on full
   content identity — the memo and artifact store on
   (program digest, profile, arch, flag vector), the size cache on stream
   MD5, the incremental store on the pipeline's program-digest cache
   seed — and every cached value is a pure function of its key.  A
   cross-job hit is therefore bit-identical to a recompute, which is what
   lets the serve differential test pin warm-session results to cold
   one-shot ones.

   Every key format of these caches lives in this file: the store's
   "bin|" and "sz|" namespaces and the final-selection cache's "ref|",
   "ok|" and "bh|" ones. *)

(* A final-selection result, cached under a key whose tag names its
   kind. *)
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
  sizecache : Compress.Sizecache.t;
  check : check;
}

(* entries, not bytes: a reference is a few output lists, a verdict or
   score one word *)
let check_entries = 4096

let create_check () = Util.Lru.create ~telemetry:"check" ~budget:check_entries ()

let create ?(jobs = 1) ?pool ?memo_max_bytes ?store () =
  let owned_pool, pool =
    match pool with
    | Some p -> (false, p)
    | None -> (true, Parallel.Pool.create (max 1 jobs))
  in
  let level = Compress.Lz.default_level () in
  (* the level is in the store key: a store outlives the process, and
     sizes measured at different levels are different numbers *)
  let backing =
    Option.map
      (fun st ->
        let tag k = "sz|" ^ Compress.Lz.level_name level ^ "|" ^ k in
        {
          Compress.Sizecache.load = (fun k -> Store.find_size st (tag k));
          save = (fun k v -> Store.store_size st (tag k) v);
        })
      store
  in
  {
    pool;
    owned_pool;
    memo = Memo.create ?max_bytes:memo_max_bytes ();
    incremental = Incremental.create ();
    store;
    sizecache = Compress.Sizecache.create ~level ?backing ();
    check = create_check ();
  }

let pool t = t.pool
let memo t = t.memo
let incremental t = t.incremental
let store t = t.store
let check t = t.check

let sizecache t level =
  let own = Compress.Sizecache.level t.sizecache in
  if level <> own then
    invalid_arg
      (Printf.sprintf "Session.sizecache: session measures at %s, not %s"
         (Compress.Lz.level_name own)
         (Compress.Lz.level_name level));
  t.sizecache

let compile t ~program ~profile ~arch build vector =
  let key = Memo.key ~program ~profile ~arch vector in
  Memo.find_or_compile t.memo ~key (fun () ->
      match t.store with
      | None -> build vector
      | Some st -> (
        (* the durable tier behind the memo: consulted only on a memo
           miss, written through on every fresh compile *)
        let skey = "bin|" ^ key in
        match Store.find_binary st skey with
        | Some bin -> bin
        | None ->
          let bin = build vector in
          Store.store_binary st skey bin;
          bin))

(* Final-selection keys: MD5 over the whole marshalled value.  Without
   sharing, equal contents marshal to equal bytes.  Each domain marshals
   into one reused buffer, grown on demand: a fresh marshalled copy of
   every candidate binary raised tune-ga peak RSS by about 5 %. *)
let marshal_buffer = Domain.DLS.new_key (fun () -> ref (Bytes.create 65536))

let rec content_digest v =
  let buf = Domain.DLS.get marshal_buffer in
  match Marshal.to_buffer !buf 0 (Bytes.length !buf) v [ Marshal.No_sharing ] with
  | n -> Digest.subbytes !buf 0 n
  | exception Failure _ ->
    buf := Bytes.create (2 * Bytes.length !buf);
    content_digest v

(* The key's tag fixes the kind of value stored under it. *)
let unexpected () = invalid_arg "Session: final-selection cache kind mismatch"

(* The baseline's outputs are computed once per (baseline, inputs) pair
   and each verdict once per (baseline, candidate, inputs) triple; the
   inputs digest is in every key, since two programs can compile to equal
   O0 bytes yet ship different workloads.  A trapping or non-terminating
   run raises out of [Util.Lru.find_or_add], which then caches
   nothing. *)
let functional_check check (bench : Corpus.benchmark) ~baseline =
  let base = content_digest baseline ^ content_digest bench.workloads in
  let reference () =
    match
      Util.Lru.find_or_add check ("ref|" ^ base) (fun () ->
          Reference
            (List.map
               (fun input ->
                 let r = Vm.Machine.run baseline ~input in
                 (r.Vm.Machine.output, r.return_value))
               bench.workloads))
    with
    | Reference outs -> outs
    | _ -> unexpected ()
  in
  fun bin ->
    match
      Util.Lru.find_or_add check ("ok|" ^ base ^ content_digest bin) (fun () ->
          Verdict
            (List.for_all2
               (fun input (output, return_value) ->
                 let r = Vm.Machine.run bin ~input in
                 r.Vm.Machine.output = output && r.return_value = return_value)
               bench.workloads (reference ())))
    with
    | Verdict ok -> ok
    | _ -> unexpected ()

let diff_score check ~baseline =
  let base = content_digest baseline in
  fun bin ->
    match
      Util.Lru.find_or_add check ("bh|" ^ content_digest bin ^ base) (fun () ->
          Diff_score
            (Telemetry.with_span "tuner.binhunt" (fun () ->
                 Diffing.Binhunt.diff_score bin baseline)))
    with
    | Diff_score score -> score
    | _ -> unexpected ()

let check_counters c =
  [
    ("check.hit", Util.Lru.hits c);
    ("check.miss", Util.Lru.misses c);
    ("check.evict", Util.Lru.evictions c);
  ]

(* Every cache counter the session owns, under the telemetry names, in a
   fixed order; the store's counters read 0 without a store. *)
let counters t =
  let store f = match t.store with Some s -> f s | None -> 0 in
  [
    ("memo.hit", Memo.hits t.memo);
    ("memo.miss", Memo.misses t.memo);
    ("memo.evict", Memo.evictions t.memo);
    ("sizecache.hit", Compress.Sizecache.hits t.sizecache);
    ("sizecache.miss", Compress.Sizecache.misses t.sizecache);
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
