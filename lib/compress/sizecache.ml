(* Content-addressed LRU cache over compressed sizes: a [Util.Lru] with
   one unit of weight per entry, so the budget is an entry count.
   Compression runs outside the lock, so workers caching different
   streams never serialize on each other. *)

(* An optional second, durable tier (e.g. [Bintuner.Store] in serving
   mode): consulted after an in-memory miss, written through on every
   exact size learned.  Only ever holds exact sizes, so hitting it can no
   more change a result than hitting the table can. *)
type backing = {
  load : string -> int option;
  save : string -> int -> unit;
}

type t = {
  level : Lz.level;
  backing : backing option;
  table : (string, int) Util.Lru.t;
}

let create ?(capacity = 4096) ?level ?backing () =
  let level = match level with Some l -> l | None -> Lz.default_level () in
  {
    level;
    backing;
    table =
      Util.Lru.create ~telemetry:"sizecache" ~budget:(max 1 capacity) ();
  }

let level t = t.level

(* Digests are raw 16-byte MD5 strings, so a one-byte tag keeps solo and
   pair keys from ever colliding. *)
let solo_key x = "S" ^ Digest.string x
let pair_key x y = "P" ^ Digest.string x ^ Digest.string y

(* On an in-memory miss the backing tier is probed (IO runs unlocked)
   before compressing; either way the exact size ends up in the table,
   so the durable tier is only touched once per resident key. *)
let find_or_compute t key compute =
  Util.Lru.find_or_add t.table key (fun () ->
      match t.backing with
      | None -> compute ()
      | Some b -> (
        match b.load key with
        | Some v ->
          Telemetry.add_count "sizecache.backing_hit";
          v
        | None ->
          let v = compute () in
          b.save key v;
          v))

let size t x =
  find_or_compute t (solo_key x) (fun () ->
      Lz.compressed_size ~level:t.level x)

let size_pair t x y =
  find_or_compute t (pair_key x y) (fun () ->
      Lz.compressed_size_pair ~level:t.level x y)

let hits t = Util.Lru.hits t.table
let misses t = Util.Lru.misses t.table
let length t = Util.Lru.length t.table
