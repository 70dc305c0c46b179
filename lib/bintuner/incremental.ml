(* The prefix-keyed snapshot store behind incremental compilation: a
   byte-bounded [Util.Lru] over the marshaled pipeline stages that
   [Toolchain.Pipeline] snapshots after every step.  Values are immutable
   marshaled strings, so handing one to a racing worker is safe, and a
   racing double-store of the same key keeps the first entry (snapshots
   are deterministic per key, so both writers hold identical bytes).

   The budget is bytes, not entries: one IR snapshot dwarfs a compressed-
   size integer, and what the tuner must bound is resident memory. *)

type t = (string, string) Util.Lru.t

let default_max_bytes = 64 * 1024 * 1024

(* ring + table bookkeeping charge per entry, beyond the payload *)
let entry_overhead = 64

let create ?(max_bytes = default_max_bytes) () =
  Util.Lru.create
    ~weight:(fun key value ->
      String.length value + String.length key + entry_overhead)
    ~telemetry:"incr" ~budget:(max 1 max_bytes) ()

let snapshot_store t =
  { Toolchain.Pipeline.find = Util.Lru.find t; store = Util.Lru.add t }

let hits = Util.Lru.hits
let misses = Util.Lru.misses
let evictions = Util.Lru.evictions
let bytes = Util.Lru.weight
