(* Compile memoization as a byte-bounded LRU.

   The original memo was an unbounded Hashtbl — fine for a one-shot CLI
   run, a leak under daemon traffic, where one long-lived memo sees every
   job's compiled binaries and would retain them all forever.  It is now
   a [Util.Lru] with a byte budget charged per entry from the binary's
   resident payload.

   Eviction is lossless: compilation is pure, so a re-request of an
   evicted key recompiles to identical bytes — only the hit/miss/eviction
   counters (and wall-clock) can tell the difference. *)

type t = (string, Isa.Binary.t) Util.Lru.t

let default_max_bytes = 128 * 1024 * 1024

(* what an entry keeps resident: the binary's byte payloads, its word
   view, the key, plus a flat ring/table bookkeeping charge *)
let entry_overhead = 128

let binary_cost key (b : Isa.Binary.t) =
  String.length b.Isa.Binary.text
  + String.length b.data
  + (8 * Array.length b.data_words)
  + String.length key + entry_overhead

(* No binary fits a budget of 0 (clamped to one byte): every lookup then
   misses (and is counted) and nothing is admitted. *)
let create ?(max_bytes = default_max_bytes) () =
  Util.Lru.create ~weight:binary_cost ~telemetry:"memo" ~budget:(max 1 max_bytes)
    ()

let hits = Util.Lru.hits
let misses = Util.Lru.misses
let evictions = Util.Lru.evictions
let bytes = Util.Lru.weight
let length = Util.Lru.length

let key ~program ~profile ~arch vector =
  let bits =
    String.init (Array.length vector) (fun i -> if vector.(i) then '1' else '0')
  in
  program ^ "|" ^ profile ^ "|" ^ Isa.Insn.arch_name arch ^ "|" ^ bits

(* Compilation runs outside the lock, so workers memoizing different keys
   never serialize on each other's compiles; a racing duplicate keeps the
   first binary, which is identical (compilation is deterministic). *)
let find_or_compile t ~key compile = Util.Lru.find_or_add t key compile
