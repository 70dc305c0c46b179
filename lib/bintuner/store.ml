(* The persistent, content-addressed artifact store behind serving mode.

   Layout: every entry is one file under [dir], sharded across 256
   prefix directories by the first two hex characters of the MD5 of its
   key —

       dir/
         3f/3fa4c1…e2        one entry (header line + payload)
         a0/a0ff07…9b
         quarantine/         torn entries moved aside, kept for autopsy

   An entry file is a single header line

       bintuner-store 1 <payload-byte-length> <md5-hex-of-payload>\n

   followed by the raw payload bytes.  Every write goes to a same-shard
   temp file first and is renamed into place (rename(2) within one
   directory is atomic on POSIX), so a crash mid-write can never leave a
   half-visible entry under a live name — at worst a stale ".tmp" file,
   which [create] sweeps away.  Reads validate the header's length and
   digest against the payload; a torn or corrupt entry is moved to
   quarantine/ and reported as a miss, never an error — the daemon
   recomputes and the broken bytes stay on disk for inspection.

   Recency and the byte budget live in an in-memory [Util.Lru] index
   from key digest to on-disk entry size, rebuilt at [create] by scanning
   the shards — file mtimes seed the initial recency order, so a reopened
   store evicts cold entries first.  Eviction deletes the entry file.
   File reads and temp-file writes happen outside the index lock so pool
   workers sharing the store never serialize on each other's IO. *)

type t = {
  dir : string;
  index : (string, int) Util.Lru.t;
      (* hex MD5 of the key (also the file name) -> on-disk bytes *)
  quarantined : int Atomic.t;
  tmp_counter : int Atomic.t;
}

let default_max_bytes = 256 * 1024 * 1024

let magic = "bintuner-store 1"

let is_hex_shard name =
  String.length name = 2
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       name

let is_tmp name =
  (* temp files are "<digest>.tmp.<pid>.<n>" *)
  let rec has_sub i =
    if i + 4 > String.length name then false
    else if String.sub name i 4 = ".tmp" then true
    else has_sub (i + 1)
  in
  has_sub 0

let shard_dir dir digest = Filename.concat dir (String.sub digest 0 2)

let entry_path dir digest = Filename.concat (shard_dir dir digest) digest

let quarantine_dir t = Filename.concat t.dir "quarantine"

let mkdir_p dir =
  let rec make d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let create ?(max_bytes = default_max_bytes) dir =
  mkdir_p dir;
  let index =
    Util.Lru.create
      ~weight:(fun _ cost -> cost)
      ~on_evict:(fun digest _ ->
        try Sys.remove (entry_path dir digest) with Sys_error _ -> ())
      ~telemetry:"store" ~budget:(max 1 max_bytes) ()
  in
  (* Rebuild the index from disk: sweep crash leftovers (*.tmp.*), stat
     every entry, and insert oldest-first so mtime seeds the LRU order of
     a reopened store (evicting to the budget on the way). *)
  let entries = ref [] in
  Array.iter
    (fun shard ->
      if is_hex_shard shard then begin
        let sdir = Filename.concat dir shard in
        Array.iter
          (fun name ->
            let path = Filename.concat sdir name in
            if is_tmp name then (try Sys.remove path with Sys_error _ -> ())
            else
              match Unix.stat path with
              | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                entries := (name, st_size, st_mtime) :: !entries
              | _ | (exception Unix.Unix_error _) -> ())
          (try Sys.readdir sdir with Sys_error _ -> [||])
      end)
    (try Sys.readdir dir with Sys_error _ -> [||]);
  List.sort (fun (_, _, a) (_, _, b) -> compare a b) !entries
  |> List.iter (fun (digest, cost, _) ->
         (* an entry the whole budget cannot hold is never admitted *)
         if cost > Util.Lru.budget index then
           (try Sys.remove (entry_path dir digest) with Sys_error _ -> ())
         else Util.Lru.add index digest cost);
  { dir; index; quarantined = Atomic.make 0; tmp_counter = Atomic.make 0 }

let key_digest key = Digest.to_hex (Digest.string key)

(* Move a torn entry aside (keeping the bytes for autopsy) and drop it
   from the index.  Racing quarantines of the same entry are harmless:
   the loser's rename fails silently and the index op is idempotent. *)
let quarantine t digest =
  Util.Lru.remove t.index digest;
  Atomic.incr t.quarantined;
  mkdir_p (quarantine_dir t);
  (try
     Sys.rename (entry_path t.dir digest)
       (Filename.concat (quarantine_dir t) digest)
   with Sys_error _ -> ());
  Telemetry.add_count "store.quarantine"

(* Read and validate one entry file; [Error `Torn] for anything that
   does not parse back to its own digest. *)
let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> Error `Gone
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error `Torn
        | header -> (
          match String.split_on_char ' ' header with
          | [ m1; m2; len; md5 ] when m1 ^ " " ^ m2 = magic -> (
            match int_of_string_opt len with
            | None -> Error `Torn
            | Some len when len < 0 -> Error `Torn
            | Some len -> (
              match really_input_string ic len with
              | exception End_of_file -> Error `Torn
              | payload ->
                if
                  Digest.to_hex (Digest.string payload) = md5
                  && pos_in ic = in_channel_length ic
                then Ok payload
                else Error `Torn))
          | _ -> Error `Torn))

(* A served read is a hit; a cold key, a vanished file (a racing
   eviction deleted it between the index lookup and the read) or a torn
   one is a miss, and a torn entry is quarantined on the way out. *)
let find t key =
  let digest = key_digest key in
  let torn = ref false in
  let found =
    Util.Lru.find_valid t.index digest (fun _ ->
        match read_entry (entry_path t.dir digest) with
        | Ok payload -> Some payload
        | Error `Gone -> None
        | Error `Torn ->
          torn := true;
          None)
  in
  if !torn then quarantine t digest;
  found

let store t key payload =
  let digest = key_digest key in
  let header =
    Printf.sprintf "%s %d %s\n" magic (String.length payload)
      (Digest.to_hex (Digest.string payload))
  in
  let cost = String.length header + String.length payload in
  (* keep-first: entries are deterministic per key, so a resident or
     racing publisher of the same key already holds these bytes; and an
     entry the whole budget cannot hold is never written *)
  if cost <= Util.Lru.budget t.index && not (Util.Lru.mem t.index digest)
  then begin
    let sdir = shard_dir t.dir digest in
    mkdir_p sdir;
    let tmp =
      Filename.concat sdir
        (Printf.sprintf "%s.tmp.%d.%d" digest (Unix.getpid ())
           (Atomic.fetch_and_add t.tmp_counter 1))
    in
    let oc = open_out_bin tmp in
    (try
       output_string oc header;
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    match Sys.rename tmp (entry_path t.dir digest) with
    | () -> Util.Lru.add t.index digest cost
    | exception Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Typed wrappers                                                      *)
(* ------------------------------------------------------------------ *)

(* {!find} + decode.  The payload digest already rejects torn bytes; an
   entry that passes it but does not decode (written by an incompatible
   build, or under the wrong kind of key) is quarantined and reported as
   a miss, so the recomputed value can take its place rather than every
   later lookup reading the same bad file. *)
let find_decoded decode t key =
  match find t key with
  | None -> None
  | Some payload -> (
    match decode payload with
    | Some _ as v -> v
    | None ->
      quarantine t (key_digest key);
      None)

(* Compiled binaries are marshaled records ([Isa.Binary.t] is pure
   data). *)
let find_binary =
  find_decoded (fun payload ->
      try Some (Marshal.from_string payload 0 : Isa.Binary.t) with _ -> None)

let store_binary t key (bin : Isa.Binary.t) =
  store t key (Marshal.to_string bin [])

let find_size = find_decoded int_of_string_opt

let store_size t key v = store t key (string_of_int v)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let hits t = Util.Lru.hits t.index
let misses t = Util.Lru.misses t.index
let evictions t = Util.Lru.evictions t.index
let quarantined t = Atomic.get t.quarantined
let length t = Util.Lru.length t.index
let bytes t = Util.Lru.weight t.index
let max_bytes t = Util.Lru.budget t.index
