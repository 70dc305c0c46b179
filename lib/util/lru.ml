(* Entries live on a circular doubly-linked ring: [mru] is the most
   recently used entry and [mru.ring_prev] the eviction victim.  The
   table, the ring and the counters are all guarded by [lock]. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  weight : int;
  mutable ring_prev : ('k, 'v) node;
  mutable ring_next : ('k, 'v) node;
}

type ('k, 'v) t = {
  budget : int;
  weigh : 'k -> 'v -> int;
  on_evict : 'k -> 'v -> unit;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  lock : Mutex.t;
  mutable mru : ('k, 'v) node option;
  mutable weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* telemetry counter names, built once here rather than per lookup *)
  hit_name : string option;
  miss_name : string option;
  evict_name : string option;
}

let create ?(weight = fun _ _ -> 1) ?(on_evict = fun _ _ -> ()) ?telemetry
    ~budget () =
  let name suffix = Option.map (fun p -> p ^ suffix) telemetry in
  {
    budget;
    weigh = weight;
    on_evict;
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    mru = None;
    weight = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    hit_name = name ".hit";
    miss_name = name ".miss";
    evict_name = name ".evict";
  }

let emit = function None -> () | Some name -> Telemetry.add_count name

let unlink t n =
  if n.ring_next == n then t.mru <- None
  else begin
    n.ring_prev.ring_next <- n.ring_next;
    n.ring_next.ring_prev <- n.ring_prev;
    match t.mru with
    | Some m when m == n -> t.mru <- Some n.ring_next
    | _ -> ()
  end

let push_front t n =
  (match t.mru with
  | None ->
    n.ring_prev <- n;
    n.ring_next <- n
  | Some m ->
    n.ring_next <- m;
    n.ring_prev <- m.ring_prev;
    m.ring_prev.ring_next <- n;
    m.ring_prev <- n);
  t.mru <- Some n

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.weight <- t.weight - n.weight

(* Must be called with the lock held: the resident node for [key], made
   the most recently used. *)
let touch t key =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    unlink t n;
    push_front t n;
    Some n
  | None -> None

let count_hit t =
  Mutex.protect t.lock (fun () -> t.hits <- t.hits + 1);
  emit t.hit_name

let count_miss t =
  Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1);
  emit t.miss_name

let find t key =
  let found =
    Mutex.protect t.lock (fun () ->
        match touch t key with
        | Some n ->
          t.hits <- t.hits + 1;
          Some n.value
        | None ->
          t.misses <- t.misses + 1;
          None)
  in
  emit (if Option.is_some found then t.hit_name else t.miss_name);
  found

let find_valid t key check =
  match Mutex.protect t.lock (fun () -> touch t key) with
  | None ->
    count_miss t;
    None
  | Some n -> (
    match check n.value with
    | Some _ as r ->
      count_hit t;
      r
    | None ->
      (* the entry may be gone already, or replaced by a fresh insert
         that must stay *)
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some m when m == n -> drop t n
          | _ -> ());
      count_miss t;
      None)

let add t key value =
  let weight = t.weigh key value in
  if weight <= t.budget then
    Mutex.protect t.lock (fun () ->
        if not (Hashtbl.mem t.table key) then begin
          let rec n = { key; value; weight; ring_prev = n; ring_next = n } in
          push_front t n;
          Hashtbl.replace t.table key n;
          t.weight <- t.weight + weight;
          while t.weight > t.budget do
            let victim = (Option.get t.mru).ring_prev in
            drop t victim;
            t.evictions <- t.evictions + 1;
            t.on_evict victim.key victim.value;
            emit t.evict_name
          done
        end)

let find_or_add t key compute =
  match find t key with
  | Some v -> v
  | None ->
    let v = compute () in
    add t key v;
    v

let mem t key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)

let remove t key =
  Mutex.protect t.lock (fun () ->
      Option.iter (drop t) (Hashtbl.find_opt t.table key))

let keys t =
  Mutex.protect t.lock (fun () ->
      match t.mru with
      | None -> []
      | Some m ->
        let rec walk n acc =
          let acc = n.key :: acc in
          if n == m then acc else walk n.ring_prev acc
        in
        walk m.ring_prev [])

let locked t read = Mutex.protect t.lock (fun () -> read t)
let hits t = locked t (fun t -> t.hits)
let misses t = locked t (fun t -> t.misses)
let evictions t = locked t (fun t -> t.evictions)
let length t = locked t (fun t -> Hashtbl.length t.table)
let weight t = locked t (fun t -> t.weight)
let budget t = t.budget
