(* A chunked fork-join pool over OCaml 5 domains.

   Workers block on [cv] waiting for tasks; [map] enqueues one task per
   contiguous chunk, helps drain the queue from the submitting domain,
   then waits on a per-batch latch for chunks still running elsewhere.
   Results and exceptions land in per-index slots, so nothing about the
   outcome depends on which worker ran which chunk or in what order. *)

type t = {
  size : int;
  mutex : Mutex.t;
  cv : Condition.t;  (* signalled on new tasks and on shutdown *)
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;  (* emptied by shutdown *)
}

let worker pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.tasks && not pool.stop do
      Condition.wait pool.cv pool.mutex
    done;
    match Queue.take_opt pool.tasks with
    | Some task ->
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    | None ->
      (* stop && empty *)
      Mutex.unlock pool.mutex
  in
  loop ()

(* Process-wide count of worker domains spawned and not yet joined.
   Purely observational — it exists so tests can assert that pool owners
   (e.g. a pool-less [Tuner.tune]) don't leak domains. *)
let live = Atomic.make 0

let live_domains () = Atomic.get live

let create n =
  let size = max 1 n in
  let pool =
    {
      size;
      mutex = Mutex.create ();
      cv = Condition.create ();
      tasks = Queue.create ();
      stop = false;
      workers = [||];
    }
  in
  if size > 1 then begin
    pool.workers <-
      Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
    Atomic.fetch_and_add live (size - 1) |> ignore
  end;
  pool

let size pool = pool.size

let default_size () = Domain.recommended_domain_count ()

let shutdown pool =
  let workers = pool.workers in
  pool.workers <- [||];
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join workers;
  Atomic.fetch_and_add live (-Array.length workers) |> ignore

let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let in_worker pool =
  let me = Domain.self () in
  Array.exists (fun d -> Domain.get_id d = me) pool.workers

(* A latch the submitter waits on; workers count chunks down. *)
type latch = {
  l_mutex : Mutex.t;
  l_cv : Condition.t;
  mutable remaining : int;
}

let latch_done l =
  Mutex.lock l.l_mutex;
  l.remaining <- l.remaining - 1;
  if l.remaining = 0 then Condition.broadcast l.l_cv;
  Mutex.unlock l.l_mutex

let latch_wait l =
  Mutex.lock l.l_mutex;
  while l.remaining > 0 do
    Condition.wait l.l_cv l.l_mutex
  done;
  Mutex.unlock l.l_mutex

let map ?chunk_size pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.size <= 1 || n = 1 || Array.length pool.workers = 0
          || in_worker pool then Array.map f xs
  else begin
    let chunk =
      match chunk_size with
      | Some c when c >= 1 -> c
      | Some c -> invalid_arg (Printf.sprintf "Pool.map: chunk_size %d" c)
      | None -> (n + pool.size - 1) / pool.size
    in
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    let errors = Array.make n None in
    let latch =
      { l_mutex = Mutex.create (); l_cv = Condition.create (); remaining = nchunks }
    in
    let run_chunk k () =
      Telemetry.with_span "pool.chunk" (fun () ->
          let lo = k * chunk in
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            match f xs.(i) with
            | y -> results.(i) <- Some y
            | exception e -> errors.(i) <- Some e
          done);
      latch_done latch
    in
    Mutex.lock pool.mutex;
    for k = 0 to nchunks - 1 do
      Queue.add (run_chunk k) pool.tasks
    done;
    Telemetry.add_count "pool.batches";
    Telemetry.add_count ~by:nchunks "pool.chunks";
    Telemetry.set_gauge "pool.queue_depth"
      (float_of_int (Queue.length pool.tasks));
    Condition.broadcast pool.cv;
    Mutex.unlock pool.mutex;
    (* The submitting domain helps drain the queue instead of blocking on
       the latch: with [size - 1] spawned workers, this is what makes a
       [-j N] pool actually N lanes wide.  Helping may also pick up
       chunks of a concurrent batch — that is still useful work, and
       results land in per-index slots either way. *)
    let rec help () =
      Mutex.lock pool.mutex;
      let task = Queue.take_opt pool.tasks in
      Mutex.unlock pool.mutex;
      match task with
      | Some task ->
        task ();
        help ()
      | None -> ()
    in
    help ();
    latch_wait latch;
    (* deterministic propagation: lowest failing index wins *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some y -> y
        | None -> assert false (* every index ran: no error, so a result *))
      results
  end

let map_list ?chunk_size pool f l =
  Array.to_list (map ?chunk_size pool f (Array.of_list l))
