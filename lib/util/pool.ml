(* A fixed pool of worker domains, reused across waves.

   One wave = one [map] call.  Workers park on [wake] between waves and
   re-arm off a generation counter, so a pool created once at router entry
   amortizes domain spawn cost over every batch of every pass.  Work
   distribution is an atomic cursor over the index space: claiming is
   wait-free and takes one index at a time.  The caller works its own
   share of the wave rather than blocking, so [domains = n] means n
   executing domains, not n + 1. *)

type wave = {
  job : int -> unit;
  count : int;
  cursor : int Atomic.t;
  abort : bool Atomic.t;  (* set on first failure: stop claiming jobs *)
  (* Smallest-index failure among jobs that ran; guarded by the pool mutex. *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
  mutable live : int;  (* spawned workers still inside this wave *)
}

type t = {
  domains : int;
  m : Mutex.t;
  wake : Condition.t;  (* workers: a new wave (or stop) is available *)
  finished : Condition.t;  (* caller: all spawned workers left the wave *)
  mutable wave : wave option;
  mutable gen : int;  (* bumped per wave; workers re-arm on change *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable shut : bool;
}

(* Run jobs until the cursor passes [count] or a failure aborts the wave.
   A job already claimed still runs after an abort; only new claims stop.
   Per-job exceptions are recorded, not propagated, so one domain's failure
   cannot cut another's job short. *)
let work t w =
  let rec loop () =
    if not (Atomic.get w.abort) then begin
      let i = Atomic.fetch_and_add w.cursor 1 in
      if i < w.count then begin
        (try w.job i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Atomic.set w.abort true;
           Mutex.lock t.m;
           (match w.failed with
           | Some (j, _, _) when j <= i -> ()
           | _ -> w.failed <- Some (i, e, bt));
           Mutex.unlock t.m);
        loop ()
      end
    end
  in
  loop ()

let rec worker_loop t last_gen =
  Mutex.lock t.m;
  while (not t.stop) && t.gen = last_gen do
    Condition.wait t.wake t.m
  done;
  if t.stop then Mutex.unlock t.m
  else begin
    let gen = t.gen in
    let w = match t.wave with Some w -> w | None -> assert false in
    Mutex.unlock t.m;
    work t w;
    Mutex.lock t.m;
    w.live <- w.live - 1;
    if w.live = 0 then Condition.broadcast t.finished;
    Mutex.unlock t.m;
    worker_loop t gen
  end

(* The runtime allows 128 domains per process (Max_domains in
   caml/domain.h).  At this cap two pools alive at once, as when a daemon
   opens a session before closing the old one, spawn at most 126 domains
   beside the main one. *)
let max_domains = 64

let create ~domains () =
  if domains < 1 || domains > max_domains then
    invalid_arg (Printf.sprintf "Pool.create: domains must be in [1, %d]" max_domains);
  let t =
    {
      domains;
      m = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      wave = None;
      gen = 0;
      stop = false;
      workers = [];
      shut = false;
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

(* One wave over [0 .. count - 1]: returns once every claimed job has
   finished, re-raising the smallest-index failure. *)
let run_wave t ~count f =
  if count = 0 then ()
  else if t.domains = 1 then
    (* Inline fast path: same job order a 1-worker wave would use, without
       touching the mutex or condition variables. *)
    for i = 0 to count - 1 do
      f i
    done
  else begin
    let w =
      {
        job = f;
        count;
        cursor = Atomic.make 0;
        abort = Atomic.make false;
        failed = None;
        live = t.domains - 1;
      }
    in
    Mutex.lock t.m;
    t.wave <- Some w;
    t.gen <- t.gen + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    work t w;
    Mutex.lock t.m;
    while w.live > 0 do
      Condition.wait t.finished t.m
    done;
    t.wave <- None;
    let failed = w.failed in
    Mutex.unlock t.m;
    match failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map t ~count f =
  if t.shut then invalid_arg "Pool.map: pool is shut down";
  if count < 0 then invalid_arg "Pool.map: negative count";
  let out = Array.make count None in
  run_wave t ~count (fun i -> out.(i) <- Some (f i));
  (* The wave returned normally, so every index executed and filled its
     slot. *)
  Array.map (function Some v -> v | None -> assert false) out

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
