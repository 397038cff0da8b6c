(** A fixed pool of worker domains for data-parallel waves.

    The router's parallel path repeatedly fans a batch of independent jobs
    out over the same small set of domains; spawning a domain per batch
    would cost more than the batch itself, so the pool keeps [domains - 1]
    persistent workers parked on a condition variable and reuses them for
    every {!map} call ("wave") until {!shutdown}.

    Scheduling is a shared counter: workers (and the calling domain, which
    works its own share of every wave) repeatedly claim the next index
    from an atomic cursor until the wave is exhausted.  Each submitted
    index is executed exactly once, by exactly one domain.  A job is told
    only its index, not which domain runs it: a job that needs scratch
    state allocates its own, so no domain ever touches another's.

    Exceptions raised by jobs are caught per-worker; after the wave
    completes, the recorded exception with the smallest index is re-raised
    in the caller (with its original backtrace).  Once a failure is
    recorded, workers stop claiming new indices — jobs already claimed
    still finish, so a wave that raises may leave later indices
    unexecuted.

    A pool with [domains = 1] spawns nothing and runs every wave inline in
    the caller; results and raised exceptions are identical to the
    multi-domain case by construction.  Pools are not themselves
    thread-safe: drive a given pool from one domain at a time. *)

type t

val max_domains : int
(** The largest [domains] {!create} accepts: 64.  The OCaml runtime caps a
    process at 128 domains, so two pools of this size, alive at once, still
    fit beside the main domain.  Anything that takes a domain count from
    outside input (the CLI, the daemon's protocol) bounds it by this. *)

val create : domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains.
    @raise Invalid_argument, before spawning anything, if [domains < 1] or
    [domains > max_domains]. *)

val map : t -> count:int -> (int -> 'a) -> 'a array
(** [map p ~count f] executes [f i] for every [i] in [0 .. count - 1],
    distributed over the pool, and returns the results: element [i] is
    [f i].  Returns when every claimed job has finished.
    Re-raises the smallest-index job exception, if any.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains.  Idempotent.  Subsequent
    {!map} calls raise [Invalid_argument]. *)
