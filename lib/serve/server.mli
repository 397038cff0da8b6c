(** The routing daemon behind [fpga_route serve].

    Listens on a Unix domain socket and speaks the newline-delimited JSON
    protocol of {!Protocol} over it.  Each connection gets its own thread;
    all requests serialize on one global mutex around the single long-lived
    {!Fr_fpga.Router.Eco} session, whose worker-domain pool supplies the
    CPU parallelism (the pool must be driven from one thread at a time).
    Concurrent clients therefore interleave at request granularity and
    every response reports that request's own per-call stats.

    A ["route"] request opens (or replaces) the session; ["eco"] requests
    re-route its netlist incrementally under the ECO differential-exactness
    contract; ["checkpoint"] snapshots the netlist by value and restores by
    replaying a name-keyed diff as ECO deltas; ["shutdown"] stops the
    accept loop and closes the session.

    A request line may be at most 1 MiB long, newline excluded.  A longer
    one gets an [{"ok":false,"error":...}] reply and its connection is
    closed; the daemon never buffers more than the cap. *)

type t

val create : socket:string -> t
(** Bind and listen on [socket] (an existing file at that path is
    removed first).  Returns once the socket accepts connections, so a
    caller may announce readiness before {!serve_forever} blocks.  Sets
    SIGPIPE to ignored for the process, so a client that disconnects
    before reading its reply ends only its own connection.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val serve_forever : t -> unit
(** Accept connections until a ["shutdown"] request arrives, then wait
    for the replies owed to requests already dispatched, close the session
    (shutting its domain pool down) and remove the socket file.  Nothing
    waits for a connection that has no request in flight, so an idle peer
    does not hold the shutdown; its thread is left to the process exit.
    A request dispatched after the shutdown gets an error reply and starts
    nothing. *)
