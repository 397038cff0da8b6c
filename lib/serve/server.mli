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
    accept loop, drains the connection threads and closes the session.

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
(** Accept connections until a ["shutdown"] request arrives, then join
    the connection threads still live, close the session (shutting its
    domain pool down) and remove the socket file.  A connection's thread
    forgets itself when the connection ends, so a long-lived daemon keeps
    no trace of the connections it has finished serving. *)

val live_connections : t -> int
(** Connections currently open (their threads not yet finished).  Never
    waits for a request in progress. *)
