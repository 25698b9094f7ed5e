(** The JSONL front end of [mcml serve] ({!Server}) and [mcml fleet]
    ([Mcml_fleet.Router]): everything between a socket and the
    service's {!admit} function, once.

    {b One connection.}  {!handle_connection} runs a {b reader} that
    takes one request per line ({!Line_reader}), parses it and hands it
    to [admit], and a {b responder} thread that writes the responses
    back {e in request order}, forcing each [admit] thunk as its turn
    comes.

    {b Bounded memory.}  At most [queue_cap] responses wait per
    connection; a full queue stops the reader and the client feels
    socket backpressure.  A line longer than {!Line_reader.max_line}
    reaches [admit] once, as a parse error with a null id (both
    services answer [code = "bad_request"]); its bytes are dropped
    through its newline, and the connection keeps serving.

    {b Graceful drain.}  {!drain} (wired to SIGTERM/SIGINT by the CLI)
    stops the readers: requests already read still reach [admit],
    which answers them [code = "draining"]; admitted work runs to
    completion and is written; then connection loops and
    {!serve_unix}'s accept loop return so the process can flush its
    trace sink and exit 0.

    {b Telemetry.}  Each connection is a span named by the service
    ([serve.conn], [fleet.conn]), open on the reader thread, so the
    request spans [admit] starts there parent under it; a root when
    the connection has a thread of its own, as in {!serve_unix}. *)

type t

type admit =
  (Protocol.request, Mcml_obs.Json.t * string) result -> unit -> Protocol.response
(** [admit parsed] runs on the reader, once per non-blank line, in
    order, under the connection span: [parsed] is the request, or the
    parse error with the id it could recover.  The thunk it returns
    already holds the answer (admin kinds, errors, rejections) or waits
    for work started here. *)

val create : conn_span:string -> queue_cap:int -> probe_interval_s:float -> t
(** [probe_interval_s] is the minimum gap between
    {!Mcml_obs.Probe.sample} ticks in {!serve_unix} ([<= 0.] disables
    them). *)

val drain : t -> unit
(** Request a graceful drain (idempotent, callable from a signal
    handler or any thread). *)

val draining : t -> bool

val handle_connection :
  t -> admit:admit -> input:Unix.file_descr -> output:out_channel -> unit
(** Serve one JSONL connection until EOF or {!drain}.  Returns only
    after every admitted request has been answered and [output]
    flushed.  Does not close either descriptor. *)

val serve_unix :
  t -> path:string -> (input:Unix.file_descr -> output:out_channel -> unit) -> unit
(** Bind a Unix-domain socket at [path] (replacing a stale file) and
    accept connections until {!drain}, one thread each running the
    given handler.  On drain, stop accepting, unlink [path] and join
    every live connection.  Listener and connections are
    close-on-exec.  The caller should ignore SIGPIPE. *)
