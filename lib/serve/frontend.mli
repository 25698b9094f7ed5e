(** The JSONL front end of [mcml serve] ({!Server}) and [mcml fleet]
    ([Mcml_fleet.Router]): everything between a socket and the
    service's {!admit} function, once.

    {b One connection.}  {!handle_connection} runs a {b reader} that
    takes one request per line ({!Line_reader}), parses it and hands it
    to [admit], and a {b responder} thread that writes pending answers
    back {e in request order}, forcing each as its turn comes.  An
    answer [admit] gives {!Ready} is written by the reader itself when
    nothing earlier on the connection is queued or being written, and
    otherwise waits its turn in the queue like a pending one.

    {b Bounded memory.}  At most [queue_cap] responses wait per
    connection; a full queue stops the reader and the client feels
    socket backpressure.  A line longer than {!Line_reader.max_line}
    reaches [admit] once, as a parse error with a null id (both
    services answer [code = "bad_request"]); its bytes are dropped
    through its newline, and the connection keeps serving.

    {b Graceful drain, no timers.}  Readers and {!serve_unix}'s accept
    loop block in [select] with no timeout, on their descriptor and a
    close-on-exec wake pipe.  {!drain} (wired to SIGTERM/SIGINT by the
    CLI) writes that pipe once, which wakes them all: requests already
    read still reach [admit], which answers them [code = "draining"];
    admitted work runs to completion and is written; then connection
    loops and the accept loop return so the process can flush its
    trace sink and exit 0.  An idle server therefore wakes on no timer
    of its own.

    {b Telemetry.}  Each connection is a span named by the service
    ([serve.conn], [fleet.conn]), open on the reader thread, so the
    request spans [admit] starts there parent under it; a root when
    the connection has a thread of its own, as in {!serve_unix}.
    Nothing samples {!Mcml_obs.Probe} on a timer: a [metrics] scrape
    does, and {!serve_unix} once at drain. *)

type t

type answer =
  | Ready of Protocol.response  (** answered on the reader *)
  | Pending of (unit -> Protocol.response)
      (** waits for work [admit] started; forced by the responder *)

type admit = (Protocol.request, Mcml_obs.Json.t * string) result -> answer
(** [admit parsed] runs on the reader, once per non-blank line, in
    order, under the connection span: [parsed] is the request, or the
    parse error with the id it could recover. *)

val create : conn_span:string -> queue_cap:int -> t
(** Opens the wake pipe; {!close} it when done. *)

val drain : t -> unit
(** Request a graceful drain: idempotent, takes no lock, so callable
    from a signal handler or any thread. *)

val draining : t -> bool

val handle_connection :
  t -> admit:admit -> input:Unix.file_descr -> output:out_channel -> unit
(** Serve one JSONL connection until EOF or {!drain}.  Returns only
    after every admitted request has been answered and [output]
    flushed.  Does not close either descriptor. *)

val close : t -> unit
(** Close the wake pipe; the front end counts as drained from then on.
    Call once every connection loop has returned. *)

val serve_unix :
  t -> path:string -> (input:Unix.file_descr -> output:out_channel -> unit) -> unit
(** Bind a Unix-domain socket at [path] (replacing a stale file) and
    accept connections until {!drain}, one thread each running the
    given handler.  On drain, stop accepting, unlink [path], join
    every live connection and take one {!Mcml_obs.Probe.sample}.
    Listener and connections are close-on-exec.  The caller should
    ignore SIGPIPE. *)
