(** The wire protocol of [mcml serve]: JSONL requests and responses.

    One JSON object per line in each direction.  A request names a
    {e kind} — the three counting entry points of the study ([count],
    [accmc], [diffmc]) plus the two administrative kinds ([health],
    [stats]) — and carries the same parameters the corresponding CLI
    subcommand takes, so a served answer is byte-comparable to a direct
    CLI run.  Requests:

    {v
    {"id":1,"kind":"count","prop":"PartialOrder","scope":4,
     "symmetry":false,"negate":false,"backend":"exact",
     "budget_s":60.0,"deadline_ms":2000}
    {"id":2,"kind":"accmc","prop":"Reflexive","seed":20200615}
    {"id":3,"kind":"health"}
    v}

    Responses echo the request [id] verbatim (clients match responses
    to requests by it; the server may answer out of request order only
    across connections — within one connection responses come back in
    request order):

    {v
    {"id":1,"ok":true,"result":{"count":"355","exact":true,...}}
    {"id":4,"ok":false,"code":"timeout","error":"count timed out"}
    v}

    Every field except ["kind"] (and ["prop"] for the three counting
    kinds) is optional and defaults to the CLI defaults.  Unknown
    fields are ignored (forward compatibility); a malformed value in a
    known field rejects the request with [Bad_request].

    {b Shard attribution.}  [health] and [stats] payloads from a fleet
    shard (a server created with [shard_id]) carry an {e optional}
    ["shard": int] field; the fleet router's merged fan-out responses
    keep per-shard entries attributable by it.  Clients that predate
    the fleet ignore it like any other unknown field — no version
    negotiation needed.

    {b Trace propagation.}  A request may carry an optional ["trace"]
    object — [{"id": <63-bit trace id>, "pid": <sender pid>,
    "span": <sender's in-flight span id>}] — identifying the span on
    whose behalf the request is made.  The fleet router stamps it from
    its [fleet.route] span ({!Mcml_obs.Obs.propagation}) and the
    server adopts it ({!Mcml_obs.Obs.remote_context}), so in a merged
    trace ({!Mcml_obs.Trace.merge}) the shard's [serve.request] span
    parents under the router's span across the process boundary.
    Requests without the field behave exactly as before. *)

open Mcml_obs

type query = {
  prop : Mcml_props.Props.t;
  scope : int option;  (** [None]: the paper's scope-selection rule *)
  symmetry : bool;
  negate : bool;  (** honored by [count] only *)
  backend : Mcml_counting.Counter.backend;
  budget : float;  (** per-count timeout, seconds *)
  seed : int;  (** RNG seed for the accmc/diffmc training pipelines *)
}

type kind =
  | Count of query  (** the [mcml count] entry point *)
  | Accmc of query  (** train a DT, then AccMC over the whole space *)
  | Diffmc of query  (** train two DTs, then DiffMC between them *)
  | Health  (** liveness: status, jobs, in-flight, uptime *)
  | Stats  (** request totals and count-cache statistics *)
  | Metrics of [ `Text | `Json | `Snapshot ]
      (** live registry scrape: the server samples the runtime probes
          and returns an {!Mcml_obs.Metrics} snapshot — as OpenMetrics
          text (the default; wire field ["format":"text"]), as the
          JSON rendering (["format":"json"]), or as the full-fidelity
          wire snapshot (["format":"snapshot"], schema
          [mcml.metrics.snapshot.v1]) that a fleet router requests
          from its shards to merge histograms bucket-wise *)

type wire_trace = { trace_id : int; parent_pid : int; parent_span : int }
(** Wire trace context: the sender's active trace id and the
    [(pid, span id)] of its in-flight span — everything the receiver
    needs to parent its work under the sender's span in a merged
    forest. *)

type request = {
  id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  trace : wire_trace option;
      (** cross-process trace context (wire field ["trace"]); adopted
          by the server, never echoed back *)
  deadline_ms : float option;
      (** per-request deadline relative to admission; mapped onto the
          counters' budget discipline ({!Server.execute}) *)
  kind : kind;
}

(** Why a request was not answered with a result.  [Timeout] covers
    both an expired {!request.deadline_ms} and a count that exhausted
    its budget — the caller-visible outcome is the same. *)
type error_code = Bad_request | Overloaded | Timeout | Draining | Internal

type response = {
  rid : Json.t;  (** the request's [id], echoed *)
  body : (Json.t, error_code * string) result;
      (** [Ok payload] or [Error (code, human-readable message)] *)
}

val kind_name : kind -> string
(** Wire name of the kind: ["count"], ["accmc"], ["diffmc"],
    ["health"], ["stats"], ["metrics"]. *)

val code_name : error_code -> string
(** Wire name of the code: ["bad_request"], ["overloaded"],
    ["timeout"], ["draining"], ["internal"]. *)

val code_of_name : string -> error_code option
(** Inverse of {!code_name}. *)

val default_budget : float
(** The [budget_s] of a request that names none: 60 s, the CLI's. *)

val request_to_json : request -> Json.t
(** Serialize a request (the client side of the protocol).  Parsing it
    back with {!request_of_string} yields an equivalent request. *)

val request_of_string : string -> (request, Json.t * string) result
(** Parse one request line.  [Error (id, msg)] carries the request id
    when one could be extracted (so the rejection can still be matched
    to the request) and a message naming the offending field: unknown
    kind, unknown property, non-positive deadline or budget, truncated
    JSON, … *)

val ok : id:Json.t -> Json.t -> response
val err : id:Json.t -> error_code -> string -> response
(** Response constructors. *)

val response_to_string : response -> string
(** One-line JSON rendering of a response (no trailing newline). *)

val response_of_string : string -> (response, string) result
(** Parse one response line (the client side). *)
