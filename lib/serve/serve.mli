(** The coverage service: a dependency-free HTTP/1.1 server over a
    {!Sic_db.Db} database, plus the matching client.

    The paper's common counts format makes coverage mergeable across any
    set of producers (§5.3); this server closes the distribution gap.
    Remote producers [POST /runs] their counts files (the v1 interchange
    text — the wire format {e is} the on-disk format) and everyone reads
    one merged [GET /report]. Hand-rolled over [Unix] sockets in the
    repo's no-dependency style: bounded accept queue, fixed worker-thread
    pool, keep-alive with explicit [Content-Length] (never chunked), hard
    parser limits, one live database handle synced per request,
    ETag/[If-None-Match] caching keyed on the database's
    {!Sic_db.Db.stamp}, and graceful drain on SIGINT/SIGTERM.

    Endpoints: [POST /runs], [POST /heartbeat], [GET /report],
    [GET /report.html], [GET /runs], [GET /rank], [GET /timelines],
    [GET /diff?a=&b=], [GET /watch] (server-sent events),
    [GET /dashboard], [GET /metrics] (JSON, or Prometheus text
    exposition under [Accept: text/plain]), [GET /metrics.prom],
    [GET /healthz], [GET /]. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide, turning writes to a vanished peer into
    [Unix_error (EPIPE, _, _)] — a per-connection (or, in the fleet, a
    per-worker) error instead of process death. {!start} calls this;
    [sic] also calls it once at startup. *)

(** The HTTP/1.1 subset we speak, exposed for the parser unit tests. *)
module Http : sig
  exception Bad_request of string  (** maps to [400] *)

  exception Too_large of string
  (** Request line or headers over the limits; maps to [431]. *)

  exception Payload_too_large of string
  (** Body over {!max_body}; maps to [413]. *)

  val max_request_line : int
  val max_header_line : int
  val max_headers : int
  val max_body : int

  type request = {
    meth : string;
    target : string;  (** raw request target, e.g. ["/diff?a=r0001&b=r0002"] *)
    path : string;  (** decoded path component *)
    query : (string * string) list;  (** decoded query parameters *)
    version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
    headers : (string * string) list;  (** names lowercased *)
    body : string;
  }

  (** A buffered reader over any [read]-like source, so the parser runs
      identically over a socket and over a string in tests. *)
  module Reader : sig
    type t

    val of_fd : Unix.file_descr -> t
    val of_string : string -> t
  end

  val parse_request : Reader.t -> request option
  (** One request off the reader. [None] on clean EOF before the first
      byte (a peer closing an idle keep-alive connection); raises
      {!Bad_request} / {!Too_large} / {!Payload_too_large} otherwise. *)

  val header : request -> string -> string option
  (** Case-insensitive header lookup. *)

  val response :
    status:int ->
    ?content_type:string ->
    ?extra:(string * string) list ->
    ?keep_alive:bool ->
    string ->
    string
  (** Serialize one response with explicit [Content-Length] ([304]: no
      body, no length, per RFC 9110). *)

  val percent_decode : string -> string
  val percent_encode : string -> string
end

(** The SSE wire subset [GET /watch] speaks: [event:]/[data:] frames
    terminated by a blank line, [:] comment lines as keep-alive
    heartbeats. Exposed for the client, [sic watch] and the tests. *)
module Sse : sig
  val frame : ?event:string -> string -> string
  (** [frame ?event data] is one complete SSE frame. Newlines in the
      event name are flattened to spaces; each line of [data] becomes
      its own [data:] line (CRs are dropped), and the frame ends with
      the blank separator line. *)

  val comment : string -> string
  (** A [:]-prefixed comment frame (flattened to one line) — invisible
      to [EventSource] consumers, keeps the connection alive. *)

  val heartbeat : int -> string
  (** [heartbeat n] is [comment ("hb " ^ n)]. *)

  (** Reassemble events from a line-split SSE stream (line terminators
      already stripped). *)
  module Decoder : sig
    type t

    val create : unit -> t

    val line : t -> string -> (string * string) option
    (** Feed one line. [Some (event, data)] when the line completes an
        event (the event name defaults to ["message"]); [None] while
        accumulating, on comments, and on fields we don't speak. Events
        without any [data:] line are dropped, per the SSE spec. *)
  end
end

type t
(** A running server: listening socket, acceptor thread, worker pool. *)

val start :
  ?host:string ->
  ?port:int ->
  ?threads:int ->
  ?queue_limit:int ->
  ?sse_heartbeat_s:float ->
  db_dir:string ->
  unit ->
  t
(** Bind, listen and spin up the pool; returns once the server is
    accepting. Defaults: host ["127.0.0.1"], port [0] (ephemeral — read
    it back with {!port}), [4] worker threads, accept-queue limit [64]
    (beyond it new connections are answered [503] and closed),
    [sse_heartbeat_s] [15.] (idle gap before a [/watch] subscriber gets
    a keep-alive comment; clamped to at least [0.5]). Validates [db_dir]
    up front (raises {!Sic_db.Db.Db_error} if it is not a database).
    Writes to the database go through {!Sic_db.Db.Lock}, so the server
    coexists with concurrent [sic db add] / campaigns on the same
    directory. [/watch] subscribers are served by dedicated streaming
    threads, so they never occupy the request worker pool. *)

val port : t -> int
(** The actually-bound port (useful with [?port:0]). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain queued connections, join
    every worker, close the hub so every [/watch] subscriber is sent a
    goodbye and hung up, close the sockets. Idempotent-ish: safe to
    call once per {!start}. *)

val flush_cache : t -> unit
(** Drop the rendered-response cache (bench harness: measures the
    uncached path without restarting the server). *)

val run :
  ?host:string ->
  ?port:int ->
  ?threads:int ->
  ?queue_limit:int ->
  db_dir:string ->
  unit ->
  unit
(** The [sic serve] entry point: {!start}, print the listening banner,
    install SIGINT/SIGTERM handlers that trigger a graceful drain, and
    block until shutdown completes. *)

(** The matching HTTP client (same parser), used by
    [sic campaign --push URL], the end-to-end tests and the serve
    benchmark. *)
module Client : sig
  exception Error of string
  (** Malformed URL, unresolvable host, or a protocol violation by the
      server. Connection-level failures surface as [Unix.Unix_error]. *)

  type response = {
    status : int;
    reason : string;
    headers : (string * string) list;  (** names lowercased *)
    body : string;
  }

  val header : response -> string -> string option

  val parse_url : string -> string * int * string
  (** [parse_url "http://host:port/path?q"] is [(host, port, target)];
      port defaults to 80, target to ["/"]. Only [http://]. *)

  (** {2 Keep-alive connections} *)

  type conn

  val connect : host:string -> port:int -> conn
  val close : conn -> unit

  val request :
    conn ->
    ?headers:(string * string) list ->
    ?body:string ->
    meth:string ->
    target:string ->
    unit ->
    response
  (** One request/response round trip on the open connection. *)

  (** {2 One-shot helpers (connection per call)} *)

  val call :
    ?headers:(string * string) list -> ?body:string -> meth:string -> string -> response

  val get : ?headers:(string * string) list -> string -> response
  val post : ?headers:(string * string) list -> body:string -> string -> response

  val push_run :
    ?worker:string ->
    url:string ->
    design:string ->
    backend:string ->
    workload:string ->
    seed:int ->
    cycles:int ->
    Sic_coverage.Counts.t ->
    response
  (** POST one run's counts to [url ^ "/runs"] with the metadata as query
      parameters — what [sic campaign --push URL] does for each run the
      campaign records. A [201] response carries the server-assigned run
      record as JSON. [worker] tags the run with a producer id so the
      live dashboard can attribute it. *)

  val watch : on_event:(event:string -> data:string -> bool) -> string -> unit
  (** Subscribe to the server root's [GET /watch] SSE stream and feed
      each decoded event to [on_event] until it returns [false] or the
      server closes the stream (its graceful drain). Keep-alive comments
      are consumed silently. Blocks the calling thread. *)
end
