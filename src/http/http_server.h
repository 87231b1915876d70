// Embedded HTTP/1.1 server: the wire transport of the serving frontier.
//
// Threading model: one dedicated accept thread plus one thread per live
// connection. A connection's thread does everything for its request: the
// blocking socket I/O, the admission wait, and the query itself — search,
// every snippet slot and every write — since a ServeQuery stream produces
// on the thread that consumes it. Admission therefore bounds how many
// threads compute at once (`max_concurrent`); the rest wait in its queue
// or are shed. Connection count is bounded too (`max_connections`,
// over-limit accepts get an immediate 503), so thread growth is bounded;
// at the configured scale (hundreds of connections) thread-per-connection
// measures within noise of an event loop and keeps handlers straight-line
// blocking code.
//
// Responses are either buffered (SendResponse/SendJson: Content-Length,
// connection close) or streamed (BeginChunked/WriteChunk/EndChunked:
// Transfer-Encoding chunked — the SSE path). Write failures are sticky and
// surface via client_disconnected(), which streaming handlers poll to turn
// a vanished client into stream cancellation; CheckClientAlive peeks the
// socket so a disconnect is noticed even between slow events.
//
// Handlers are registered per exact path. The server owns an
// AdmissionController which handlers acquire from (see
// http/query_endpoints.cc); /healthz-style routes simply don't.

#ifndef EXTRACT_HTTP_HTTP_SERVER_H_
#define EXTRACT_HTTP_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "http/admission.h"
#include "http/http_parser.h"

namespace extract {

struct HttpServerOptions {
  /// Bind address. Tests and the demo bind loopback; a deployment would
  /// front this with a real proxy.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (the bound port is reported by port()).
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Hard cap on concurrent connection threads; accepts beyond it receive
  /// an immediate 503 on the accept thread. Distinct from admission: this
  /// bounds *sockets and threads*, admission bounds *serving sessions*.
  size_t max_connections = 256;
  /// Blocking-read timeout per recv; a request head not completed within
  /// ~this budget times out with 408.
  std::chrono::milliseconds read_timeout{5000};
  /// Blocking-write timeout per send: a client that stops draining (a
  /// stalled SSE reader) is treated as disconnected after ~this budget
  /// instead of parking the connection thread forever.
  std::chrono::milliseconds write_timeout{10000};
  HttpParseLimits parse_limits;
  AdmissionOptions admission;
};

/// Monotonic counters of one server's lifetime.
struct HttpServerStats {
  size_t connections_accepted = 0;
  size_t connections_rejected_capacity = 0;  ///< over max_connections
  size_t requests_parsed = 0;
  size_t parse_errors = 0;
  size_t responses_2xx = 0;
  size_t responses_4xx = 0;
  size_t responses_5xx = 0;
  size_t sse_streams_opened = 0;
  size_t sse_client_disconnects = 0;  ///< streams cut by a vanished client
};

/// \brief Response side of one connection, handed to handlers.
///
/// Exactly one of the two shapes per request: SendResponse/SendJson, or
/// BeginChunked + WriteChunk* + EndChunked. All writes are blocking; any
/// failure flips client_disconnected() and turns later writes into no-ops.
class ResponseWriter {
 public:
  /// Buffered response with Content-Length and Connection: close.
  void SendResponse(int status, std::string_view content_type,
                    std::string_view body);
  /// SendResponse with application/json and optional Retry-After (503s).
  void SendJson(int status, std::string_view json_body,
                int retry_after_seconds = 0);
  /// Canonical error body: {"status": <code name>, "message": ...}.
  void SendError(int http_status, const Status& status);

  /// Opens a chunked response (the SSE path). Returns false when the
  /// client is already gone.
  bool BeginChunked(int status, std::string_view content_type);
  bool WriteChunk(std::string_view data);
  bool EndChunked();

  /// True once any write failed (EPIPE/ECONNRESET/timeout).
  bool client_disconnected() const { return disconnected_; }

  /// \brief Actively probes the socket between writes: a half-closed or
  /// reset peer flips client_disconnected() without waiting for the next
  /// write to fail. Cheap (non-blocking MSG_PEEK); call between SSE events.
  bool CheckClientAlive();

  /// Status code sent (for the server's response-class counters).
  int sent_status() const { return sent_status_; }
  bool response_started() const { return response_started_; }

  /// \brief Wraps an arbitrary connected socket — the regression seam for
  /// the write-path tests (socketpair partners dribbling 1-byte reads,
  /// peers closed mid-write). Production writers are built by HttpServer.
  static ResponseWriter ForSocket(int fd, bool head_request = false) {
    return ResponseWriter(fd, head_request);
  }

 private:
  friend class HttpServer;
  ResponseWriter(int fd, bool head_request)
      : fd_(fd), head_request_(head_request) {}

  bool WriteAll(std::string_view data);

  int fd_;
  bool head_request_;  ///< HEAD: send headers, suppress bodies
  bool disconnected_ = false;
  bool response_started_ = false;
  bool chunked_ = false;
  int sent_status_ = 0;
};

using HttpHandler = std::function<void(const HttpRequest&, ResponseWriter&)>;

class HttpServer {
 public:
  explicit HttpServer(const HttpServerOptions& options);
  ~HttpServer();  ///< calls Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for GET/HEAD requests to exactly `path`.
  /// Must be called before Start.
  void Handle(std::string path, HttpHandler handler);

  /// Binds, listens and spawns the accept thread. Fails (kUnavailable) when
  /// the socket cannot be created/bound.
  Status Start();

  /// Shuts down: aborts admission waiters, closes the listener and every
  /// connection socket, joins all threads. Idempotent.
  void Stop();

  /// The bound port (after Start) — the ephemeral port when options.port
  /// was 0.
  uint16_t port() const { return port_; }

  AdmissionController& admission() { return admission_; }
  HttpServerStats Stats() const;

  /// Stream-lifecycle counters, bumped by the SSE handler (the server
  /// cannot see inside a chunked response).
  void RecordSseOpened();
  void RecordSseDisconnect();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  /// Joins finished connection threads (called opportunistically).
  void ReapConnectionsLocked();

  HttpServerOptions options_;
  AdmissionController admission_;
  std::map<std::string, HttpHandler> routes_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;

  mutable std::mutex stats_mu_;
  HttpServerStats stats_;
};

}  // namespace extract

#endif  // EXTRACT_HTTP_HTTP_SERVER_H_
