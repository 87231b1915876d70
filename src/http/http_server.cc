#include "http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/fault.h"
#include "http/json.h"

namespace extract {

namespace {

/// Blocking send of the whole buffer with SIGPIPE suppressed. Loops on
/// short writes (a partial send just advances the cursor). Failure
/// taxonomy, audited per errno:
///   * EINTR — retry immediately, no state lost.
///   * ENOBUFS/ENOMEM — transient kernel memory pressure, not a dead
///     peer: back off briefly and retry a bounded number of times before
///     giving up (returning false would wrongly mark the client gone).
///   * EAGAIN/EWOULDBLOCK — the SO_SNDTIMEO write budget expired with the
///     peer not draining (stalled SSE reader): treat as disconnected.
///   * EPIPE/ECONNRESET/anything else — the peer is gone.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  int transient_retries = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == ENOBUFS || errno == ENOMEM) && transient_retries < 8) {
        ++transient_retries;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 << transient_retries));
        continue;
      }
      return false;
    }
    if (n > 0) transient_retries = 0;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ResponseHead(int status, std::string_view content_type,
                         size_t content_length, bool chunked,
                         int retry_after_seconds) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     std::string(HttpReasonPhrase(status)) + "\r\n";
  head += "Content-Type: " + std::string(content_type) + "\r\n";
  if (chunked) {
    head += "Transfer-Encoding: chunked\r\n";
    head += "Cache-Control: no-store\r\n";
  } else {
    head += "Content-Length: " + std::to_string(content_length) + "\r\n";
  }
  if (retry_after_seconds > 0) {
    head += "Retry-After: " + std::to_string(retry_after_seconds) + "\r\n";
  }
  head += "Connection: close\r\n\r\n";
  return head;
}

}  // namespace

bool ResponseWriter::WriteAll(std::string_view data) {
  if (disconnected_) return false;
  // Simulated EPIPE: the injected write failure takes the exact sticky-
  // disconnect branch a real one would.
  if (EXTRACT_FAULT_FIRED("http.write") || !SendAll(fd_, data)) {
    disconnected_ = true;
    return false;
  }
  return true;
}

void ResponseWriter::SendResponse(int status, std::string_view content_type,
                                  std::string_view body) {
  if (response_started_) return;
  response_started_ = true;
  sent_status_ = status;
  std::string head = ResponseHead(status, content_type, body.size(),
                                  /*chunked=*/false, /*retry_after=*/0);
  if (!head_request_) head.append(body);
  WriteAll(head);
}

void ResponseWriter::SendJson(int status, std::string_view json_body,
                              int retry_after_seconds) {
  if (response_started_) return;
  response_started_ = true;
  sent_status_ = status;
  std::string head =
      ResponseHead(status, "application/json", json_body.size(),
                   /*chunked=*/false, retry_after_seconds);
  if (!head_request_) head.append(json_body);
  WriteAll(head);
}

void ResponseWriter::SendError(int http_status, const Status& status) {
  JsonBuilder json;
  json.BeginObject()
      .Key("status")
      .String(StatusCodeToString(status.ok() ? StatusCode::kInternal
                                             : status.code()))
      .Key("message")
      .String(status.message())
      .EndObject();
  SendJson(http_status, json.str(), http_status == 503 ? 1 : 0);
}

bool ResponseWriter::BeginChunked(int status, std::string_view content_type) {
  if (response_started_) return false;
  response_started_ = true;
  chunked_ = true;
  sent_status_ = status;
  return WriteAll(ResponseHead(status, content_type, 0, /*chunked=*/true,
                               /*retry_after=*/0));
}

bool ResponseWriter::WriteChunk(std::string_view data) {
  if (!chunked_ || data.empty() || head_request_) return !disconnected_;
  char size_line[32];
  int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  std::string frame;
  frame.reserve(static_cast<size_t>(n) + data.size() + 2);
  frame.append(size_line, static_cast<size_t>(n));
  frame.append(data);
  frame.append("\r\n");
  return WriteAll(frame);
}

bool ResponseWriter::EndChunked() {
  if (!chunked_ || head_request_) return !disconnected_;
  return WriteAll("0\r\n\r\n");
}

bool ResponseWriter::CheckClientAlive() {
  if (disconnected_) return false;
  char probe;
  ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) {
    // Orderly FIN: for a close-delimited GET exchange the client has no
    // reason to half-close early, so treat EOF as gone.
    disconnected_ = true;
  } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
             errno != EINTR) {
    disconnected_ = true;  // typically ECONNRESET
  }
  return !disconnected_;
}

HttpServer::HttpServer(const HttpServerOptions& options)
    : options_(options), admission_(options.admission) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, HttpHandler handler) {
  routes_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status =
        Status::Unavailable(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.listen_backlog) != 0) {
    Status status =
        Status::Unavailable(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status status = Status::Unavailable(std::string("getsockname: ") +
                                        std::strerror(errno));
    ::close(fd);
    return status;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) {
    // Never started (or already stopped): nothing to join.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  admission_.Shutdown();
  // shutdown() reliably unblocks the accept thread; close after the join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    // Unblock any recv/send; the fd stays open until after the join so the
    // number cannot be reused out from under the connection thread.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

void HttpServer::ReapConnectionsLocked() {
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->done.load(std::memory_order_acquire)) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      ::close(connections_[i]->fd);
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
    } else {
      ++i;
    }
  }
}

void HttpServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) break;
      continue;
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    // Simulated transient accept failure (EMFILE and friends): the socket
    // is dropped before any request is read; the client sees a clean EOF
    // and the accept loop keeps serving.
    if (EXTRACT_FAULT_FIRED("http.accept")) {
      ::close(fd);
      continue;
    }
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(options_.read_timeout.count() / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((options_.read_timeout.count() % 1000) *
                                 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    timeval wtv{};
    wtv.tv_sec = static_cast<time_t>(options_.write_timeout.count() / 1000);
    wtv.tv_usec =
        static_cast<suseconds_t>((options_.write_timeout.count() % 1000) *
                                 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &wtv, sizeof(wtv));
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapConnectionsLocked();
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    if (connections_.size() >= options_.max_connections) {
      // Shed at the socket layer: a canned 503 without spawning a thread.
      Status overloaded = Status::Unavailable("connection limit reached");
      JsonBuilder json;
      json.BeginObject()
          .Key("status")
          .String(StatusCodeToString(overloaded.code()))
          .Key("message")
          .String(overloaded.message())
          .EndObject();
      SendAll(fd, ResponseHead(503, "application/json", json.str().size(),
                               false, 1) +
                      json.str());
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.connections_rejected_capacity;
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { HandleConnection(raw); });
    connections_.push_back(std::move(conn));
  }
}

void HttpServer::HandleConnection(Connection* conn) {
  const int fd = conn->fd;
  HttpRequestParser parser(options_.parse_limits);
  char buf[4096];
  bool received_any = false;
  while (parser.state() == HttpRequestParser::State::kIncomplete &&
         running_.load()) {
    // Simulated hard read error (ECONNRESET mid-head): close without a
    // response, exactly like the n < 0 default branch below.
    if (EXTRACT_FAULT_FIRED("http.read")) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      received_any = true;
      parser.Consume(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Read timeout: answer slowloris-style dribble with 408, silent
      // never-wrote clients with a plain close.
      if (received_any) {
        ResponseWriter writer(fd, /*head_request=*/false);
        writer.SendError(408, Status::DeadlineExceeded(
                                  "timed out reading request head"));
      }
      break;
    }
    break;  // EOF or hard error before a full request
  }

  if (parser.state() == HttpRequestParser::State::kError) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.parse_errors;
      ++stats_.responses_4xx;
    }
    ResponseWriter writer(fd, /*head_request=*/false);
    writer.SendError(parser.http_status(), parser.error());
  } else if (parser.state() == HttpRequestParser::State::kDone) {
    const HttpRequest& request = parser.request();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests_parsed;
    }
    ResponseWriter writer(fd, request.method == "HEAD");
    if (request.method != "GET" && request.method != "HEAD") {
      writer.SendError(405, Status::InvalidArgument(
                                "method not allowed (GET/HEAD only)"));
    } else {
      auto route = routes_.find(request.path);
      if (route == routes_.end()) {
        writer.SendError(
            404, Status::NotFound("no handler for '" + request.path + "'"));
      } else {
        route->second(request, writer);
        if (!writer.response_started()) {
          writer.SendError(500,
                           Status::Internal("handler produced no response"));
        }
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    int status_class = writer.sent_status() / 100;
    if (status_class == 2) {
      ++stats_.responses_2xx;
    } else if (status_class == 4) {
      ++stats_.responses_4xx;
    } else if (status_class == 5) {
      ++stats_.responses_5xx;
    }
  }

  // Signal end-of-response to close-delimited clients; the fd itself is
  // closed by the reaper/Stop after this thread is joined.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

HttpServerStats HttpServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void HttpServer::RecordSseOpened() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sse_streams_opened;
}

void HttpServer::RecordSseDisconnect() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sse_client_disconnects;
}

}  // namespace extract
