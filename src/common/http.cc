#include "common/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/faults.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ddgms {

namespace {

/// Hex digit value; -1 for non-hex.
int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Percent-decodes `in` ('+' becomes space — query-string semantics).
std::string PercentDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size() &&
               HexValue(in[i + 1]) >= 0 && HexValue(in[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexValue(in[i + 1]) * 16 +
                                      HexValue(in[i + 2])));
      i += 2;
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

/// Reads from `fd` until the full head (+ Content-Length body) is in,
/// `max_bytes` is exceeded, or the peer closes. The single
/// fault-injection point covers every read failure shape.
Status ReadRequestBytes(int fd, size_t max_bytes, std::string* out) {
  DDGMS_FAULT_POINT("server.read");
  out->clear();
  char buf[4096];
  size_t body_expected = std::string::npos;  // npos until head complete
  size_t head_end = std::string::npos;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::DataLoss(StrFormat("recv failed: %s",
                                        std::strerror(errno)));
    }
    if (n == 0) {
      if (out->empty()) {
        return Status::DataLoss("connection closed before request");
      }
      return Status::OK();  // peer half-closed after sending
    }
    out->append(buf, static_cast<size_t>(n));
    if (out->size() > max_bytes) {
      return Status::OutOfRange("request exceeds max_request_bytes");
    }
    if (head_end == std::string::npos) {
      head_end = out->find("\r\n\r\n");
      if (head_end == std::string::npos) continue;
      // Head complete: how much body is promised?
      body_expected = 0;
      const std::string head = ToLower(out->substr(0, head_end));
      const size_t cl = head.find("content-length:");
      if (cl != std::string::npos) {
        auto len = ParseInt64(
            Trim(head.substr(cl + 15, head.find('\n', cl) - cl - 15)));
        if (len.ok() && *len >= 0) {
          body_expected = static_cast<size_t>(*len);
        }
      }
    }
    if (head_end != std::string::npos &&
        out->size() >= head_end + 4 + body_expected) {
      return Status::OK();
    }
  }
}

/// Writes all of `data` (looping over partial sends). SIGPIPE is
/// avoided with MSG_NOSIGNAL; a gone peer surfaces as DataLoss.
Status WriteAll(int fd, const std::string& data) {
  DDGMS_FAULT_POINT("server.write");
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::DataLoss(StrFormat("send failed: %s",
                                        std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

std::string HttpRequest::QueryParam(const std::string& name,
                                    const std::string& fallback) const {
  auto it = query.find(name);
  return it == query.end() ? fallback : it->second;
}

HttpResponse HttpResponse::Text(std::string body, int status) {
  return HttpResponse{status, "text/plain; charset=utf-8",
                      std::move(body)};
}

HttpResponse HttpResponse::Html(std::string body, int status) {
  return HttpResponse{status, "text/html; charset=utf-8",
                      std::move(body)};
}

HttpResponse HttpResponse::Json(std::string body, int status) {
  return HttpResponse{status, "application/json", std::move(body)};
}

HttpResponse HttpResponse::NotFound(const std::string& path) {
  return Text("not found: " + path + "\n", 404);
}

HttpResponse HttpResponse::MethodNotAllowed(const std::string& method) {
  return Text("method not allowed: " + method + "\n", 405);
}

HttpResponse HttpResponse::BadRequest(const std::string& why) {
  return Text("bad request: " + why + "\n", 400);
}

HttpResponse HttpResponse::InternalError(const std::string& why) {
  return Text("internal error: " + why + "\n", 500);
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

Result<HttpRequest> ParseHttpRequest(const std::string& raw) {
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::ParseError("truncated request head");
  }
  const std::vector<std::string> lines =
      Split(raw.substr(0, head_end), '\n');
  if (lines.empty()) return Status::ParseError("empty request");

  HttpRequest request;
  {
    // "GET /path?query HTTP/1.1"
    const std::vector<std::string> parts =
        Split(std::string(Trim(lines[0])), ' ');
    if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) {
      return Status::ParseError("malformed request line");
    }
    request.method = parts[0];
    request.target = parts[1];
    const size_t q = parts[1].find('?');
    request.path = PercentDecode(parts[1].substr(0, q));
    if (q != std::string::npos) {
      for (const std::string& pair :
           Split(parts[1].substr(q + 1), '&')) {
        if (pair.empty()) continue;
        const size_t eq = pair.find('=');
        request.query[PercentDecode(pair.substr(0, eq))] =
            eq == std::string::npos ? ""
                                    : PercentDecode(pair.substr(eq + 1));
      }
    }
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("malformed header line");
    }
    request.headers[ToLower(Trim(line.substr(0, colon)))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  request.body = raw.substr(head_end + 4);
  return request;
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              HttpReasonPhrase(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_pending < 1) options_.max_pending = 1;
}

HttpServer::~HttpServer() { Stop().IgnoreError(); }

void HttpServer::Handle(const std::string& method,
                        const std::string& path, Handler handler) {
  MutexLock lock(mu_);
  routes_.push_back({method, path, std::move(handler)});
}

std::vector<std::string> HttpServer::RoutePaths() const {
  MutexLock lock(mu_);
  std::vector<std::string> paths;
  for (const Route& route : routes_) {
    if (paths.empty() || paths.back() != route.path) {
      paths.push_back(route.path);
    }
  }
  return paths;
}

Status HttpServer::Start() {
  {
    MutexLock lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("server already running");
    }
    stopping_ = false;
    frozen_routes_ = routes_;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket failed: %s",
                                      std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::Internal(
        StrFormat("bind %s:%d failed: %s", options_.bind_address.c_str(),
                  options_.port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    const Status status = Status::Internal(
        StrFormat("listen failed: %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  }

  listen_fd_ = fd;
  {
    MutexLock lock(mu_);
    running_ = true;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  DDGMS_LOG_INFO("server.start")
      .With("address", options_.bind_address)
      .With("port", port())
      .With("workers", options_.num_workers);
  return Status::OK();
}

Status HttpServer::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) {
      return Status::FailedPrecondition("server not running");
    }
    stopping_ = true;
  }
  // Unblock accept(); workers wake via the condvar.
  ::shutdown(listen_fd_, SHUT_RDWR);
  pending_cv_.NotifyAll();
  accept_thread_.join();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    MutexLock lock(mu_);
    // Connections accepted but never served: close them politely.
    while (!pending_.empty()) {
      ::close(pending_.front());
      pending_.pop_front();
    }
    running_ = false;
  }
  DDGMS_LOG_INFO("server.stop").With("port", port());
  port_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

bool HttpServer::running() const {
  MutexLock lock(mu_);
  return running_;
}

void HttpServer::AcceptLoop() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    {
      MutexLock lock(mu_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      DDGMS_METRIC_INC("ddgms.server.errors");
      DDGMS_LOG_WARN("server.accept_error")
          .With("errno", std::strerror(errno));
      return;  // listener is gone; Stop() will join us
    }
    // Fault point: a simulated accept-path failure drops the freshly
    // accepted connection (the client sees a reset) but the listener
    // must keep serving subsequent ones.
    if (FaultRegistry::Global().enabled()) {
      const Status fault =
          FaultRegistry::Global().OnHit("server.accept");
      if (!fault.ok()) {
        ::close(fd);
        DDGMS_METRIC_INC("ddgms.server.errors");
        continue;
      }
    }
    if (options_.read_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.read_timeout_ms / 1000;
      tv.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    bool rejected = false;
    {
      MutexLock lock(mu_);
      if (pending_.size() >= options_.max_pending) {
        rejected = true;
      } else {
        pending_.push_back(fd);
      }
    }
    if (rejected) {
      // Shed load without tying up a worker.
      WriteAll(fd, SerializeHttpResponse(HttpResponse::Text(
                       "server overloaded\n", 503)))
          .IgnoreError();
      ::close(fd);
      DDGMS_METRIC_INC("ddgms.server.rejected");
      continue;
    }
    pending_cv_.NotifyOne();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(mu_);
      while (pending_.empty() && !stopping_) pending_cv_.Wait(mu_);
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else {
        return;  // stopping and drained
      }
    }
    const Status status = ServeConnection(fd);
    if (!status.ok()) {
      DDGMS_METRIC_INC("ddgms.server.errors");
      DDGMS_LOG_DEBUG("server.connection_error")
          .With("status", status.ToString());
    }
  }
}

namespace {

/// RAII +1/-1 on the active-connections gauge (multiple workers serve
/// concurrently, so Set() would clobber).
class ScopedConnectionGauge {
 public:
  ScopedConnectionGauge() {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Global()
          .GetGauge("ddgms.server.connections_active")
          .Add(1.0);
    }
  }
  ~ScopedConnectionGauge() {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Global()
          .GetGauge("ddgms.server.connections_active")
          .Add(-1.0);
    }
  }
};

}  // namespace

Status HttpServer::ServeConnection(int fd) {
  ScopedConnectionGauge active;
  std::string raw;
  Status status = ReadRequestBytes(fd, options_.max_request_bytes, &raw);
  if (!status.ok()) {
    if (status.IsOutOfRange()) {
      WriteAll(fd, SerializeHttpResponse(HttpResponse::Text(
                       "payload too large\n", 413)))
          .IgnoreError();
    }
    ::close(fd);
    return status;
  }

  TraceSpan span("server.request", "ddgms.server.request_latency_us");
  DDGMS_METRIC_INC("ddgms.server.requests");

  HttpResponse response;
  Result<HttpRequest> request = ParseHttpRequest(raw);
  if (request.ok()) {
    span.SetAttribute("method", request->method);
    span.SetAttribute("path", request->path);
    response = Dispatch(*request);
  } else {
    response = HttpResponse::BadRequest(request.status().message());
  }
  span.SetAttribute("status", response.status);
  if (response.status >= 400) {
    DDGMS_METRIC_INC("ddgms.server.responses_error");
  }
  DDGMS_LOG_DEBUG("server.request")
      .With("path", request.ok() ? request->path : std::string("?"))
      .With("status", response.status);

  status = WriteAll(fd, SerializeHttpResponse(response));
  ::close(fd);
  return status;
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) const {
  bool path_known = false;
  for (const Route& route : frozen_routes_) {
    if (route.path != request.path) continue;
    path_known = true;
    if (route.method == request.method) {
      return route.handler(request);
    }
    // HEAD piggybacks on GET handlers; the body is sent regardless
    // (acceptable for an introspection server).
    if (request.method == "HEAD" && route.method == "GET") {
      return route.handler(request);
    }
  }
  return path_known ? HttpResponse::MethodNotAllowed(request.method)
                    : HttpResponse::NotFound(request.path);
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& target, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket failed: %s",
                                      std::strerror(errno)));
  }
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const Status status = Status::DataLoss(StrFormat(
        "connect %s:%d failed: %s", host.c_str(), port,
        std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  Status status = WriteAll(fd, request);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::DataLoss(StrFormat("recv failed: %s",
                                          std::strerror(errno)));
      break;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (!status.ok()) return status;
  if (response.empty()) {
    return Status::DataLoss("connection closed without a response");
  }
  return response;
}

Result<std::pair<int, std::string>> ParseHttpResponse(
    const std::string& raw) {
  if (!StartsWith(raw, "HTTP/")) {
    return Status::ParseError("not an HTTP response");
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos) {
    return Status::ParseError("malformed status line");
  }
  DDGMS_ASSIGN_OR_RETURN(int64_t code,
                         ParseInt64(raw.substr(sp + 1, 3)));
  const size_t head_end = raw.find("\r\n\r\n");
  std::string body =
      head_end == std::string::npos ? "" : raw.substr(head_end + 4);
  return std::make_pair(static_cast<int>(code), std::move(body));
}

}  // namespace ddgms
