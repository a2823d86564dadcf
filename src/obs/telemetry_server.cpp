#include "obs/telemetry_server.hpp"

// The status snapshot is pushed by the queue thread and served by the
// accept thread; every touch goes through mu_. The accept thread's set of
// servers is changed by their owners and read by the thread; every touch
// goes through set_mu_ (clip-analyze L1 enforces the write side of both).
// clip-lint: guards(mu_: snapshot_)
// clip-lint: guards(set_mu_: servers_, next_id_, serving_)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace clip::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;
constexpr std::size_t kMaxResponseBytes = 8u << 20;

/// Bounded receive/send deadlines so a stalled peer cannot wedge the
/// accept thread. A plain socket option, not a clock read.
void set_io_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

std::string http_response(int code, std::string_view reason,
                          std::string_view content_type,
                          const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << code << ' ' << reason << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

/// `key` from a query string "a=1&b=2"; nullopt when absent.
std::optional<std::string> query_param(std::string_view query,
                                       std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    auto amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(pos, amp - pos);
    const auto eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key)
      return std::string(pair.substr(eq + 1));
    pos = amp + 1;
  }
  return std::nullopt;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// The accept thread every TelemetryServer in the process shares. A server
/// adds its non-blocking listening socket when it is constructed and
/// removes it in stop(); the thread waits in epoll_wait(2) over all of them
/// and handles one connection at a time. Adding and removing only edit the
/// epoll set, so neither wakes the thread. One thread per server cost
/// more to spawn and join than a 100-job queue run spends on everything
/// else the live plane does (bench/obs_overhead).
class AcceptThread {
 public:
  using Handler = std::function<void(int)>;

  /// Built with the first server; joined when static objects are
  /// destroyed at exit.
  static AcceptThread& instance() {
    static AcceptThread thread;
    return thread;
  }

  AcceptThread(const AcceptThread&) = delete;
  AcceptThread& operator=(const AcceptThread&) = delete;

  ~AcceptThread() {
    const std::uint64_t one = 1;
    (void)::write(wake_fd_, &one, sizeof one);
    thread_.join();
    (void)::close(wake_fd_);
    (void)::close(epoll_fd_);
  }

  /// Serve connections on `listen_fd` with `handler` until remove(id).
  std::uint64_t add(int listen_fd, Handler handler) {
    const std::lock_guard<std::mutex> lock(set_mu_);
    const std::uint64_t id = next_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    CLIP_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &ev) == 0,
                 "telemetry server: epoll_ctl(ADD) failed");
    servers_.emplace(id, Server{listen_fd, std::move(handler)});
    return id;
  }

  /// Stop serving registration `id`. On return no connection of it is
  /// being handled, so its owner may close the socket and go away.
  void remove(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(set_mu_);
    const auto it = servers_.find(id);
    if (it == servers_.end()) return;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.listen_fd,
                      nullptr);
    servers_.erase(it);
    idle_.wait(lock, [&] { return serving_ != id; });
  }

 private:
  struct Server {
    int listen_fd;
    Handler handler;
  };
  /// Not a registration (ids start at 1): tags the wake eventfd in the
  /// epoll set, and is serving_ while no connection is being handled.
  static constexpr std::uint64_t kNone = 0;

  AcceptThread()
      : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
        wake_fd_(::eventfd(0, EFD_CLOEXEC)) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kNone;
    if (epoll_fd_ < 0 || wake_fd_ < 0 ||
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      if (epoll_fd_ >= 0) (void)::close(epoll_fd_);
      if (wake_fd_ >= 0) (void)::close(wake_fd_);
      CLIP_REQUIRE(false, "telemetry server: cannot start the accept thread");
    }
    thread_ = std::thread([this] { serve(); });
  }

  void serve() {
    epoll_event events[16];
    for (;;) {
      const int n = ::epoll_wait(epoll_fd_, events, 16, -1);
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = events[i].data.u64;
        if (id == kNone) return;  // the destructor's wake
        Handler handler;
        int fd = -1;
        {
          const std::lock_guard<std::mutex> lock(set_mu_);
          // A server removed after the wait returned is skipped by id.
          const auto it = servers_.find(id);
          if (it == servers_.end()) continue;
          // Linux does not pass O_NONBLOCK on to the accepted socket: the
          // connection blocks, bounded by its receive/send timeouts.
          fd = ::accept(it->second.listen_fd, nullptr, nullptr);
          if (fd < 0) continue;  // the peer gave up first (EAGAIN), EINTR
          handler = it->second.handler;
          serving_ = id;
        }
        handler(fd);
        (void)::close(fd);
        {
          const std::lock_guard<std::mutex> lock(set_mu_);
          serving_ = kNone;
        }
        idle_.notify_all();
      }
    }
  }

  const int epoll_fd_;
  const int wake_fd_;  ///< written once, by the destructor
  std::mutex set_mu_;
  std::condition_variable idle_;  ///< signalled when serving_ clears
  std::map<std::uint64_t, Server> servers_;
  std::uint64_t next_id_{1};
  std::uint64_t serving_{kNone};  ///< registration being handled, if any
  std::thread thread_;
};

}  // namespace

std::string StatusSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"now_s\":" << format_exact(now_s)
      << ",\"queue_depth\":" << queue_depth
      << ",\"running_jobs\":" << running_jobs
      << ",\"free_watts\":" << format_exact(free_watts) << ",\"mode\":\""
      << json_escape(mode) << "\",\"journal_seq\":" << journal_seq
      << ",\"jobs_completed\":" << jobs_completed
      << ",\"jobs_failed\":" << jobs_failed
      << ",\"run_active\":" << (run_active ? "true" : "false") << "}\n";
  return out.str();
}

TelemetryServer::TelemetryServer(TelemetryServerOptions options)
    : options_(options) {
  CLIP_REQUIRE(options_.port >= 0 && options_.port <= 65535,
               "telemetry port out of range: " +
                   std::to_string(options_.port));
  // Non-blocking, so a connection the peer drops between the accept
  // thread's wakeup and its accept() cannot park that thread.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  CLIP_REQUIRE(listen_fd_ >= 0, "telemetry server: socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    CLIP_REQUIRE(false, "telemetry server: cannot bind 127.0.0.1:" +
                            std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  CLIP_REQUIRE(::getsockname(listen_fd_,
                             reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "telemetry server: getsockname() failed");
  port_ = static_cast<int>(ntohs(bound.sin_port));

  registration_ = AcceptThread::instance().add(
      listen_fd_, [this](int fd) { handle_connection(fd); });
  running_.store(true, std::memory_order_release);
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  AcceptThread::instance().remove(registration_);
  (void)::close(listen_fd_);
  listen_fd_ = -1;
}

void TelemetryServer::publish(const StatusSnapshot& snapshot) {
  const std::lock_guard<std::mutex> lock(mu_);
  snapshot_ = snapshot;
}

void TelemetryServer::handle_connection(int fd) {
  set_io_timeouts(fd);
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const auto line_end = request.find('\n');
  if (line_end == std::string::npos) return;
  std::istringstream line(request.substr(0, line_end));
  std::string method;
  std::string target;
  line >> method >> target;
  if (method != "GET" || target.empty()) {
    send_all(fd, http_response(400, "Bad Request", "text/plain",
                               "only GET is supported\n"));
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string response;
  try {
    response = respond(target);
  } catch (const std::exception& e) {
    // Runs on the accept thread every server shares: a failed render
    // answers 500 instead of ending the process.
    response = http_response(500, "Internal Server Error", "text/plain",
                             std::string(e.what()) + "\n");
  }
  send_all(fd, response);
}

std::string TelemetryServer::respond(const std::string& target) const {
  std::string path = target;
  std::string query;
  if (const auto q = target.find('?'); q != std::string::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }

  if (path == "/metrics") {
    const std::string body =
        options_.metrics != nullptr ? options_.metrics->render_prometheus()
                                    : std::string();
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8", body);
  }

  if (path == "/healthz") {
    StatusSnapshot snap;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      snap = snapshot_;
    }
    if (snap.mode == "NORMAL")
      return http_response(200, "OK", "text/plain",
                           "ok mode=NORMAL\n");
    return http_response(503, "Service Unavailable", "text/plain",
                         "degraded mode=" + snap.mode + "\n");
  }

  if (path == "/status") {
    StatusSnapshot snap;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      snap = snapshot_;
    }
    return http_response(200, "OK", "application/json", snap.to_json());
  }

  if (path == "/timeline") {
    const std::string series = query_param(query, "series").value_or("");
    // `n`, when given, is a whole positive integer.
    const std::optional<std::string> n = query_param(query, "n");
    const std::optional<std::size_t> n_value =
        n ? parse_whole<std::size_t>(*n) : std::nullopt;
    if (series.empty() || (n && n_value.value_or(0) == 0))
      return http_response(400, "Bad Request", "text/plain",
                           "usage: /timeline?series=<name>[&n=<tail>]\n");
    const std::size_t tail = n ? *n_value : kTimelineTail;
    std::ostringstream body;
    if (options_.timeline != nullptr) {
      auto samples = options_.timeline->samples(series);
      if (samples.size() > tail)
        samples.erase(samples.begin(),
                      samples.end() - static_cast<std::ptrdiff_t>(tail));
      for (const auto& p : samples)
        body << "{\"kind\":\"sample\",\"series\":\"" << json_escape(series)
             << "\",\"t_s\":" << format_exact(p.t_s)
             << ",\"value\":" << format_exact(p.value) << "}\n";
      auto events = options_.timeline->events(series);
      if (events.size() > tail)
        events.erase(events.begin(),
                     events.end() - static_cast<std::ptrdiff_t>(tail));
      for (const auto& e : events)
        body << "{\"kind\":\"event\",\"series\":\"" << json_escape(series)
             << "\",\"t_s\":" << format_exact(e.t_s) << ",\"label\":\""
             << json_escape(e.label) << "\"}\n";
    }
    return http_response(200, "OK", "application/x-ndjson", body.str());
  }

  return http_response(404, "Not Found", "text/plain",
                       "unknown endpoint; try /metrics /healthz /status "
                       "/timeline?series=<name>\n");
}

std::string http_get(const std::string& host, int port,
                     const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLIP_REQUIRE(fd >= 0, "http_get: socket() failed");
  set_io_timeouts(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    CLIP_REQUIRE(false, "http_get: bad host '" + host +
                            "' (use a dotted quad or localhost)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    CLIP_REQUIRE(false, "http_get: cannot connect to " + ip + ":" +
                            std::to_string(port));
  }
  const std::string request = "GET " + target +
                              " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  send_all(fd, request);

  std::string response;
  char buf[4096];
  while (response.size() < kMaxResponseBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  if (const auto p = response.find("\r\n\r\n"); p != std::string::npos)
    return response.substr(p + 4);
  if (const auto p = response.find("\n\n"); p != std::string::npos)
    return response.substr(p + 2);
  return response;
}

}  // namespace clip::obs
