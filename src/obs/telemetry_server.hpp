// Embeddable telemetry endpoint for a running coordinator.
//
// The server is strictly a *reader*: the event loop publishes immutable
// StatusSnapshot copies into it, and the HTTP thread renders those copies
// plus lock-protected snapshots of the MetricsRegistry / Timeline it was
// handed. Nothing on the serving path can mutate scheduler state, so a run
// with a server attached stays byte-identical to a detached run (the same
// contract the flight recorder and the journal follow; `telemetry_port`
// defaults to off).
//
// Endpoints (HTTP/1.0, one request per connection):
//   /metrics              Prometheus text exposition (render_prometheus)
//   /healthz              200 "ok" in NORMAL mode, 503 when degraded
//   /status               JSON: queue depth, running jobs, free watts,
//                         current mode, journal seq, sim time, job counts
//   /timeline?series=S    JSONL tail of one flight-recorder series
//                         (&n=K caps the tail length)
//
// Plain sockets, no wall-clock reads (clip-lint D1 clean). One accept
// thread serves every server in the process: it starts with the first
// server, waits in epoll_wait(2) over each live server's listening socket
// and handles one connection at a time. A server joins that set when it is
// constructed and leaves it in stop(), so a short run pays for a socket,
// not for a thread. Per-connection receive/send timeouts are plain socket
// options.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace clip::obs {

/// Point-in-time view of the coordinator, published by the event loop at
/// each scheduling pass. Copied wholesale under the server's mutex — the
/// HTTP thread never reads loop state directly.
struct StatusSnapshot {
  double now_s = 0.0;          ///< simulated seconds
  int queue_depth = 0;         ///< jobs waiting
  int running_jobs = 0;        ///< jobs currently placed
  double free_watts = 0.0;     ///< unallocated cluster budget
  std::string mode = "NORMAL";  ///< DegradedMode, to_string form
  std::uint64_t journal_seq = 0;  ///< last durable journal record
  int jobs_completed = 0;
  int jobs_failed = 0;
  bool run_active = false;  ///< true between run start and finalize

  [[nodiscard]] std::string to_json() const;
};

struct TelemetryServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// port() — this is what the integration tests use).
  int port = 0;
  /// Optional registry behind /metrics (render_prometheus snapshots under
  /// the registry's own mutex). May be null: /metrics serves empty.
  const MetricsRegistry* metrics = nullptr;
  /// Optional flight recorder behind /timeline. May be null.
  const Timeline* timeline = nullptr;
  /// Default cap on points returned by /timeline (override per request
  /// with ?n=K).
  std::size_t timeline_tail = 256;
};

class TelemetryServer {
 public:
  /// Binds and starts serving immediately. Throws PreconditionError when
  /// the port cannot be bound.
  explicit TelemetryServer(TelemetryServerOptions options);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  [[nodiscard]] int port() const { return port_; }

  /// Publish a fresh status snapshot (loop thread; cheap copy under mutex).
  void publish(const StatusSnapshot& snapshot);

  /// Stop serving: once this returns no request of this server is in
  /// flight and the port is closed. Idempotent; the destructor calls it.
  void stop();

  /// Request router, exposed so tests can exercise every endpoint without
  /// a socket. `target` is the request path plus optional query string;
  /// returns the full HTTP response (status line, headers, body).
  [[nodiscard]] std::string respond(const std::string& target) const;

  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void handle_connection(int fd);

  TelemetryServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::uint64_t registration_ = 0;  ///< this server's id in the accept set
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex mu_;
  StatusSnapshot snapshot_;
};

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1 (`host` accepts a
/// dotted quad or "localhost"). Returns the full response text (headers +
/// body); throws PreconditionError when the connection fails. Used by
/// `clipctl top`, the endpoint integration tests and bench/obs_overhead.
[[nodiscard]] std::string http_get(const std::string& host, int port,
                                   const std::string& target);

/// The body part of an HTTP response returned by http_get (everything
/// after the first blank line; the whole input when no header break is
/// found).
[[nodiscard]] std::string http_body(const std::string& response);

}  // namespace clip::obs
