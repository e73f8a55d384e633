// Multi-session network daemon: many concurrent JSONL clients over one
// shared, immutable design state.
//
// Threading model (one line per connection in a trace):
//   accept thread        poll-accept loop; reaps finished connections;
//                        owns drain (SIGTERM / `shutdown` command)
//   per-conn worker      Session (COW overlay over the shared base) +
//                        Protocol, served by StreamServer (net/serve.hpp):
//                        pops the queue, writes responses
//   per-conn reader      StreamServer's helper: getline → bounded request
//                        queue; full queue sheds with `overloaded` (cancel
//                        lines bypass the bound)
//   sampler thread       fixed-interval telemetry (obs/timeseries.hpp):
//                        reads daemon gauges into the bounded ring, rotates
//                        the analyze-latency window, emits trace counters
//   per-conn watcher     optional, started by the `watch` command: streams
//                        {"event":"stats",...} lines at a rate-capped period
//
// The design and parasitics load once; every connection's Session reads
// them through shared_ptr<const> and copies privately only on its first
// mutating edit (see Session's COW ctor). A prewarmed AnalysisSeed makes
// connect→query a cache hit — no per-connection full analysis.
//
// Admission control is layered: connection cap at accept, per-connection
// request-queue bound at the reader, and a LoadGovernor metering
// analysis-triggering commands across all connections. All three shed with
// structured `overloaded` errors carrying retry_after_ms — the daemon
// never stalls a well-behaved client behind a hostile one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/governor.hpp"
#include "net/socket.hpp"
#include "netlist/design.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "parasitics/rcnet.hpp"
#include "session/json.hpp"
#include "session/session.hpp"

namespace nw::net {

struct DaemonConfig {
  Endpoint listen;                ///< unix:<path> or tcp:<host>:<port>
  int max_connections = 32;       ///< concurrent clients before accept-shed
  std::size_t max_queued = 16;    ///< per-connection queued request lines
  int analysis_slots = 2;         ///< concurrent analyses (0 = shed all)
  int max_waiters = 8;            ///< admissions queued behind busy slots
  int idle_timeout_s = 300;       ///< silent-client disconnect (0 = never)
  double slow_ms = 100.0;         ///< per-connection slowlog threshold
  bool progress_events = true;    ///< stream progress event lines to clients
  int sample_interval_ms = 250;   ///< telemetry sampler period (0 = off)
  std::size_t sample_capacity = 512;  ///< timeseries ring bound (samples kept)
  int min_watch_period_ms = 50;   ///< per-connection `watch` rate cap (floor)
  session::SessionConfig session; ///< per-connection session settings
};

class Daemon {
 public:
  /// Shares ownership of the immutable base state with every connection.
  Daemon(DaemonConfig config, std::shared_ptr<const Design> design,
         std::shared_ptr<const para::Parasitics> parasitics);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen, prewarm the shared analysis seed (one full analysis),
  /// and launch the accept loop. Throws on bind/listen failure.
  void start();

  /// Ask the daemon to drain: stop accepting, let in-flight and queued
  /// requests finish, close connections. Async-signal-safe (only flips an
  /// atomic; the accept loop notices within its poll interval).
  void request_drain() noexcept { drain_.store(true, std::memory_order_relaxed); }

  /// Block until the accept loop has fully drained and every connection
  /// thread is joined.
  void wait();

  /// request_drain() + wait().
  void stop();

  [[nodiscard]] bool draining() const noexcept {
    return drain_.load(std::memory_order_relaxed);
  }

  /// Actual listen address (resolves tcp port 0). Valid after start().
  [[nodiscard]] const Endpoint& bound_endpoint() const noexcept {
    return listener_.bound_endpoint();
  }

  /// Daemon-level metrics (connection/shed counters, governor gauges).
  /// Per-connection engine metrics live in each connection's own session
  /// registry; this one aggregates the serving layer.
  [[nodiscard]] obs::Registry& registry() noexcept { return reg_; }

  /// The "daemon" extra section of the stats JSON (valid JSON object):
  /// connection counts, shed/queue-reject totals, queue depth, governor
  /// latency EWMA.
  [[nodiscard]] std::string stats_section_json() const;

  /// The "timeseries" extra section of the stats JSON (schema v4): the
  /// sampler's ring, last `last_n` samples (0 = everything retained).
  [[nodiscard]] std::string timeseries_section_json(std::size_t last_n = 0) const;

  /// Snapshot of the telemetry ring (tests + the live stats/watch paths).
  [[nodiscard]] obs::TimeSeriesSnapshot timeseries_snapshot(
      std::size_t last_n = 0) const;

  /// Identity block for the stats export (design/options of the shared base).
  [[nodiscard]] obs::RunMeta meta() const;

  // Convenience totals (tests + exit summary).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept;
  [[nodiscard]] std::uint64_t connections_rejected() const noexcept;
  [[nodiscard]] std::uint64_t requests_handled() const noexcept;
  [[nodiscard]] std::uint64_t requests_shed() const noexcept;

  // Metric names (daemon registry; "daemon" stats section).
  static constexpr const char* kMetricAccepted = "daemon_connections_accepted";
  static constexpr const char* kMetricActive = "daemon_connections_active";
  static constexpr const char* kMetricRejected = "daemon_connections_rejected";
  static constexpr const char* kMetricIdleClosed = "daemon_connections_idle_closed";
  static constexpr const char* kMetricHandled = "daemon_requests_handled";
  static constexpr const char* kMetricQueueRejected = "daemon_queue_rejected";
  static constexpr const char* kMetricQueueDepth = "daemon_queue_depth";
  static constexpr const char* kMetricPrewarmMs = "daemon_prewarm_ms";

 private:
  struct Connection;

  void accept_loop();
  void serve_connection(Connection& conn);
  void reap_finished(bool join_all);
  void reject_connection(int fd);

  /// One telemetry sample (sampler thread): reads every live gauge, feeds
  /// the ring, rotates the latency window, emits trace counter events.
  [[nodiscard]] std::vector<double> sample_now();
  /// Current live gauges as an object keyed by series name (watch events).
  [[nodiscard]] session::Json live_json();
  /// The "daemon" section as a Json value (stats_section_json dumps it).
  [[nodiscard]] session::Json daemon_section() const;
  /// The `stats` command's daemon-side sections ("daemon", "timeseries",
  /// "latency"), merged into the response by the protocol's augmenter.
  [[nodiscard]] session::Json stats_sections(const session::Json& args);
  /// The `watch` command: subscribe/unsubscribe this connection's streamer.
  [[nodiscard]] session::Json watch_command(Connection& conn,
                                            const session::Json& args);
  void start_watch(Connection& conn, int period_ms);
  void stop_watch(Connection& conn);
  void watch_loop(Connection& conn);

  DaemonConfig cfg_;
  std::shared_ptr<const Design> design_;
  std::shared_ptr<const para::Parasitics> para_;
  session::AnalysisSeed seed_;

  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> drain_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point start_tp_{};  ///< watch t_ms epoch

  std::vector<std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<int> active_{0};
  std::atomic<std::int64_t> queue_depth_{0};

  obs::Registry reg_;
  LoadGovernor governor_;
  obs::RotatingQuantile analyze_window_;  ///< fed by the governor's release
  obs::TimeSeriesRing ring_;
  std::unique_ptr<obs::Sampler> sampler_;
  obs::Counter& accepted_;
  obs::Counter& rejected_;
  obs::Counter& idle_closed_;
  obs::Counter& handled_;
  obs::Counter& queue_rejected_;
  obs::Counter& shed_;  ///< same metric LoadGovernor bumps (shared by name)
  obs::Gauge& active_g_;
  obs::Gauge& queue_depth_g_;
  obs::Gauge& prewarm_ms_g_;
};

}  // namespace nw::net
