#include "net/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/serve.hpp"
#include "obs/log.hpp"
#include "obs/memtrack.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/tracer.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/reqobs.hpp"
#include "util/strings.hpp"

namespace nw::net {

namespace {

/// Telemetry series, in ring order. Counters stay cumulative (consumers
/// difference them for trends); gauges/quantiles are instantaneous.
constexpr const char* kSeriesNames[] = {
    "queue_depth",     "active",          "accepted",        "handled",
    "shed",            "inflight",        "waiting",         "analyze_ewma_ms",
    "analyze_p50_ms",  "analyze_p95_ms",  "rss_mb",          "session_cache_bytes",
    "journal_bytes",   "tracked_mb",
};

std::vector<std::string> series_names() {
  return {std::begin(kSeriesNames), std::end(kSeriesNames)};
}

/// Sub-windows of the rotating analyze-latency quantile. One rotation per
/// sampler tick, so the horizon is kLatencyWindows x sample_interval
/// (~10 s at the 250 ms default) — "p95 lately", not "p95 since boot".
constexpr std::size_t kLatencyWindows = 40;

std::string overloaded_response(const session::Json& id, const std::string& message,
                                int retry_after_ms) {
  session::Json err = session::Json::object();
  err.set("code", "overloaded");
  err.set("message", message);
  err.set("retry_after_ms", retry_after_ms);
  session::Json resp = session::Json::object();
  resp.set("id", id);
  resp.set("ok", false);
  resp.set("error", std::move(err));
  return resp.dump();
}

}  // namespace

/// One live client connection: socket stream, its serving loop (bounded
/// request queue + reader helper), and the worker thread that runs it.
/// Owned by the accept thread (conns_).
struct Daemon::Connection {
  Connection(std::uint64_t cid, int fd, int recv_timeout_ms, std::size_t max_queued,
             std::atomic<std::int64_t>& global_depth, obs::Gauge& depth_gauge)
      : id(cid),
        stream(fd, recv_timeout_ms),
        server(stream, stream, max_queued, &global_depth, &depth_gauge) {}

  std::uint64_t id;
  SocketStream stream;
  StreamServer server;
  std::thread worker;
  std::atomic<bool> done{false};

  // `watch` streamer state. Started/stopped only from the worker thread
  // (the dispatching thread) and the worker's teardown, so start/stop
  // never race each other; the mutex/cv just wake the streamer.
  std::thread watcher;
  std::mutex watch_mu;
  std::condition_variable watch_cv;
  bool watch_stop = false;
  int watch_period_ms = 0;
  std::uint64_t watch_seq = 0;
};

Daemon::Daemon(DaemonConfig config, std::shared_ptr<const Design> design,
               std::shared_ptr<const para::Parasitics> parasitics)
    : cfg_(std::move(config)),
      design_(std::move(design)),
      para_(std::move(parasitics)),
      governor_(LoadGovernor::Config{cfg_.analysis_slots, cfg_.max_waiters, 50.0},
                reg_),
      analyze_window_({1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000},
                      kLatencyWindows),
      ring_(series_names(), cfg_.sample_capacity),
      accepted_(reg_.counter(kMetricAccepted, "connections accepted",
                             /*deterministic=*/false)),
      rejected_(reg_.counter(kMetricRejected, "connections rejected at the cap",
                             /*deterministic=*/false)),
      idle_closed_(reg_.counter(kMetricIdleClosed, "connections closed for idleness",
                                /*deterministic=*/false)),
      handled_(reg_.counter(kMetricHandled, "requests answered across connections",
                            /*deterministic=*/false)),
      queue_rejected_(reg_.counter(kMetricQueueRejected,
                                   "requests shed at a full per-connection queue",
                                   /*deterministic=*/false)),
      shed_(reg_.counter(LoadGovernor::kMetricShed, "requests shed with 'overloaded'",
                         /*deterministic=*/false)),
      active_g_(reg_.gauge(kMetricActive, "connections being served now", "",
                           /*deterministic=*/false)),
      queue_depth_g_(reg_.gauge(kMetricQueueDepth,
                                "request lines queued across connections", "",
                                /*deterministic=*/false)),
      prewarm_ms_g_(reg_.gauge(kMetricPrewarmMs, "startup seed analysis wall time",
                               "ms", /*deterministic=*/false)) {
  if (design_ == nullptr || para_ == nullptr) {
    throw std::invalid_argument("Daemon: design/parasitics must not be null");
  }
  if (cfg_.max_connections < 1) cfg_.max_connections = 1;
  if (cfg_.min_watch_period_ms < 1) cfg_.min_watch_period_ms = 1;
  governor_.set_latency_window(&analyze_window_);
  if (cfg_.sample_interval_ms > 0) {
    sampler_ = std::make_unique<obs::Sampler>(
        ring_, [this] { return sample_now(); }, cfg_.sample_interval_ms);
  }
}

Daemon::~Daemon() {
  if (started_) stop();
}

void Daemon::start() {
  if (started_) throw std::logic_error("Daemon::start() called twice");
  listener_.open(cfg_.listen);
  // Prewarm: one full analysis on the shared base, exported as the seed
  // every connection adopts — connect→query is then a cache hit, never a
  // per-connection full analyze.
  const auto t0 = std::chrono::steady_clock::now();
  {
    session::Session prewarm(design_, para_, cfg_.session);
    seed_ = prewarm.export_seed();
  }
  prewarm_ms_g_.set(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  started_ = true;
  start_tp_ = std::chrono::steady_clock::now();
  if (sampler_) sampler_->start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Daemon::stop() {
  request_drain();
  wait();
}

void Daemon::accept_loop() {
  obs::Tracer::set_thread_name("daemon-accept");
  while (!draining()) {
    int fd = -1;
    try {
      fd = listener_.accept(/*timeout_ms=*/100);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "noisewin daemon: accept failed: %s\n", e.what());
      break;
    }
    reap_finished(/*join_all=*/false);
    if (fd < 0) continue;
    if (static_cast<int>(conns_.size()) >= cfg_.max_connections) {
      reject_connection(fd);
      continue;
    }
    accepted_.add();
    active_g_.set(static_cast<double>(active_.fetch_add(1) + 1));
    const int timeout_ms = cfg_.idle_timeout_s > 0 ? cfg_.idle_timeout_s * 1000 : 0;
    auto conn = std::make_unique<Connection>(next_conn_id_++, fd, timeout_ms,
                                             cfg_.max_queued, queue_depth_,
                                             queue_depth_g_);
    Connection* c = conn.get();
    c->worker = std::thread([this, c] { serve_connection(*c); });
    conns_.push_back(std::move(conn));
  }
  // Drain: stop listening (unlinks a unix socket), wake every blocked
  // reader via socket shutdown, then let workers finish what is queued.
  listener_.close();
  for (const auto& c : conns_) c->stream.shutdown_both();
  reap_finished(/*join_all=*/true);
  // Sampler stops last so the drain itself lands in the timeseries.
  if (sampler_) sampler_->stop();
}

void Daemon::serve_connection(Connection& conn) {
  const std::string name = "conn-" + std::to_string(conn.id);
  obs::Tracer::set_thread_name(name);
  obs::profile_set_thread_name(name);
  obs::set_log_connection(conn.id);
  try {
    session::Session session(design_, para_, cfg_.session);
    if (!session.adopt_seed(seed_)) {
      std::fprintf(stderr, "noisewin daemon: connection %llu could not adopt seed\n",
                   static_cast<unsigned long long>(conn.id));
    }
    session::RequestContext reqobs(session.registry(), cfg_.slow_ms);
    // Correlation + aggregation: slowlog entries carry this connection's
    // id, and latency observations mirror into the daemon registry so the
    // `stats` command sees fleet-wide request_ms_* histograms.
    reqobs.set_connection(conn.id);
    reqobs.set_aggregate(&reg_);
    session::Protocol proto(session, &reqobs);
    session::ServerCaps caps;
    caps.transport = bound_endpoint().kind == Endpoint::Kind::kUnix ? "unix" : "tcp";
    caps.daemon = true;
    caps.connection_id = conn.id;
    caps.max_queued = cfg_.max_queued;
    caps.max_connections = cfg_.max_connections;
    caps.analysis_slots = cfg_.analysis_slots;
    caps.idle_timeout_s = cfg_.idle_timeout_s;
    proto.set_caps(std::move(caps));
    proto.set_gate(&governor_);
    proto.set_shutdown_handler([this] {
      request_drain();
      session::Json o = session::Json::object();
      o.set("draining", true);
      return o;
    });
    proto.set_stats_augmenter(
        [this](const session::Json& args) { return stats_sections(args); });
    proto.set_watch_handler([this, &conn](const session::Json& args) {
      return watch_command(conn, args);
    });
    conn.server.serve(
        session, proto, cfg_.progress_events,
        [this](const session::Json& id, std::size_t depth) {
          queue_rejected_.add();
          shed_.add();
          const int retry = static_cast<int>(std::max(
              1.0, std::ceil(governor_.ewma_ms() * static_cast<double>(depth + 1))));
          return overloaded_response(id,
                                     "request queue full (" + std::to_string(depth) +
                                         " queued, cap " +
                                         std::to_string(cfg_.max_queued) + ")",
                                     retry);
        },
        &handled_);
    if (conn.stream.timed_out()) idle_closed_.add();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "noisewin daemon: connection %llu failed: %s\n",
                 static_cast<unsigned long long>(conn.id), e.what());
  }
  // Teardown order: stop any watch streamer first (it writes to the
  // stream), then close both directions so the peer sees EOF now.
  stop_watch(conn);
  conn.stream.shutdown_both();
  active_g_.set(static_cast<double>(active_.fetch_sub(1) - 1));
  conn.done.store(true, std::memory_order_release);
}

void Daemon::reap_finished(bool join_all) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = **it;
    if (!join_all && !c.done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (c.worker.joinable()) c.worker.join();
    it = conns_.erase(it);
  }
}

void Daemon::reject_connection(int fd) {
  rejected_.add();
  // One structured error line, then close — a client sees why instead of a
  // silent RST. The stream dtor closes the fd.
  SocketStream s(fd);
  const int retry = static_cast<int>(std::max(1.0, std::ceil(governor_.ewma_ms())));
  s << overloaded_response(session::Json{},
                           "connection limit (" + std::to_string(cfg_.max_connections) +
                               ") reached",
                           retry)
    << '\n';
  s.flush();
}

session::Json Daemon::daemon_section() const {
  session::Json o = session::Json::object();
  o.set("accepted", static_cast<double>(accepted_.value()));
  o.set("active", active_.load());
  o.set("rejected", static_cast<double>(rejected_.value()));
  o.set("idle_closed", static_cast<double>(idle_closed_.value()));
  o.set("handled", static_cast<double>(handled_.value()));
  o.set("shed", static_cast<double>(shed_.value()));
  o.set("queue_rejected", static_cast<double>(queue_rejected_.value()));
  o.set("queue_depth", static_cast<double>(queue_depth_.load()));
  o.set("analyze_ewma_ms", governor_.ewma_ms());
  o.set("max_connections", cfg_.max_connections);
  o.set("analysis_slots", cfg_.analysis_slots);
  o.set("max_queued", cfg_.max_queued);
  return o;
}

std::string Daemon::stats_section_json() const { return daemon_section().dump(); }

std::string Daemon::timeseries_section_json(std::size_t last_n) const {
  return ring_.snapshot(last_n).json();
}

obs::TimeSeriesSnapshot Daemon::timeseries_snapshot(std::size_t last_n) const {
  return ring_.snapshot(last_n);
}

std::vector<double> Daemon::sample_now() {
  // Read-only against serving state: the determinism property (analysis
  // results identical with sampling on/off) depends on it.
  const obs::ResourceSample rss = obs::sample_resources();
  const double queue_depth = static_cast<double>(queue_depth_.load());
  const double active = active_.load();
  const double inflight = governor_.inflight();
  std::vector<double> v;
  v.reserve(std::size(kSeriesNames));
  v.push_back(queue_depth);
  v.push_back(active);
  v.push_back(static_cast<double>(accepted_.value()));
  v.push_back(static_cast<double>(handled_.value()));
  v.push_back(static_cast<double>(shed_.value()));
  v.push_back(inflight);
  v.push_back(governor_.waiting());
  v.push_back(governor_.ewma_ms());
  v.push_back(analyze_window_.quantile(0.5));
  v.push_back(analyze_window_.quantile(0.95));
  v.push_back(static_cast<double>(rss.rss_bytes) / (1024.0 * 1024.0));
  // Tracked-heap series: the session accounts aggregate every live
  // connection's cache/journal footprint; tracked_mb sums all accounts.
  const double cache_bytes = static_cast<double>(
      obs::MemTracker::account(obs::MemAccountId::kSessionCache).current());
  const double journal_bytes = static_cast<double>(
      obs::MemTracker::account(obs::MemAccountId::kUndoJournal).current());
  const double tracked_bytes = static_cast<double>(obs::MemTracker::total_current());
  v.push_back(cache_bytes);
  v.push_back(journal_bytes);
  v.push_back(tracked_bytes / (1024.0 * 1024.0));
  analyze_window_.rotate();
  if (obs::trace_enabled()) {
    obs::Tracer::counter("queue_depth", queue_depth);
    obs::Tracer::counter("active_connections", active);
    obs::Tracer::counter("analyses_inflight", inflight);
    obs::Tracer::counter("tracked_bytes", tracked_bytes);
    obs::Tracer::counter("session_cache_bytes", cache_bytes);
    obs::Tracer::counter("journal_bytes", journal_bytes);
  }
  return v;
}

session::Json Daemon::live_json() {
  // One fresh sample keyed by series name (not recorded into the ring —
  // the sampler owns the ring's cadence; watch events are per-client).
  const obs::ResourceSample rss = obs::sample_resources();
  session::Json o = session::Json::object();
  o.set("queue_depth", static_cast<double>(queue_depth_.load()));
  o.set("active", active_.load());
  o.set("accepted", static_cast<double>(accepted_.value()));
  o.set("handled", static_cast<double>(handled_.value()));
  o.set("shed", static_cast<double>(shed_.value()));
  o.set("inflight", governor_.inflight());
  o.set("waiting", governor_.waiting());
  o.set("analyze_ewma_ms", governor_.ewma_ms());
  o.set("analyze_p50_ms", analyze_window_.quantile(0.5));
  o.set("analyze_p95_ms", analyze_window_.quantile(0.95));
  o.set("rss_mb", static_cast<double>(rss.rss_bytes) / (1024.0 * 1024.0));
  o.set("session_cache_bytes",
        static_cast<double>(
            obs::MemTracker::account(obs::MemAccountId::kSessionCache).current()));
  o.set("journal_bytes",
        static_cast<double>(
            obs::MemTracker::account(obs::MemAccountId::kUndoJournal).current()));
  o.set("tracked_mb",
        static_cast<double>(obs::MemTracker::total_current()) / (1024.0 * 1024.0));
  return o;
}

session::Json Daemon::stats_sections(const session::Json& args) {
  // Last-N samples on demand: {"samples": N} (default 60, clamped to the
  // ring bound; 0 = just the section metadata).
  std::size_t samples = 60;
  if (const session::Json* n = args.find("samples")) {
    const std::optional<std::size_t> count =
        n->is_number() ? nw::to_count(n->as_number()) : std::nullopt;
    if (!count) throw std::invalid_argument("'samples' must be a non-negative integer");
    samples = *count;
  }
  samples = std::min(samples, ring_.capacity());
  session::Json o = session::Json::object();
  o.set("daemon", daemon_section());
  std::string err;
  std::optional<session::Json> ts = session::json_parse(
      samples == 0 ? ring_.snapshot(1).json() : ring_.snapshot(samples).json(),
      &err);
  if (samples == 0 && ts) {
    // Metadata only: strip the samples array down to empty.
    session::Json meta = session::Json::object();
    for (const auto& [k, v] : ts->members()) {
      if (k == "samples") continue;
      meta.set(k, v);
    }
    meta.set("samples", session::Json::array());
    ts = std::move(meta);
  }
  o.set("timeseries", ts ? std::move(*ts) : session::Json::object());
  // Fleet-wide per-command latency (aggregated request_ms_* histograms
  // mirrored by every connection's RequestContext).
  session::Json latency = session::Json::object();
  const std::string prefix = session::RequestContext::kLatencyPrefix;
  for (const obs::MetricSample& s : reg_.snapshot().samples) {
    if (s.kind != obs::MetricSample::Kind::kHistogram) continue;
    if (s.name.rfind(prefix, 0) != 0) continue;
    session::Json h = session::Json::object();
    h.set("count", static_cast<double>(s.hist.count));
    h.set("p50", obs::histogram_quantile(s.hist, 0.5));
    h.set("p95", obs::histogram_quantile(s.hist, 0.95));
    h.set("p99", obs::histogram_quantile(s.hist, 0.99));
    h.set("max", s.hist.max);
    latency.set(s.name.substr(prefix.size()), std::move(h));
  }
  o.set("latency", std::move(latency));
  // Live per-account heap breakdown — the same section shape the stats
  // JSON carries, so nwtop renders identical data online and offline.
  std::ostringstream mem;
  obs::write_memory_json(mem);
  std::optional<session::Json> mj = session::json_parse(mem.str());
  o.set("memory", mj ? std::move(*mj) : session::Json::object());
  return o;
}

session::Json Daemon::watch_command(Connection& conn, const session::Json& args) {
  std::string action = "start";
  if (const session::Json* a = args.find("action")) {
    if (!a->is_string()) {
      throw std::invalid_argument("'action' must be a string");
    }
    action = a->as_string();
  }
  int period_ms = 500;
  if (const session::Json* p = args.find("period_ms")) {
    if (!p->is_number() || p->as_number() < 1 || p->as_number() > 60000) {
      throw std::invalid_argument("'period_ms' must be a number in [1, 60000]");
    }
    period_ms = static_cast<int>(p->as_number());
  }
  // Per-connection rate cap: a client asking for a 1 ms firehose gets the
  // daemon's floor instead (reported back, not errored — the client can
  // see what it actually subscribed to).
  period_ms = std::max(period_ms, cfg_.min_watch_period_ms);
  if (action == "start") {
    start_watch(conn, period_ms);
  } else if (action == "stop") {
    stop_watch(conn);
  } else {
    throw std::invalid_argument("'action' must be start|stop");
  }
  session::Json o = session::Json::object();
  o.set("watching", conn.watcher.joinable());
  o.set("period_ms", action == "start" ? period_ms : 0);
  o.set("min_period_ms", cfg_.min_watch_period_ms);
  return o;
}

void Daemon::start_watch(Connection& conn, int period_ms) {
  stop_watch(conn);  // restart replaces the previous subscription
  conn.watch_stop = false;
  conn.watch_period_ms = period_ms;
  conn.watch_seq = 0;
  conn.watcher = std::thread([this, &conn] { watch_loop(conn); });
}

void Daemon::stop_watch(Connection& conn) {
  if (!conn.watcher.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(conn.watch_mu);
    conn.watch_stop = true;
  }
  conn.watch_cv.notify_all();
  conn.watcher.join();
}

void Daemon::watch_loop(Connection& conn) {
  obs::Tracer::set_thread_name("conn-" + std::to_string(conn.id) + "-watch");
  obs::set_log_connection(conn.id);
  std::unique_lock<std::mutex> lock(conn.watch_mu);
  while (!conn.watch_stop) {
    if (conn.watch_cv.wait_for(lock,
                               std::chrono::milliseconds(conn.watch_period_ms),
                               [&] { return conn.watch_stop; })) {
      return;
    }
    const std::uint64_t seq = conn.watch_seq++;
    lock.unlock();
    session::Json ev = session::Json::object();
    ev.set("event", "stats");
    ev.set("seq", static_cast<double>(seq));
    ev.set("t_ms", std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_tp_)
                       .count());
    ev.set("daemon", live_json());
    conn.server.write_line(ev.dump());
    const bool dead = !conn.stream;  // peer gone: stop streaming quietly
    lock.lock();
    if (dead) return;
  }
}

obs::RunMeta Daemon::meta() const {
  obs::RunMeta m;
  m.design = design_->name();
  m.mode = noise::to_string(cfg_.session.noise.mode);
  m.model = noise::to_string(cfg_.session.noise.model);
  m.options_digest = noise::options_digest(cfg_.session.noise);
  m.build = obs::build_version();
  if (seed_.result) {
    m.threads = seed_.result->run_meta.threads;
    m.iterations = seed_.result->run_meta.iterations;
  } else {
    m.threads = cfg_.session.noise.threads;
    m.iterations = 0;
  }
  return m;
}

std::uint64_t Daemon::connections_accepted() const noexcept {
  return accepted_.value();
}
std::uint64_t Daemon::connections_rejected() const noexcept {
  return rejected_.value();
}
std::uint64_t Daemon::requests_handled() const noexcept { return handled_.value(); }
std::uint64_t Daemon::requests_shed() const noexcept { return shed_.value(); }

}  // namespace nw::net
