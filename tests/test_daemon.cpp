// The network daemon: endpoint parsing, shared-base copy-on-write
// sessions, seeded connections, concurrent clients bit-identical to the
// stdio server, admission control / load shedding, and graceful drain.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/bus.hpp"
#include "library/library.hpp"
#include "net/daemon.hpp"
#include "net/governor.hpp"
#include "net/serve.hpp"
#include "net/socket.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/session.hpp"

namespace nw::net {
namespace {

gen::BusConfig bus_config() {
  gen::BusConfig cfg;
  cfg.bits = 8;
  cfg.segments = 2;
  return cfg;
}

const lib::Library& library() {
  static const lib::Library lib = lib::default_library();
  return lib;
}

session::SessionConfig session_config(const gen::Generated& g) {
  session::SessionConfig sc;
  sc.sta = g.sta_options;
  sc.noise.clock_period = g.sta_options.clock_period;
  return sc;
}

/// Shared immutable base state for daemon tests.
struct Base {
  std::shared_ptr<const Design> design;
  std::shared_ptr<const para::Parasitics> para;
  session::SessionConfig session;
};

Base make_base() {
  gen::Generated g = gen::make_bus(library(), bus_config());
  Base b;
  b.session = session_config(g);
  b.design = std::make_shared<const Design>(std::move(g.design));
  b.para = std::make_shared<const para::Parasitics>(std::move(g.para));
  return b;
}

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> seq{0};
  return "/tmp/nw_daemon_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(seq.fetch_add(1)) + ".sock";
}

DaemonConfig daemon_config(const Base& base, const std::string& sock) {
  DaemonConfig cfg;
  cfg.listen = parse_endpoint("unix:" + sock);
  cfg.session = base.session;
  cfg.progress_events = false;  // tests that want events flip this back on
  return cfg;
}

/// Minimal JSONL client: one socket, send a line, read non-event lines.
class Client {
 public:
  explicit Client(const Endpoint& ep) : stream_(connect_endpoint(ep)) {}

  /// One request → one response line (progress events skipped).
  std::string request(const std::string& line) {
    stream_ << line << '\n';
    stream_.flush();
    return next_response();
  }

  void send(const std::string& line) {
    stream_ << line << '\n';
    stream_.flush();
  }

  /// Next non-event line; empty string on EOF.
  std::string next_response() {
    std::string line;
    while (std::getline(stream_, line)) {
      if (line.find("\"event\":") != std::string::npos) continue;
      return line;
    }
    return "";
  }

  /// Next line of any kind (events included); empty on EOF.
  std::string next_line() {
    std::string line;
    if (std::getline(stream_, line)) return line;
    return "";
  }

  SocketStream& stream() { return stream_; }

 private:
  SocketStream stream_;
};

session::Json parse(const std::string& line) {
  std::string err;
  const std::optional<session::Json> j = session::json_parse(line, &err);
  EXPECT_TRUE(j.has_value()) << err << " in: " << line;
  return j.has_value() ? *j : session::Json{};
}

std::string error_code(const session::Json& resp) {
  const session::Json* e = resp.find("error");
  if (e == nullptr) return "";
  const session::Json* c = e->find("code");
  return c != nullptr && c->is_string() ? c->as_string() : "";
}

bool is_ok(const session::Json& resp) {
  const session::Json* ok = resp.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

// ---- endpoint parsing -------------------------------------------------------

TEST(Endpoint, ParsesAndRoundTrips) {
  const Endpoint u = parse_endpoint("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");

  const Endpoint t = parse_endpoint("tcp:127.0.0.1:9191");
  EXPECT_EQ(t.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9191);
  EXPECT_EQ(t.to_string(), "tcp:127.0.0.1:9191");

  EXPECT_EQ(parse_endpoint("tcp:localhost:0").port, 0);

  EXPECT_THROW((void)parse_endpoint("unix:"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("tcp:127.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("tcp:host:notaport"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("tcp:host:70000"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("http://x"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint(""), std::invalid_argument);
}

TEST(Endpoint, TcpEphemeralPortResolvesAfterListen) {
  Listener l;
  l.open(parse_endpoint("tcp:127.0.0.1:0"));
  EXPECT_TRUE(l.is_open());
  EXPECT_GT(l.bound_endpoint().port, 0);
  l.close();
  EXPECT_FALSE(l.is_open());
}

// ---- copy-on-write session sharing -----------------------------------------

TEST(SessionCow, SharedSessionsDivergeOnlyOnEdit) {
  const Base base = make_base();
  session::Session a(base.design, base.para, base.session);
  session::Session b(base.design, base.para, base.session);
  EXPECT_TRUE(a.shares_base());
  EXPECT_TRUE(b.shares_base());
  EXPECT_EQ(&a.design(), base.design.get());
  EXPECT_EQ(&a.design(), &b.design());

  a.scale_net_parasitics("w1", 2.0, 1.0);
  EXPECT_FALSE(a.shares_base());    // a copied its parasitics privately
  EXPECT_TRUE(b.shares_base());     // b still reads the shared base
  EXPECT_EQ(&a.design(), base.design.get());  // design half untouched
  EXPECT_NE(&a.parasitics(), base.para.get());
  EXPECT_EQ(&b.parasitics(), base.para.get());
  const obs::MetricsSnapshot snap = a.metrics_snapshot();
  const obs::MetricSample* cow = snap.find(session::Session::kMetricCowCopies);
  ASSERT_NE(cow, nullptr);
  EXPECT_EQ(cow->count, 1u);

  // The edit is invisible to b: its analysis matches a fresh private run.
  gen::Generated fresh = gen::make_bus(library(), bus_config());
  session::Session ref(std::move(fresh.design), std::move(fresh.para),
                       session_config(fresh));
  EXPECT_EQ(b.result().endpoint_slacks, ref.result().endpoint_slacks);
}

TEST(SessionCow, AdoptSeedOnlyWhenPristineAndDigestMatches) {
  const Base base = make_base();
  session::Session warm(base.design, base.para, base.session);
  const session::AnalysisSeed seed = warm.export_seed();
  ASSERT_NE(seed.result, nullptr);

  session::Session fresh(base.design, base.para, base.session);
  EXPECT_TRUE(fresh.adopt_seed(seed));
  EXPECT_EQ(fresh.full_analyses(), 0u);
  // The adopted result IS the seed's (shared, not recomputed).
  EXPECT_EQ(&fresh.result(), seed.result.get());

  // Re-adoption, post-edit adoption, and digest-mismatch adoption refuse.
  EXPECT_FALSE(fresh.adopt_seed(seed));
  session::Session edited(base.design, base.para, base.session);
  edited.scale_net_parasitics("w1", 1.5, 1.0);
  EXPECT_FALSE(edited.adopt_seed(seed));
  session::SessionConfig other = base.session;
  other.noise.refine_iterations = 1;
  session::Session mismatched(base.design, base.para, other);
  EXPECT_FALSE(mismatched.adopt_seed(seed));
}

// ---- load governor ----------------------------------------------------------

TEST(Governor, ShedsDeterministicallyPastSlotsAndWaiters) {
  obs::Registry reg;
  LoadGovernor gov(LoadGovernor::Config{1, 0, 40.0}, reg);
  const auto t1 = gov.admit("violations");
  EXPECT_TRUE(t1.admitted);
  // Slot busy, zero waiters allowed: immediate structured shed.
  const auto t2 = gov.admit("violations");
  EXPECT_FALSE(t2.admitted);
  EXPECT_GE(t2.retry_after_ms, 1);
  EXPECT_FALSE(t2.reason.empty());
  gov.release(10.0);
  EXPECT_TRUE(gov.admit("violations").admitted);
  gov.release(10.0);
  EXPECT_LT(gov.ewma_ms(), 40.0);  // EWMA moved toward the observed 10ms
}

TEST(Governor, MaintenanceModeShedsEverything) {
  obs::Registry reg;
  LoadGovernor gov(LoadGovernor::Config{0, 8, 40.0}, reg);
  const auto t = gov.admit("violations");
  EXPECT_FALSE(t.admitted);
  EXPECT_GE(t.retry_after_ms, 1);
}

// ---- daemon end-to-end ------------------------------------------------------

TEST(Daemon, HelloAdvertisesTransportAndLimits) {
  const Base base = make_base();
  const std::string sock = unique_socket_path("hello");
  DaemonConfig cfg = daemon_config(base, sock);
  cfg.max_connections = 5;
  cfg.max_queued = 7;
  cfg.analysis_slots = 3;
  cfg.idle_timeout_s = 11;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    const session::Json resp = parse(c.request("{\"id\":1,\"cmd\":\"hello\"}"));
    ASSERT_TRUE(is_ok(resp));
    const session::Json& data = *resp.find("data");
    EXPECT_EQ(data.find("transport")->as_string(), "unix");
    EXPECT_TRUE(data.find("daemon")->as_bool());
    EXPECT_EQ(data.find("connection")->as_number(), 1.0);
    const session::Json* limits = data.find("limits");
    ASSERT_NE(limits, nullptr);
    EXPECT_EQ(limits->find("max_queued")->as_number(), 7.0);
    EXPECT_EQ(limits->find("max_connections")->as_number(), 5.0);
    EXPECT_EQ(limits->find("analysis_slots")->as_number(), 3.0);
    EXPECT_EQ(limits->find("idle_timeout_s")->as_number(), 11.0);
    EXPECT_EQ(data.find("protocol")->as_number(), 1.0);
  }
  d.stop();
}

TEST(Daemon, SeededConnectionNeverRunsAFullAnalysis) {
  const Base base = make_base();
  Daemon d(daemon_config(base, unique_socket_path("seed")), base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    ASSERT_TRUE(is_ok(parse(c.request("{\"id\":1,\"cmd\":\"violations\"}"))));
    const session::Json stats = parse(c.request("{\"id\":2,\"cmd\":\"stats\"}"));
    ASSERT_TRUE(is_ok(stats));
    const session::Json* counters = stats.find("data")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("session_full_analyses")->as_number(), 0.0);
    EXPECT_EQ(counters->find("session_incremental_analyses")->as_number(), 0.0);
  }
  d.stop();
}

/// The per-client conversation compared against the stdio reference. Net
/// k gives every client a distinct edit target.
std::vector<std::string> scenario(int k) {
  const std::string net = "w" + std::to_string(k);
  return {
      "{\"id\":1,\"cmd\":\"violations\",\"args\":{\"limit\":5}}",
      "{\"id\":2,\"cmd\":\"scale_net_parasitics\",\"args\":{\"net\":\"" + net +
          "\",\"cap_factor\":1.25,\"res_factor\":1.1}}",
      "{\"id\":3,\"cmd\":\"violations\",\"args\":{\"limit\":5}}",
      "{\"id\":4,\"cmd\":\"net_noise\",\"args\":{\"net\":\"" + net + "\"}}",
      "{\"id\":5,\"cmd\":\"undo\"}",
      "{\"id\":6,\"cmd\":\"violations\",\"args\":{\"limit\":5}}",
      "{\"id\":7,\"cmd\":\"slack\",\"args\":{\"limit\":4}}",
  };
}

TEST(Daemon, EightConcurrentClientsBitIdenticalToStdioServe) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("concurrent"));
  cfg.analysis_slots = 2;  // real contention across the 8 clients
  Daemon d(cfg, base.design, base.para);
  d.start();

  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> got(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        Client c(d.bound_endpoint());
        for (const std::string& line : scenario(k)) {
          got[k].push_back(c.request(line));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  d.stop();

  // Reference: the same scenarios through the stdio `serve` entry on a
  // private value-owned Session.
  for (int k = 0; k < kClients; ++k) {
    gen::Generated g = gen::make_bus(library(), bus_config());
    session::Session ref(std::move(g.design), std::move(g.para), session_config(g));
    session::Protocol proto(ref);
    std::string script;
    for (const std::string& line : scenario(k)) script += line + "\n";
    std::istringstream in(script);
    std::ostringstream out;
    ASSERT_EQ(StreamServer(in, out).serve(ref, proto, false), scenario(k).size());
    std::vector<std::string> want;
    std::istringstream split(out.str());
    for (std::string line; std::getline(split, line);) want.push_back(line);
    ASSERT_EQ(got[k].size(), want.size()) << "client " << k;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[k][i], want[i]) << "client " << k << " line " << i;
    }
  }
  EXPECT_EQ(d.connections_accepted(), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(d.connections_rejected(), 0u);
}

TEST(Daemon, MaintenanceModeShedsAnalysesButServesCheapCommands) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("shed"));
  cfg.analysis_slots = 0;  // maintenance: shed every analysis
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    // hello and stats never analyze: served even in maintenance mode.
    EXPECT_TRUE(is_ok(parse(c.request("{\"id\":1,\"cmd\":\"hello\"}"))));
    // The seed covers epoch 0, so the first query is a cache hit — free.
    EXPECT_TRUE(is_ok(parse(c.request("{\"id\":2,\"cmd\":\"violations\"}"))));
    // An edit moves the epoch; the re-query now needs analysis → shed.
    EXPECT_TRUE(is_ok(parse(c.request(
        "{\"id\":3,\"cmd\":\"scale_net_parasitics\",\"args\":{\"net\":\"w1\","
        "\"cap_factor\":2.0,\"res_factor\":1.0}}"))));
    const session::Json resp = parse(c.request("{\"id\":4,\"cmd\":\"violations\"}"));
    EXPECT_FALSE(is_ok(resp));
    EXPECT_EQ(error_code(resp), "overloaded");
    const session::Json* retry = resp.find("error")->find("retry_after_ms");
    ASSERT_NE(retry, nullptr);
    EXPECT_GE(retry->as_number(), 1.0);
  }
  EXPECT_GE(d.requests_shed(), 1u);
  d.stop();
}

TEST(Daemon, ConnectionCapRejectsWithStructuredError) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("cap"));
  cfg.max_connections = 1;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client first(d.bound_endpoint());
    ASSERT_TRUE(is_ok(parse(first.request("{\"id\":1,\"cmd\":\"hello\"}"))));
    // Second client: accepted at the socket, then shed with one error line —
    // the reject happens at accept, before any request is read (a send here
    // could race the server's close and poison the stream with EPIPE before
    // the buffered error line is read).
    Client second(d.bound_endpoint());
    const std::string line = second.next_response();
    ASSERT_FALSE(line.empty());
    const session::Json resp = parse(line);
    EXPECT_FALSE(is_ok(resp));
    EXPECT_EQ(error_code(resp), "overloaded");
    EXPECT_NE(resp.find("error")->find("retry_after_ms"), nullptr);
    EXPECT_EQ(second.next_response(), "");  // then EOF
  }
  EXPECT_EQ(d.connections_rejected(), 1u);
  d.stop();
}

TEST(Daemon, BurstNeverHangsOneResponsePerRequest) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("burst"));
  cfg.max_queued = 2;
  cfg.analysis_slots = 1;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    // Edit so every query needs a fresh analysis, then burst-pipeline: the
    // worker is busy analyzing while the reader sheds past the queue bound.
    ASSERT_TRUE(is_ok(parse(c.request(
        "{\"id\":0,\"cmd\":\"scale_net_parasitics\",\"args\":{\"net\":\"w2\","
        "\"cap_factor\":1.5,\"res_factor\":1.0}}"))));
    constexpr int kBurst = 12;
    std::string burst;
    for (int i = 1; i <= kBurst; ++i) {
      burst += "{\"id\":" + std::to_string(i) + ",\"cmd\":\"violations\"}\n";
    }
    c.stream() << burst;
    c.stream().flush();
    int ok = 0;
    int overloaded = 0;
    for (int i = 0; i < kBurst; ++i) {
      const std::string line = c.next_response();
      ASSERT_FALSE(line.empty()) << "hung after " << i << " responses";
      const session::Json resp = parse(line);
      if (is_ok(resp)) {
        ++ok;
      } else {
        ASSERT_EQ(error_code(resp), "overloaded") << line;
        ++overloaded;
      }
    }
    EXPECT_EQ(ok + overloaded, kBurst);
    EXPECT_GE(ok, 1);  // the in-flight analysis and queued requests complete
  }
  d.stop();
}

TEST(Daemon, CancelFromOneClientNeverTouchesAnother) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("cancel"));
  cfg.progress_events = true;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client a(d.bound_endpoint());
    Client b(d.bound_endpoint());
    // A dirties its session then pipelines analyze + cancel in one write;
    // whether the cancel lands mid-analyze (cancelled error + out-of-band
    // ack) or after (cancelled:false), every response is well-formed.
    ASSERT_TRUE(is_ok(parse(a.request(
        "{\"id\":1,\"cmd\":\"scale_net_parasitics\",\"args\":{\"net\":\"w3\","
        "\"cap_factor\":1.4,\"res_factor\":1.0}}"))));
    a.send("{\"id\":2,\"cmd\":\"violations\"}\n{\"id\":3,\"cmd\":\"cancel\"}");
    bool saw_id2 = false;
    bool saw_id3 = false;
    while (!(saw_id2 && saw_id3)) {
      const std::string line = a.next_response();
      ASSERT_FALSE(line.empty());
      const session::Json resp = parse(line);
      const session::Json* id = resp.find("id");
      ASSERT_NE(id, nullptr) << line;
      if (id->is_number() && id->as_number() == 2.0) {
        saw_id2 = true;
        if (!is_ok(resp)) {
          EXPECT_EQ(error_code(resp), "cancelled") << line;
        }
      } else if (id->is_number() && id->as_number() == 3.0) {
        saw_id3 = true;
        EXPECT_TRUE(is_ok(resp)) << line;
      }
    }
    // B's session is a different Session object entirely: its analyses run
    // to completion regardless of A's cancel, bit-identical to a private run.
    const session::Json bresp = parse(b.request("{\"id\":9,\"cmd\":\"violations\"}"));
    EXPECT_TRUE(is_ok(bresp));
    // A's session survived: post-cancel queries still work (epoch intact).
    const session::Json aresp =
        parse(a.request("{\"id\":4,\"cmd\":\"stats\"}"));
    ASSERT_TRUE(is_ok(aresp));
    EXPECT_EQ(aresp.find("data")->find("epoch")->as_number(), 1.0);
  }
  d.stop();
}

TEST(Daemon, ShutdownCommandDrainsCleanly) {
  const Base base = make_base();
  const std::string sock = unique_socket_path("drain");
  Daemon d(daemon_config(base, sock), base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    ASSERT_TRUE(is_ok(parse(c.request("{\"id\":1,\"cmd\":\"violations\"}"))));
    const session::Json resp = parse(c.request("{\"id\":2,\"cmd\":\"shutdown\"}"));
    ASSERT_TRUE(is_ok(resp));
    EXPECT_TRUE(resp.find("data")->find("draining")->as_bool());
    EXPECT_EQ(c.next_response(), "");  // connection wound down
  }
  d.wait();  // returns: the daemon drained itself
  EXPECT_TRUE(d.draining());
  // The unix socket file is gone; reconnecting fails.
  EXPECT_THROW((void)connect_endpoint(parse_endpoint("unix:" + sock)),
               std::runtime_error);
}

TEST(Daemon, StdioServeHasNoShutdownCommand) {
  gen::Generated g = gen::make_bus(library(), bus_config());
  session::Session s(std::move(g.design), std::move(g.para), session_config(g));
  session::Protocol p(s);
  const session::Json resp = parse(p.handle_line("{\"id\":1,\"cmd\":\"shutdown\"}"));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_EQ(error_code(resp), "unknown_cmd");
}

TEST(Daemon, StatsSectionCarriesServingCounters) {
  const Base base = make_base();
  Daemon d(daemon_config(base, unique_socket_path("stats")), base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    ASSERT_TRUE(is_ok(parse(c.request("{\"id\":1,\"cmd\":\"violations\"}"))));
  }
  d.stop();
  const session::Json stats = parse(d.stats_section_json());
  ASSERT_TRUE(stats.is_object());
  EXPECT_EQ(stats.find("accepted")->as_number(), 1.0);
  EXPECT_EQ(stats.find("active")->as_number(), 0.0);
  EXPECT_EQ(stats.find("rejected")->as_number(), 0.0);
  EXPECT_GE(stats.find("handled")->as_number(), 1.0);
  EXPECT_EQ(stats.find("queue_depth")->as_number(), 0.0);
  ASSERT_NE(stats.find("shed"), nullptr);
  ASSERT_NE(stats.find("analyze_ewma_ms"), nullptr);
  EXPECT_EQ(d.meta().design, base.design->name());
}

// ---- live telemetry (stats / watch) ----------------------------------------

TEST(Daemon, HelloAdvertisesWatchFeatureAndSchemaV4) {
  const Base base = make_base();
  Daemon d(daemon_config(base, unique_socket_path("feat")), base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    const session::Json resp = parse(c.request("{\"id\":1,\"cmd\":\"hello\"}"));
    ASSERT_TRUE(is_ok(resp));
    const session::Json& data = *resp.find("data");
    EXPECT_EQ(data.find("stats_schema")->as_number(),
              static_cast<double>(obs::kStatsSchemaVersion));
    EXPECT_EQ(data.find("stats_schema")->as_number(), 5.0);
    const session::Json* features = data.find("features");
    ASSERT_NE(features, nullptr);
    bool has_watch = false;
    bool has_stats = false;
    for (const session::Json& f : features->items()) {
      has_watch |= f.is_string() && f.as_string() == "watch";
      has_stats |= f.is_string() && f.as_string() == "stats";
    }
    EXPECT_TRUE(has_watch);
    EXPECT_TRUE(has_stats);
  }
  d.stop();
}

TEST(Daemon, StatsCommandServesDaemonTimeseriesAndLatencySections) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("livestats"));
  cfg.sample_interval_ms = 5;  // fast ticks so several samples accumulate
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    ASSERT_TRUE(is_ok(parse(c.request("{\"id\":1,\"cmd\":\"violations\"}"))));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const session::Json resp =
        parse(c.request("{\"id\":2,\"cmd\":\"stats\",\"args\":{\"samples\":8}}"));
    ASSERT_TRUE(is_ok(resp));
    const session::Json& data = *resp.find("data");

    // The per-session sections are still there; the daemon augments them.
    ASSERT_NE(data.find("counters"), nullptr);
    const session::Json* daemon = data.find("daemon");
    ASSERT_NE(daemon, nullptr);
    EXPECT_GE(daemon->find("accepted")->as_number(), 1.0);

    const session::Json* ts = data.find("timeseries");
    ASSERT_NE(ts, nullptr);
    const session::Json* series = ts->find("series");
    const session::Json* samples = ts->find("samples");
    ASSERT_NE(series, nullptr);
    ASSERT_NE(samples, nullptr);
    ASSERT_FALSE(samples->items().empty());
    EXPECT_LE(samples->items().size(), 8u);
    double prev_t = -1.0;
    for (const session::Json& row : samples->items()) {
      ASSERT_NE(row.find("t_ms"), nullptr);
      ASSERT_NE(row.find("v"), nullptr);
      EXPECT_EQ(row.find("v")->items().size(), series->items().size());
      EXPECT_GE(row.find("t_ms")->as_number(), prev_t);  // monotone times
      prev_t = row.find("t_ms")->as_number();
    }

    const session::Json* latency = data.find("latency");
    ASSERT_NE(latency, nullptr);
    const session::Json* vio = latency->find("violations");
    ASSERT_NE(vio, nullptr);
    EXPECT_GE(vio->find("count")->as_number(), 1.0);
    EXPECT_GE(vio->find("p95")->as_number(), 0.0);

    // samples:0 = section metadata only, samples stripped.
    const session::Json meta_only =
        parse(c.request("{\"id\":3,\"cmd\":\"stats\",\"args\":{\"samples\":0}}"));
    ASSERT_TRUE(is_ok(meta_only));
    const session::Json* mts = meta_only.find("data")->find("timeseries");
    ASSERT_NE(mts, nullptr);
    EXPECT_TRUE(mts->find("samples")->items().empty());
    EXPECT_GT(mts->find("capacity")->as_number(), 0.0);

    // Bad args are a structured error, not a dropped connection.
    const session::Json bad = parse(
        c.request("{\"id\":4,\"cmd\":\"stats\",\"args\":{\"samples\":-1}}"));
    EXPECT_FALSE(is_ok(bad));
    EXPECT_EQ(error_code(bad), "bad_args");
  }
  d.stop();
}

TEST(Daemon, WatchStreamsStatsEventsAndStopsCleanly) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("watch"));
  cfg.min_watch_period_ms = 5;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    const session::Json sub = parse(c.request(
        "{\"id\":1,\"cmd\":\"watch\",\"args\":{\"action\":\"start\","
        "\"period_ms\":10}}"));
    ASSERT_TRUE(is_ok(sub));
    const session::Json* data = sub.find("data");
    ASSERT_NE(data, nullptr);
    EXPECT_TRUE(data->find("watching")->as_bool());
    EXPECT_EQ(data->find("period_ms")->as_number(), 10.0);

    // Three events: seq increments from 0, each carries the live gauges.
    double expect_seq = 0.0;
    for (int i = 0; i < 3;) {
      const std::string line = c.next_line();
      ASSERT_FALSE(line.empty());
      if (line.find("\"event\":\"stats\"") == std::string::npos) continue;
      const session::Json ev = parse(line);
      EXPECT_EQ(ev.find("seq")->as_number(), expect_seq);
      expect_seq += 1.0;
      EXPECT_GE(ev.find("t_ms")->as_number(), 0.0);
      const session::Json* live = ev.find("daemon");
      ASSERT_NE(live, nullptr);
      EXPECT_NE(live->find("queue_depth"), nullptr);
      EXPECT_NE(live->find("rss_mb"), nullptr);
      ++i;
    }

    const session::Json stop = parse(
        c.request("{\"id\":2,\"cmd\":\"watch\",\"args\":{\"action\":\"stop\"}}"));
    ASSERT_TRUE(is_ok(stop));
    EXPECT_FALSE(stop.find("data")->find("watching")->as_bool());
    EXPECT_EQ(stop.find("data")->find("period_ms")->as_number(), 0.0);

    // The stop response is written after the watcher joined, so nothing may
    // stream past it: the very next line must be the hello response.
    c.send("{\"id\":3,\"cmd\":\"hello\"}");
    const std::string after = c.next_line();
    EXPECT_EQ(after.find("\"event\":"), std::string::npos) << after;
    EXPECT_NE(after.find("\"id\":3"), std::string::npos) << after;
  }
  d.stop();
}

TEST(Daemon, WatchRateCapClampsFirehosePeriods) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("watchcap"));
  cfg.min_watch_period_ms = 40;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    const session::Json sub = parse(c.request(
        "{\"id\":1,\"cmd\":\"watch\",\"args\":{\"period_ms\":1}}"));
    ASSERT_TRUE(is_ok(sub));
    // Clamped to the floor and reported back, not errored.
    EXPECT_EQ(sub.find("data")->find("period_ms")->as_number(), 40.0);
    EXPECT_EQ(sub.find("data")->find("min_period_ms")->as_number(), 40.0);
  }
  d.stop();
}

TEST(Daemon, WatchTearsDownOnAbruptDisconnect) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("watchdrop"));
  cfg.min_watch_period_ms = 5;
  Daemon d(cfg, base.design, base.para);
  d.start();
  {
    Client c(d.bound_endpoint());
    ASSERT_TRUE(is_ok(parse(
        c.request("{\"id\":1,\"cmd\":\"watch\",\"args\":{\"period_ms\":5}}"))));
    ASSERT_FALSE(c.next_line().empty());  // the stream is live
  }  // socket drops with the subscription still active
  // Connection teardown joins the watcher; a drain afterwards must not hang.
  d.stop();
  EXPECT_TRUE(d.draining());
}

TEST(Daemon, TimeseriesRingStaysBoundedUnderSamplerLoad) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("ringbound"));
  cfg.sample_interval_ms = 1;
  cfg.sample_capacity = 4;
  Daemon d(cfg, base.design, base.para);
  d.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const obs::TimeSeriesSnapshot snap = d.timeseries_snapshot();
  EXPECT_LE(snap.samples.size(), 4u);
  EXPECT_GT(snap.total, snap.samples.size());  // wrapped, memory stayed put
  for (std::size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_GE(snap.samples[i].t_ms, snap.samples[i - 1].t_ms);
  }
  d.stop();
}

TEST(Daemon, TcpTransportServesTheSameProtocol) {
  const Base base = make_base();
  DaemonConfig cfg = daemon_config(base, unique_socket_path("tcp-unused"));
  cfg.listen = parse_endpoint("tcp:127.0.0.1:0");
  Daemon d(cfg, base.design, base.para);
  d.start();
  ASSERT_GT(d.bound_endpoint().port, 0);
  {
    Client c(d.bound_endpoint());
    const session::Json resp = parse(c.request("{\"id\":1,\"cmd\":\"hello\"}"));
    ASSERT_TRUE(is_ok(resp));
    EXPECT_EQ(resp.find("data")->find("transport")->as_string(), "tcp");
    EXPECT_TRUE(is_ok(parse(c.request("{\"id\":2,\"cmd\":\"violations\"}"))));
  }
  d.stop();
}

}  // namespace
}  // namespace nw::net
