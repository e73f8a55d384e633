// eco-logic10k: an in-process daemon on a unix socket serving closed-loop
// ECO clients. More clients than analysis slots, so the load governor
// queues. Each cycle makes one seeded single-net edit, requeries the
// violations that pay for it, then reads cached results; every second
// cycle undoes both of its edits and must see the pristine violations
// again. This stresses the session, the incremental analyzer, the result
// cache, copy-on-write seeds, the governor and the socket layer; no parser
// runs in the timed part.
//
// The run is cut into segments. Between two segments every client waits at
// a barrier while the reference kernel and one daemon start (the set-up)
// are timed, so that neither competes with client traffic for the host.
#include <algorithm>
#include <barrier>
#include <deque>
#include <latch>
#include <optional>
#include <random>
#include <thread>

#include "gen/randlogic.hpp"
#include "net/daemon.hpp"
#include "net/socket.hpp"
#include "noise/report_writer.hpp"
#include "obs/memtrack.hpp"
#include "session/json.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace nwb {

namespace {

using nw::session::Json;

// The suite's D5 random-logic cloud at 10k gates.
nw::gen::RandLogicConfig logic10k(std::uint64_t seed) {
  nw::gen::RandLogicConfig cfg;
  cfg.primary_inputs = 32;
  cfg.gates = 10000;
  cfg.levels = 10;
  cfg.coupling_prob = 0.5;
  cfg.coupling_cap_min = 2 * nw::FF;
  cfg.coupling_cap_max = 9 * nw::FF;
  cfg.input_spread = 1500 * nw::PS;
  cfg.dff_fraction = 0.3;
  cfg.seed = design_seed(10000, seed);
  return cfg;
}

constexpr int kClients = 3;
constexpr int kAnalysisSlots = 2;
// A run is cut into segments of 1/kSegments of its seconds, each ending
// with a pause that times one reference kernel and kSetupsPerPause
// set-ups. The pauses count towards the run's seconds, so fewer segments
// fit.
constexpr int kSegments = 15;
constexpr int kSetupsPerPause = 2;
constexpr std::size_t kPristineLimit = 100;
constexpr std::size_t kDefaultSeedViolations = 1106;

// One coupled pair and its pristine total coupling, for set_coupling_cap.
struct CoupledPair {
  std::string a;
  std::string b;
  double cap = 0.0;
};

// What every client compares against.
struct Pristine {
  std::size_t count = 0;
  std::vector<std::string> rows;  ///< "endpoint net peak" of the first violations
  std::vector<std::string> violating_nets;
};

std::string violation_row(const std::string& endpoint, const std::string& net, double peak) {
  return endpoint + " " + net + " " + Json(peak).dump();
}

// A blocking JSONL client on one daemon connection.
class Client {
 public:
  explicit Client(const nw::net::Endpoint& endpoint)
      : io_(nw::net::connect_endpoint(endpoint), /*recv_timeout_ms=*/60000) {}

  // One request/response round trip. A response that is not ok (including
  // `overloaded` sheds) is a failed operation.
  std::optional<Json> call(const std::string& cmd, Json args, Outcome& out) {
    ++out.attempted;
    Json req = Json::object();
    const double id = static_cast<double>(next_id_++);
    req.set("id", id);
    req.set("cmd", cmd);
    req.set("args", std::move(args));
    io_ << req.dump() << '\n' << std::flush;
    std::string line;
    if (!std::getline(io_, line)) {
      out.fail(cmd + ": connection closed or timed out");
      return std::nullopt;
    }
    std::optional<Json> resp = nw::session::json_parse(line);
    const Json* ok = resp ? resp->find("ok") : nullptr;
    const Json* rid = resp ? resp->find("id") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || rid == nullptr ||
        !rid->is_number() || rid->as_number() != id) {
      out.fail(cmd + ": " + line.substr(0, 200));
      return std::nullopt;
    }
    const Json* data = resp->find("data");
    return data != nullptr ? *data : Json::object();
  }

 private:
  nw::net::SocketStream io_;
  std::uint64_t next_id_ = 1;
};

double number_at(const Json& o, const char* section, const char* key) {
  const Json* s = o.find(section);
  const Json* v = s != nullptr ? s->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

// One client's connection, edit stream and results; the results are
// merged after the clients join.
struct ClientState {
  ClientState(int i, std::uint64_t seed)
      : index(i), rng(seed * 7919 + static_cast<std::uint64_t>(i)), log(false, i + 1) {}

  int index;
  std::optional<Client> conn;
  std::mt19937_64 rng;
  SpanLog log;
  Outcome out;
  std::vector<double> edit_ms;       ///< edit + violations requery
  std::vector<double> traced_ms;     ///< edit cycles of traced ops
  std::vector<double> untraced_ms;
  std::vector<double> read_ms;       ///< net_noise / explain
  LayerSamples commands;             ///< per-command round trips
  std::uint64_t cycles = 0;
  Json stats;
};

struct EcoInputs {
  const nw::net::Endpoint* endpoint;
  const Pristine* pristine;
  const std::vector<std::string>* nets;
  const std::vector<CoupledPair>* pairs;
  bool trace;
};

// Checks that the connection's violations are the pristine ones.
void check_pristine(ClientState& c, const EcoInputs& in, const std::string& when) {
  Json limit = Json::object();
  limit.set("limit", kPristineLimit);
  const std::optional<Json> v = c.conn->call("violations", limit, c.out);
  if (!v) return;
  std::vector<std::string> rows;
  if (const Json* list = v->find("violations")) {
    for (const Json& row : list->items()) {
      const Json* endpoint = row.find("endpoint");
      const Json* net = row.find("net");
      const Json* peak = row.find("peak");
      if (endpoint == nullptr || net == nullptr || peak == nullptr) continue;
      rows.push_back(violation_row(endpoint->as_string(), net->as_string(), peak->as_number()));
    }
  }
  const Json* count = v->find("count");
  c.out.check(count != nullptr &&
                  static_cast<std::size_t>(count->as_number()) == in.pristine->count &&
                  rows == in.pristine->rows,
              when + ": violations after undoing every edit differ from the pristine ones");
}

// Edit cycles until `until`.
void run_cycles(ClientState& c, const EcoInputs& in, Clock::time_point until) {
  std::uniform_real_distribution<double> factor(0.8, 1.25);
  std::uniform_real_distribution<double> cap_scale(0.7, 1.4);
  Outcome& out = c.out;

  const auto timed = [&](const char* layer, const std::string& cmd, Json args) {
    const Clock::time_point t0 = Clock::now();
    std::optional<Json> r;
    {
      const auto s = c.log.span(layer);
      r = c.conn->call(cmd, std::move(args), out);
    }
    const double ms = ms_between(t0, Clock::now());
    c.commands.add(std::string(layer) + "_ms", ms);
    return std::pair{std::move(r), ms};
  };

  for (; Clock::now() < until; ++c.cycles) {
    const std::uint64_t cycle = c.cycles;
    // Traced and untraced ops each take one cycle with undos and one without.
    const bool traced = in.trace && cycle % 4 < 2;
    c.log.begin_op(static_cast<std::uint64_t>(c.index) * 1000000 + cycle, traced);
    const auto root = c.log.span("cycle");
    (void)timed("net.roundtrip", "hello", Json::object());

    // One seeded single-net edit, then the requery that pays for it.
    Json args = Json::object();
    std::string cmd;
    std::string edited;
    if (c.rng() % 2 == 0) {
      edited = (*in.nets)[c.rng() % in.nets->size()];
      cmd = "scale_net_parasitics";
      args.set("net", edited);
      args.set("cap_factor", factor(c.rng));
      args.set("res_factor", factor(c.rng));
    } else {
      const CoupledPair& p = (*in.pairs)[c.rng() % in.pairs->size()];
      edited = p.a;
      cmd = "set_coupling_cap";
      args.set("net_a", p.a);
      args.set("net_b", p.b);
      args.set("cap", p.cap * cap_scale(c.rng));
    }
    const Clock::time_point t0 = Clock::now();
    (void)timed("session.edit", cmd, std::move(args));
    Json limit = Json::object();
    limit.set("limit", 10);
    const std::optional<Json> requery = timed("session.requery", "violations", limit).first;
    const double edit_ms = ms_between(t0, Clock::now());
    c.edit_ms.push_back(edit_ms);
    (traced ? c.traced_ms : c.untraced_ms).push_back(edit_ms);
    out.check(requery && requery->find("count") != nullptr, "requery without a count");

    // Cached reads of the new result.
    Json net_arg = Json::object();
    net_arg.set("net", edited);
    c.read_ms.push_back(timed("session.read", "net_noise", net_arg).second);
    Json explain_arg = Json::object();
    explain_arg.set("net", in.pristine->violating_nets[cycle % in.pristine->violating_nets.size()]);
    c.read_ms.push_back(timed("session.read", "explain", explain_arg).second);

    if (cycle % 2 == 1) {
      (void)timed("session.undo", "undo", Json::object());
      (void)timed("session.undo", "undo", Json::object());
      check_pristine(c, in, "cycle " + std::to_string(cycle));
    }
  }
}

// End of run: the connection's stats, then undo what is left and check
// that the pristine result comes back.
void finish_client(ClientState& c, const EcoInputs& in) {
  Json stats_args = Json::object();
  stats_args.set("samples", 0);
  if (std::optional<Json> s = c.conn->call("stats", stats_args, c.out)) c.stats = std::move(*s);
  for (int i = 0; i < 4; ++i) {
    const std::optional<Json> u = c.conn->call("undo", Json::object(), c.out);
    const Json* undone = u ? u->find("undone") : nullptr;
    if (undone == nullptr || !undone->as_bool()) break;
  }
  check_pristine(c, in, "end of run");
}

// Constructs and starts a daemon, whose prewarm runs one full analysis,
// and adds that set-up to `setups`.
std::unique_ptr<nw::net::Daemon> start_daemon(const nw::net::DaemonConfig& cfg,
                                              const LoadedDesign& d,
                                              std::vector<SetupSample>& setups) {
  std::unique_ptr<nw::net::Daemon> daemon;
  setups.push_back(time_setup([&] {
    daemon = std::make_unique<nw::net::Daemon>(cfg, d.design, d.para);
    daemon->start();
  }));
  return daemon;
}

}  // namespace

Outcome run_eco(const RunArgs& args) {
  const Clock::time_point run_start = Clock::now();
  const nw::lib::Library library = nw::lib::default_library();
  const DesignFiles files = design_files(args.workdir, "logic10k");
  Outcome out;
  SpanLog setup_log(args.trace, 0);
  LayerSamples layers;

  nw::net::DaemonConfig cfg;
  cfg.listen = nw::net::parse_endpoint("unix:" + args.workdir + "/eco.sock");
  cfg.analysis_slots = kAnalysisSlots;
  cfg.progress_events = false;  // the CLI default: one response line per request
  cfg.session.noise.mode = nw::noise::AnalysisMode::kNoiseWindows;

  // The design is generated, written and read back once. The timed set-up
  // is starting the daemon, whose prewarm runs one full analysis. It is
  // repeated in every pause, on a second socket, and reported as the median.
  {
    const nw::gen::Generated g = nw::gen::make_rand_logic(library, logic10k(args.seed));
    write_design(files, library, g.design, g.para);
    cfg.session.sta = g.sta_options;
    cfg.session.noise.clock_period = g.sta_options.clock_period;
  }
  // Declared before the daemon, which shares the design: destroyed after it.
  const LoadedDesign loaded = read_design(files, setup_log);
  std::vector<SetupSample> setups;
  std::unique_ptr<nw::net::Daemon> daemon = start_daemon(cfg, loaded, setups);
  nw::net::DaemonConfig setup_cfg = cfg;
  setup_cfg.listen = nw::net::parse_endpoint("unix:" + args.workdir + "/setup.sock");
  const nw::net::Design& design = *loaded.design;
  const nw::para::Parasitics& para = *loaded.para;

  // In-process reference of the pristine state, under the daemon's options.
  Pristine pristine;
  {
    setup_log.begin_op(2000000, args.trace);
    std::optional<nw::sta::Result> timing;
    {
      const auto s = setup_log.span("sta.run");
      timing.emplace(nw::sta::run(design, para, cfg.session.sta));
    }
    std::optional<nw::noise::Result> r;
    {
      const auto s = setup_log.span("noise.analyze");
      r.emplace(nw::noise::analyze(design, para, *timing, cfg.session.noise));
    }
    {
      const auto s = setup_log.span("noise.report");
      (void)nw::noise::report_string(design, cfg.session.noise, *r);
    }
    pristine.count = r->violations.size();
    for (const nw::noise::Violation& v : r->violations) {
      if (pristine.rows.size() < kPristineLimit) {
        pristine.rows.push_back(
            violation_row(design.pin_name(v.endpoint), design.net(v.net).name, v.peak));
      }
      if (pristine.violating_nets.size() < 16) {
        pristine.violating_nets.push_back(design.net(v.net).name);
      }
    }
    add_analysis_samples(*r, layers);
    layers.add("netlist.nets", static_cast<double>(design.net_count()));
    {
      const auto s = setup_log.span("noise.teardown");
      r.reset();
    }
  }
  out.check(pristine.count > 0, "reference run found no violations");
  if (args.seed == 0) {
    out.check(pristine.count == kDefaultSeedViolations,
              "default seed: " + std::to_string(pristine.count) + " violations, recorded " +
                  std::to_string(kDefaultSeedViolations));
  }

  // Edit targets: coupled nets and their pristine total coupling.
  std::vector<std::string> nets;
  std::vector<CoupledPair> pairs;
  for (const nw::para::CouplingCap& cc : para.couplings()) {
    if (pairs.size() == 4096) break;
    double total = 0;
    for (const std::size_t ci : para.couplings_of(cc.net_a)) {
      if (para.coupling(ci).other_net(cc.net_a) == cc.net_b) total += para.coupling(ci).c;
    }
    pairs.push_back({design.net(cc.net_a).name, design.net(cc.net_b).name, total});
  }
  for (std::size_t i = 0; i < design.net_count(); ++i) {
    const nw::NetId id(static_cast<std::uint32_t>(i));
    if (!para.couplings_of(id).empty()) nets.push_back(design.net(id).name);
  }
  out.check(!pairs.empty() && !nets.empty() && !pristine.violating_nets.empty(),
            "design has no coupled nets to edit");

  std::deque<ClientState> clients;  // not movable: the connection is a socket
  for (int i = 0; i < kClients; ++i) clients.emplace_back(i, args.seed);
  std::vector<double> kernel_ms;
  double active_ms = 0;
  if (out.correct) {
    const EcoInputs in{&daemon->bound_endpoint(), &pristine, &nets, &pairs, args.trace};
    const double segment_s = args.seconds / kSegments;
    // Set before the clients start, then written only by the pause step,
    // which runs while every client waits.
    Clock::time_point segment_start;
    Clock::time_point segment_end;
    Clock::time_point deadline;
    bool done = false;
    std::string pause_error;
    const auto pause = [&]() noexcept {
      active_ms += ms_between(segment_start, Clock::now());
      try {
        kernel_ms.push_back(reference_kernel_ms());
        for (int k = 0; k < kSetupsPerPause; ++k) start_daemon(setup_cfg, loaded, setups)->stop();
      } catch (const std::exception& e) {
        pause_error = e.what();
      }
      segment_start = Clock::now();
      segment_end = std::min(seconds_after(segment_start, segment_s), deadline);
      done = segment_start >= deadline;
    };
    std::barrier sync(kClients, pause);
    // Clients connect and check the pristine state first; the measured
    // window starts once all of them are ready.
    std::latch connected(kClients + 1);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (ClientState& c : clients) {
      threads.emplace_back([&c, &in, &connected, &go, &sync, &segment_end, &done] {
        try {
          // The connection starts on the daemon's prewarmed result: pristine.
          c.conn.emplace(*in.endpoint);
          check_pristine(c, in, "connect");
        } catch (const std::exception& e) {
          c.out.fail(std::string("client connect: ") + e.what());
        }
        connected.arrive_and_wait();
        go.wait();
        if (!c.out.correct) {
          sync.arrive_and_drop();
          return;
        }
        try {
          while (!done) {
            run_cycles(c, in, segment_end);
            sync.arrive_and_wait();
          }
        } catch (const std::exception& e) {
          c.out.fail(std::string("client: ") + e.what());
          sync.arrive_and_drop();
          return;
        }
        try {
          finish_client(c, in);
        } catch (const std::exception& e) {
          c.out.fail(std::string("client: ") + e.what());
        }
      });
    }
    connected.arrive_and_wait();
    segment_start = Clock::now();
    deadline = seconds_after(segment_start, args.seconds);
    segment_end = seconds_after(segment_start, segment_s);
    go.count_down();
    for (std::thread& t : threads) t.join();
    if (!pause_error.empty()) out.fail("pause: " + pause_error);
  }
  daemon->stop();
  const double shed = static_cast<double>(daemon->requests_shed());
  daemon.reset();

  // Merge the clients.
  std::vector<double> edit_ms, traced_ms, untraced_ms, read_ms;
  LayerSamples commands;
  std::uint64_t cycles = 0;
  double hits = 0, misses = 0, incremental = 0, full = 0, cache_mb = 0;
  for (const ClientState& r : clients) {
    out.attempted += r.out.attempted;
    out.failed += r.out.failed;
    out.correct = out.correct && r.out.correct;
    out.problems.insert(out.problems.end(), r.out.problems.begin(), r.out.problems.end());
    edit_ms.insert(edit_ms.end(), r.edit_ms.begin(), r.edit_ms.end());
    traced_ms.insert(traced_ms.end(), r.traced_ms.begin(), r.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), r.untraced_ms.begin(), r.untraced_ms.end());
    read_ms.insert(read_ms.end(), r.read_ms.begin(), r.read_ms.end());
    commands.merge(r.commands);
    cycles += r.cycles;
    hits += number_at(r.stats, "counters", "session_cache_hits");
    misses += number_at(r.stats, "counters", "session_cache_misses");
    incremental += number_at(r.stats, "counters", "session_incremental_analyses");
    full += number_at(r.stats, "counters", "session_full_analyses");
    cache_mb += number_at(r.stats, "gauges", "session_cache_bytes") / (1 << 20);
  }
  out.check(cycles > 0, "no ECO cycle completed");
  if (!out.correct) return out;

  const double rss = peak_rss_mb();
  const double setup_s = setup_seconds(setups, out.detail);
  const double edit_p50 = median(edit_ms);
  const double edits_per_s = static_cast<double>(cycles) / (active_ms / 1e3);
  const double read_p50 = median(read_ms);
  if (args.trace) {
    setup_log.add_self_times(layers);
    // Each command span is a leaf, so its self time is the round trip; the
    // round trips of every cycle, traced or not, give the command layers.
    layers.merge(commands);
    const double spef_ms = layers.median_of("parasitics.read_ms");
    layers.add("parasitics.read_mb_per_s",
               static_cast<double>(file_bytes(files.spef)) / (1 << 20) / (spef_ms / 1e3));
    layers.add("mem.tracked_peak_mb",
               static_cast<double>(nw::obs::MemTracker::total_peak()) / (1 << 20));
    layers.add("session.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    layers.add("session.incremental_frac",
               incremental + full > 0 ? incremental / (incremental + full) : 0.0);
    layers.add("session.cache_mb", cache_mb);
    layers.add("daemon.requests_shed", shed);
    layers.add("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
    out.layers = layers.medians();
    std::vector<const SpanLog*> all{&setup_log};
    for (const ClientState& c : clients) all.push_back(&c.log);
    if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, all, run_start);
  } else {
    out.end_to_end = {{"setup_s", setup_s, "s"},
                      {"op_p50_ref", edit_p50 / median(kernel_ms), "ref"},
                      {"peak_rss_mb", rss, "MB"}};
  }
  out.detail.insert(out.detail.end(),
                    {{"edit_p50_ms", edit_p50, "ms"},
                     {"edit_p95_ms", quantile(edit_ms, 0.95), "ms"},
                     {"edits_per_s", edits_per_s, "1/s"},
                     {"edit_cycles", static_cast<double>(cycles), "count"},
                     {"ref_kernel_ms", median(kernel_ms), "ms"},
                     {"edit_p50_ref", edit_p50 / median(kernel_ms), "ref"},
                     {"read_p50_ms", read_p50, "ms"},
                     {"reads", static_cast<double>(read_ms.size()), "count"},
                     {"peak_rss_mb", rss, "MB"},
                     {"net.roundtrip_ms", commands.median_of("net.roundtrip_ms"), "ms"},
                     {"session.edit_ms", commands.median_of("session.edit_ms"), "ms"},
                     {"session.requery_ms", commands.median_of("session.requery_ms"), "ms"},
                     {"session.read_ms", commands.median_of("session.read_ms"), "ms"},
                     {"session.undo_ms", commands.median_of("session.undo_ms"), "ms"},
                     {"session.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                      "frac"},
                     {"session.incremental_frac",
                      incremental + full > 0 ? incremental / (incremental + full) : 0.0, "frac"},
                     {"daemon.requests_shed", shed, "count"}});
  return out;
}

}  // namespace nwb
