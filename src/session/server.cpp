#include "session/server.hpp"

#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "noise/report_writer.hpp"
#include "noise/trace.hpp"
#include "util/strings.hpp"

namespace nw::session {

namespace {

constexpr const char* kShellHelp =
    "commands:\n"
    "  violations [n]              worst n violations (default 10)\n"
    "  slack [n]                   worst n endpoint noise slacks (default 10)\n"
    "  noise <net>                 noise summary of a net\n"
    "  trace <net>                 trace a net's worst glitch to its origin\n"
    "  explain <net>               provenance of the net's violations\n"
    "  cell <inst> <cell>          swap an instance onto another cell\n"
    "  scale <net> <capf> <resf>   scale a net's ground caps / resistances\n"
    "  couple <a> <b> <cap>        set total coupling cap between two nets [F]\n"
    "  arrival <port> <lo> <hi>    override an input arrival window [s]\n"
    "  group <net> [net...]        declare a mutual-exclusion group\n"
    "  set <option> <value>        mode|model|threads|refine|period\n"
    "  undo                        revert the most recent edit\n"
    "  stats                       session counters\n"
    "  help                        this text\n"
    "  quit                        leave\n";

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

double num_arg(const std::vector<std::string>& toks, std::size_t i) {
  if (i >= toks.size()) throw std::invalid_argument("missing numeric argument");
  return nw::parse_double(toks[i]);  // refuses junk, nan and inf
}

std::size_t count_arg(const std::vector<std::string>& toks, std::size_t i,
                      std::size_t fallback) {
  if (i >= toks.size()) return fallback;
  const std::optional<std::size_t> n = nw::to_count(num_arg(toks, i));
  if (!n) throw std::invalid_argument("count must be a non-negative integer");
  return *n;
}

const std::string& str_arg(const std::vector<std::string>& toks, std::size_t i,
                           const char* what) {
  if (i >= toks.size()) {
    throw std::invalid_argument(std::string("missing argument: ") + what);
  }
  return toks[i];
}

std::string mv(double volts) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f mV", volts * 1e3);
  return buf;
}

std::string ps(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f ps", seconds * 1e12);
  return buf;
}

void run_command(Session& s, const std::vector<std::string>& toks, std::ostream& out) {
  const std::string& cmd = toks[0];
  if (cmd == "help") {
    out << kShellHelp;
  } else if (cmd == "violations") {
    const std::size_t limit = count_arg(toks, 1, 10);
    const noise::Result& r = s.result();
    out << r.violations.size() << " violation(s), " << r.endpoints_checked
        << " endpoints checked [epoch " << r.epoch << "]\n";
    for (std::size_t i = 0; i < r.violations.size() && i < limit; ++i) {
      const noise::Violation& v = r.violations[i];
      out << "  " << s.design().pin_name(v.endpoint) << " (net "
          << s.design().net(v.net).name << "): peak " << mv(v.peak) << " > "
          << mv(v.threshold) << ", width " << ps(v.width) << "\n";
    }
  } else if (cmd == "slack") {
    const std::size_t limit = count_arg(toks, 1, 10);
    const auto slacks = s.endpoint_slacks();
    for (std::size_t i = 0; i < slacks.size() && i < limit; ++i) {
      out << "  " << slacks[i].endpoint << " (net " << slacks[i].net << "): "
          << mv(slacks[i].slack) << "\n";
    }
  } else if (cmd == "noise") {
    const NetId id = s.require_net(str_arg(toks, 1, "net name"));
    const noise::NetNoise& nn = s.result().net(id);
    out << "net " << s.design().net(id).name << ": total " << mv(nn.total_peak)
        << " (injected " << mv(nn.injected_peak) << ", propagated "
        << mv(nn.propagated_peak) << "), width " << ps(nn.width) << ", "
        << nn.aggressor_count << " aggressor(s)\n";
  } else if (cmd == "trace") {
    const NetId id = s.require_net(str_arg(toks, 1, "net name"));
    out << noise::trace_string(s.design(), s.trace(id)) << "\n";
  } else if (cmd == "explain") {
    const NetId id = s.require_net(str_arg(toks, 1, "net name"));
    out << noise::explain_string(s.design(), s.noise_options(), s.result(), id);
  } else if (cmd == "cell") {
    s.set_driver_cell(str_arg(toks, 1, "instance"), str_arg(toks, 2, "cell"));
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "scale") {
    s.scale_net_parasitics(str_arg(toks, 1, "net"), num_arg(toks, 2), num_arg(toks, 3));
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "couple") {
    s.set_coupling_cap(str_arg(toks, 1, "net"), str_arg(toks, 2, "net"),
                       num_arg(toks, 3));
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "arrival") {
    s.set_arrival_window(str_arg(toks, 1, "port"),
                         Interval{num_arg(toks, 2), num_arg(toks, 3)});
    out << "ok [epoch " << s.epoch() << "]\n";
  } else if (cmd == "group") {
    const std::vector<std::string> nets(toks.begin() + 1, toks.end());
    const int gid = s.set_constraint_group(nets);
    out << "group " << gid << "\n";
  } else if (cmd == "set") {
    s.set_option(str_arg(toks, 1, "option"), str_arg(toks, 2, "value"));
    out << "ok\n";
  } else if (cmd == "undo") {
    out << (s.undo() ? "undone" : "nothing to undo") << " [epoch " << s.epoch()
        << "]\n";
  } else if (cmd == "stats") {
    out << "epoch " << s.epoch() << ", undo depth " << s.undo_depth() << ", full "
        << s.full_analyses() << ", incremental " << s.incremental_analyses()
        << ", cache " << s.cache_hits() << " hit / " << s.cache_misses()
        << " miss\n";
  } else {
    out << "unknown command '" << cmd << "' (try: help)\n";
  }
}

}  // namespace

std::size_t shell(Session& session, std::istream& in, std::ostream& out) {
  std::size_t handled = 0;
  std::string line;
  out << "noisewin session on '" << session.design().name() << "' ("
      << session.design().net_count() << " nets). Type 'help'.\n";
  for (out << "noisewin> " << std::flush; std::getline(in, line);
       out << "noisewin> " << std::flush) {
    const std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;
    if (toks[0] == "quit" || toks[0] == "exit") break;
    ++handled;
    try {
      run_command(session, toks, out);
    } catch (const std::exception& e) {
      out << "error: " << e.what() << "\n";
    }
  }
  out << "\n";
  return handled;
}

}  // namespace nw::session
