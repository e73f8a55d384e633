#include "noise/trace.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "report/table.hpp"

namespace nw::noise {

NoiseTrace trace_origin(const net::Design& design, const Result& result, NetId net) {
  NoiseTrace trace;
  if (net.index() >= result.nets.size()) {
    throw std::invalid_argument("trace_origin: bad net id");
  }

  std::unordered_set<NetId::value_type> visited;
  NetId cur = net;
  while (cur.valid() && visited.insert(cur.value()).second) {
    const NetNoise& nn = result.nets[cur.index()];
    if (nn.total_peak <= 0.0) break;
    trace.path.push_back({cur, nn.total_peak, nn.width});

    // Follow the strongest propagated member of the worst combination.
    NetId next;
    double best = 0.0;
    for (const auto& c : nn.contributions) {
      if (!c.in_worst || !c.is_propagated()) continue;
      if (c.peak > best) {
        best = c.peak;
        next = c.from_net;
      }
    }
    if (!next.valid()) break;
    cur = next;
  }
  // The injection point is wherever the walk stopped — the last path entry.
  // Collecting here (instead of inside the no-propagated-member branch)
  // guarantees aggressors are reported on every exit: the natural end of
  // the chain, a single-step query where the asked-about net IS the
  // injection net, and a walk cut short by the visited guard.
  if (!trace.path.empty()) {
    const NetNoise& origin = result.nets[trace.path.back().net.index()];
    for (const auto& c : origin.contributions) {
      if (c.in_worst && !c.is_propagated()) trace.aggressors.push_back(c.aggressor);
    }
    std::sort(trace.aggressors.begin(), trace.aggressors.end(),
              [&](NetId a, NetId b) { return design.net(a).name < design.net(b).name; });
  }
  return trace;
}

std::string trace_string(const net::Design& design, const NoiseTrace& trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.path.size(); ++i) {
    if (i > 0) os << " <- ";
    const TraceStep& s = trace.path[i];
    os << design.net(s.net).name << " (" << report::fmt_mv(s.peak) << ")";
  }
  if (!trace.aggressors.empty()) {
    os << " [aggressors:";
    for (const NetId a : trace.aggressors) os << ' ' << design.net(a).name;
    os << "]";
  }
  return os.str();
}

}  // namespace nw::noise
