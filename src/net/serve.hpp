// One JSONL conversation over a stream pair: the serving loop shared by
// `noisewin serve` (stdin/stdout) and every `noisewin daemon` connection
// (a socket stream).
//
// A helper thread reads request lines into a queue; the calling thread
// pops each one, hands it to the Protocol, and writes the response. The
// split is what lets a mid-analyze `cancel` land: the analyzer's progress
// checkpoints run on the calling thread and scan the queue for it while
// the request in flight still holds the loop. Every write — response,
// progress event, cancel ack, shed reply, daemon `watch` event — goes
// through write_line(), so lines never interleave mid-line.
//
// The stdio server runs it with everything off: an unbounded queue and a
// Protocol with no gate, no daemon hooks and default (stdio) caps. The
// daemon passes its queue bound, fleet-wide depth gauge and shed reply,
// and configures the Protocol with its governor and hooks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "session/json.hpp"
#include "session/protocol.hpp"
#include "session/session.hpp"

namespace nw::net {

class StreamServer {
 public:
  /// Reply for a line refused at a full queue, given the request's id and
  /// the queue depth. Runs on the reader thread.
  using ShedFn =
      std::function<std::string(const session::Json& id, std::size_t depth)>;

  /// `max_queued` bounds the request queue (0 = unbounded; `cancel` lines
  /// bypass the bound). The daemon mirrors every connection's queue depth
  /// into one fleet-wide counter and gauge; stdio passes neither.
  StreamServer(std::istream& in, std::ostream& out, std::size_t max_queued = 0,
               std::atomic<std::int64_t>* global_depth = nullptr,
               obs::Gauge* depth_gauge = nullptr)
      : in_(in), out_(out), max_queued_(max_queued), global_depth_(global_depth),
        depth_gauge_(depth_gauge) {}

  /// Serve until `in` reaches EOF and every queued line is answered;
  /// returns the number of responses written (one per request line, blank
  /// lines skipped). For the duration, `session` carries a progress sink
  /// that answers a queued `cancel` mid-analyze out-of-band with
  /// {"cancelled":true} (the analyzing request then fails `cancelled`) and,
  /// with `progress_events`, streams {"event":"progress"} lines. `shed`
  /// answers lines refused at a full queue (required when bounded);
  /// `handled`, when given, counts each response as it is written.
  std::size_t serve(session::Session& session, session::Protocol& proto,
                    bool progress_events, const ShedFn& shed = {},
                    obs::Counter* handled = nullptr);

  /// Write one line and flush, under the conversation's write lock.
  void write_line(const std::string& line);

 private:
  std::istream& in_;
  std::ostream& out_;
  std::mutex write_mu_;
  std::size_t max_queued_;
  std::atomic<std::int64_t>* global_depth_;  ///< not owned; may be nullptr
  obs::Gauge* depth_gauge_;                  ///< not owned; may be nullptr
};

}  // namespace nw::net
