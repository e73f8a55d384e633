#include "net/serve.hpp"

#include <condition_variable>
#include <deque>
#include <istream>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "noise/progress.hpp"
#include "obs/memtrack.hpp"

namespace nw::net {

namespace {

bool is_cancel_line(const std::string& line) {
  if (line.find("cancel") == std::string::npos) return false;  // cheap reject
  const std::optional<session::Json> req = session::json_parse(line);
  if (!req || !req->is_object()) return false;
  const session::Json* cmd = req->find("cmd");
  return cmd != nullptr && cmd->is_string() && cmd->as_string() == "cancel";
}

session::Json request_id_of(const std::string& line) {
  session::Json id;
  if (const std::optional<session::Json> req = session::json_parse(line)) {
    if (req->is_object()) {
      if (const session::Json* rid = req->find("id")) id = *rid;
    }
  }
  return id;
}

/// Request-line queue between a conversation's reader and its serving
/// thread. `cancel` lines bypass the bound (force) — a client must always
/// be able to cancel the analysis that is filling its own queue.
class ConnQueue {
 public:
  ConnQueue(std::size_t max_queued, std::atomic<std::int64_t>* global_depth,
            obs::Gauge* depth_gauge)
      : max_queued_(max_queued), global_depth_(global_depth),
        depth_gauge_(depth_gauge) {}

  ~ConnQueue() {
    // Lines still queued at teardown (drain swallowed them) release here.
    obs::MemTracker::account(obs::MemAccountId::kDaemonQueues).release(charged_);
  }

  /// False when the queue is full (line left untouched for the reject
  /// response); `force` bypasses the bound.
  bool push(std::string& line, bool force) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return true;  // draining: swallow silently
      if (!force && max_queued_ > 0 && lines_.size() >= max_queued_) return false;
      charge_bytes(line.size());
      lines_.push_back(std::move(line));
      bump_depth(+1);
    }
    cv_.notify_one();
    return true;
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }

  /// Blocking pop; false once closed and drained (EOF).
  bool pop(std::string& line) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !lines_.empty() || closed_; });
    if (lines_.empty()) return false;
    line = std::move(lines_.front());
    lines_.pop_front();
    release_bytes(line.size());
    bump_depth(-1);
    return true;
  }

  /// Remove and return the earliest queued `cancel` request, if any.
  std::optional<std::string> take_cancel() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lines_.begin(); it != lines_.end(); ++it) {
      if (!is_cancel_line(*it)) continue;
      std::string line = std::move(*it);
      lines_.erase(it);
      release_bytes(line.size());
      bump_depth(-1);
      return line;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_.size();
  }

 private:
  void bump_depth(std::int64_t delta) {
    if (global_depth_ == nullptr) return;
    const std::int64_t now = global_depth_->fetch_add(delta) + delta;
    depth_gauge_->set(static_cast<double>(now));
  }

  // Queued-line payload accounting (called under mutex_): the global
  // "daemon_queues" account aggregates across conversations; the per-queue
  // charged total lets the destructor release exactly what this queue
  // still holds.
  void charge_bytes(std::size_t n) {
    obs::MemTracker::account(obs::MemAccountId::kDaemonQueues).charge(n);
    charged_ += n;
  }
  void release_bytes(std::size_t n) {
    obs::MemTracker::account(obs::MemAccountId::kDaemonQueues).release(n);
    charged_ -= n;
  }

  std::size_t max_queued_;
  std::atomic<std::int64_t>* global_depth_;
  obs::Gauge* depth_gauge_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  std::size_t charged_ = 0;  ///< queued-line bytes currently charged
  bool closed_ = false;
};

/// Progress sink of one conversation: streams progress events (when
/// enabled) and intercepts queued `cancel` requests mid-analyze. Runs on
/// the serving thread only, inside the analysis it runs.
class ConnProgress final : public noise::ProgressSink {
 public:
  ConnProgress(ConnQueue& queue, StreamServer& server, bool emit_events)
      : queue_(queue), server_(server), emit_events_(emit_events) {}

  void on_progress(const noise::Progress& p) override {
    if (!emit_events_) return;
    session::Json o = session::Json::object();
    o.set("event", "progress");
    o.set("phase", p.phase);
    o.set("iteration", p.iteration);
    o.set("completed", p.completed);
    o.set("total", p.total);
    o.set("level", p.level);
    o.set("elapsed_ms", p.phase_elapsed_s * 1e3);
    o.set("eta_ms", p.eta_s * 1e3);
    server_.write_line(o.dump());
  }

  bool cancel_requested() override {
    if (cancelled_) return true;
    const std::optional<std::string> line = queue_.take_cancel();
    if (!line) return false;
    // Answer the cancel out-of-band, echoing its id; the analyzing request
    // in flight gets its own "cancelled" error response from the protocol.
    session::Json data = session::Json::object();
    data.set("cancelled", true);
    session::Json resp = session::Json::object();
    resp.set("id", request_id_of(*line));
    resp.set("ok", true);
    resp.set("data", std::move(data));
    server_.write_line(resp.dump());
    cancelled_ = true;
    return true;
  }

  /// Re-arm before each request: a consumed cancel only aborts the
  /// analysis it was consumed against.
  void begin_request() { cancelled_ = false; }

 private:
  ConnQueue& queue_;
  StreamServer& server_;
  bool emit_events_;
  bool cancelled_ = false;
};

}  // namespace

std::size_t StreamServer::serve(session::Session& session, session::Protocol& proto,
                                bool progress_events, const ShedFn& shed,
                                obs::Counter* handled) {
  ConnQueue queue(max_queued_, global_depth_, depth_gauge_);
  // Every write flushes itself; a tie (std::cin → std::cout) would only
  // make the reader thread flush `out` concurrently with the writes here.
  std::ostream* const tied = in_.tie(nullptr);
  std::thread reader([&] {
    std::string line;
    while (std::getline(in_, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF clients
      if (line.empty()) continue;  // blank keep-alives get no response
      if (!queue.push(line, is_cancel_line(line))) {
        // Queue full: shed here, on the reader, so a client flooding its
        // own queue gets immediate structured backpressure while the
        // serving thread keeps answering what was admitted.
        write_line(shed(request_id_of(line), queue.depth()));
      }
    }
    queue.close();
  });
  // Sink always installed: cancel interception works with progress events
  // off too (results are sink-invariant, tested property).
  ConnProgress progress(queue, *this, progress_events);
  session.set_progress_sink(&progress);
  std::size_t answered = 0;
  std::string line;
  while (queue.pop(line)) {
    progress.begin_request();
    write_line(proto.handle_line(line));
    if (handled != nullptr) handled->add();
    ++answered;
  }
  session.set_progress_sink(nullptr);
  reader.join();
  in_.tie(tied);
  return answered;
}

void StreamServer::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(write_mu_);
  out_ << line << '\n';
  out_.flush();
}

}  // namespace nw::net
