#include "obs/log.hpp"

#include <cstdio>
#include <ctime>
#include <iostream>
#include <mutex>
#include <string>

namespace nw::obs {

namespace detail {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};
}  // namespace detail

namespace {
std::mutex g_sink_mutex;
std::ostream* g_sink = nullptr;  ///< nullptr = std::cerr

// Per-thread origin labels; plain thread_locals, read only by the owning
// thread when it assembles a line.
thread_local std::string t_thread_label;
thread_local std::uint64_t t_conn_id = 0;

/// "[HH:MM:SS.mmm] " from the wall clock (local time, same as an operator's
/// terminal); millisecond resolution is enough to line lines up with the
/// trace's microsecond spans.
void append_wall_clock(std::string& out) {
  std::timespec ts{};
  std::timespec_get(&ts, TIME_UTC);
  std::tm tm{};
  const std::time_t secs = ts.tv_sec;
  localtime_r(&secs, &tm);
  char buf[64];  // room for any int/long the format could see, not just clock values
  std::snprintf(buf, sizeof(buf), "[%02d:%02d:%02d.%03ld] ", tm.tm_hour,
                tm.tm_min, tm.tm_sec, ts.tv_nsec / 1000000);
  out += buf;
}
}  // namespace

const char* to_string(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kTrace: return "trace";
  }
  return "?";
}

void set_log_level(LogLevel l) noexcept {
  detail::g_log_level.store(static_cast<int>(l), std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(detail::g_log_level.load(std::memory_order_relaxed));
}

void set_log_sink(std::ostream* os) noexcept {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_sink = os;
}

void set_log_thread_name(std::string_view name) {
  t_thread_label.assign(name);
}

void set_log_connection(std::uint64_t id) noexcept { t_conn_id = id; }

namespace detail {

LogLine::~LogLine() {
  if (suppressed_ < 0) return;
  std::string line;
  append_wall_clock(line);
  line += "[nw:";
  line += to_string(level_);
  line += "]";
  if (!t_thread_label.empty()) {
    line += " [";
    line += t_thread_label;
    line += "]";
  }
  if (t_conn_id != 0) {
    line += " [conn ";
    line += std::to_string(t_conn_id);
    line += "]";
  }
  line += " ";
  line += os_.str();
  if (suppressed_ > 0) {
    line += " (";
    line += std::to_string(suppressed_);
    line += " similar suppressed)";
  }
  line += "\n";
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::ostream& os = g_sink ? *g_sink : std::cerr;
  os << line;
  os.flush();
}

}  // namespace detail
}  // namespace nw::obs
