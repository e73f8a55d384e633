#include "util/strings.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nw {

std::string_view trim(std::string_view s) noexcept {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

void split(std::string_view s, std::vector<std::string_view>& out,
           std::string_view delims) {
  out.clear();
  // A plain scan: string_view::find_first_of would search `delims` once per
  // character, which costs more than the rest of a reader's line.
  const auto is_delim = [delims](char c) {
    for (const char d : delims) {
      if (c == d) return true;
    }
    return false;
  };
  const std::size_t n = s.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && is_delim(s[i])) ++i;
    const std::size_t start = i;
    while (i < n && !is_delim(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  double v = 0.0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("parse_double: bad number '" + std::string(s) + "'");
  }
  if (!std::isfinite(v)) {
    throw std::invalid_argument("parse_double: non-finite number '" + std::string(s) + "'");
  }
  return v;
}

unsigned long parse_uint(std::string_view s) {
  unsigned long v = 0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("parse_uint: bad integer '" + std::string(s) + "'");
  }
  return v;
}

unsigned long parse_uint_in(std::string_view s, unsigned long max, std::string_view what) {
  unsigned long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || v > max) {
    throw std::invalid_argument(std::string(what) + ": '" + std::string(s) +
                                "' (expected an integer in [0, " + std::to_string(max) +
                                "])");
  }
  return v;
}

double parse_positive_in(std::string_view s, double max, std::string_view what) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || !(v > 0.0 && v <= max)) {
    std::ostringstream os;
    os << what << ": '" << s << "' (expected a number in (0, " << max << "])";
    throw std::invalid_argument(os.str());
  }
  return v;
}

std::optional<std::size_t> to_count(double v) noexcept {
  if (!std::isfinite(v) || v < 0.0 || v != std::floor(v)) return std::nullopt;
  // 2^digits is the first double past size_t; the cast is defined below it.
  if (v >= std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(v);
}

std::span<const std::string_view> LineReader::next() {
  tokens_.clear();
  while (std::getline(is_, line_)) {
    ++lineno_;
    const std::string_view t = trim(line_);
    if (t.empty() || starts_with(t, comment_)) continue;
    split(t, tokens_);
    break;
  }
  return tokens_;
}

void LineReader::fail(const std::string& msg) const {
  throw std::runtime_error(std::string(format_) + " line " + std::to_string(lineno_) +
                           ": " + msg);
}

double LineReader::number(std::string_view tok, std::string_view what) const {
  try {
    return parse_double(tok);
  } catch (const std::invalid_argument& e) {
    fail(std::string(what) + ": " + e.what());
  }
}

unsigned long LineReader::integer(std::string_view tok, std::string_view what) const {
  try {
    return parse_uint(tok);
  } catch (const std::invalid_argument& e) {
    fail(std::string(what) + ": " + e.what());
  }
}

}  // namespace nw
