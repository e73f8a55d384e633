#include "util/strings.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace nw {

std::string_view trim(std::string_view s) noexcept {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

std::vector<std::string_view> split(std::string_view s, std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto start = s.find_first_not_of(delims, pos);
    if (start == std::string_view::npos) break;
    auto end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    pos = end;
  }
  return out;
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

std::optional<std::size_t> to_count(double v) noexcept {
  if (!std::isfinite(v) || v < 0.0 || v != std::floor(v)) return std::nullopt;
  // 2^digits is the first double past size_t; the cast is defined below it.
  if (v >= std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(v);
}

}  // namespace nw
