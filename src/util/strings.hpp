// Minimal string utilities for the line-oriented text formats (.nlib, .nv,
// .nwspef and the arrivals file) and the name indexes behind them.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nw {

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split `s` on any of the delimiter characters into `out`, dropping empty
/// tokens. `out` is cleared first and its capacity reused, so a reader that
/// passes the same vector for every line allocates nothing per line. The
/// tokens view `s`.
void split(std::string_view s, std::vector<std::string_view>& out,
           std::string_view delims = " \t");

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parse a finite double; throws std::invalid_argument with context on a
/// malformed, out-of-range or non-finite (nan/inf) value.
[[nodiscard]] double parse_double(std::string_view s);

/// Parse a non-negative integer; throws std::invalid_argument on failure.
[[nodiscard]] unsigned long parse_uint(std::string_view s);

/// The one rule for a numeric setting (a CLI flag, a session option): an
/// integer in [0, max], or a number in (0, max]. Anything else throws
/// std::invalid_argument "<what>: '<s>' (expected ... in <range>)".
[[nodiscard]] unsigned long parse_uint_in(std::string_view s, unsigned long max,
                                          std::string_view what);
[[nodiscard]] double parse_positive_in(std::string_view s, double max,
                                       std::string_view what);

/// A count argument (a result limit, a sample count) given as a number:
/// nullopt unless `v` is a non-negative integer. Values past size_t
/// saturate (every count caps a collection size), so nothing is cast out
/// of range.
[[nodiscard]] std::optional<std::size_t> to_count(double v) noexcept;

/// Transparent string hash: a name index keyed by std::string can be probed
/// with a std::string_view without building a temporary string. The call
/// operator is deliberately not noexcept: libstdc++ then stores each key's
/// hash in its node, as it does for std::hash<std::string>, so a probe or a
/// rehash never hashes a stored name again.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// A name -> value index that accepts std::string_view lookups.
template <typename V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// Tokenizing line reader shared by the text formats. It streams one line at
/// a time into a reused buffer, skips blank lines and lines starting with
/// `comment`, and splits the rest on whitespace. Tokens view the buffer and
/// stay valid until the next call to next(). Errors name the format and the
/// 1-based line: "<format> line N: <message>".
class LineReader {
 public:
  LineReader(std::istream& is, std::string_view format, std::string_view comment)
      : is_(is), format_(format), comment_(comment) {}

  /// Tokens of the next non-blank, non-comment line; empty at end of input.
  std::span<const std::string_view> next();

  /// Throw std::runtime_error("<format> line N: <msg>").
  [[noreturn]] void fail(const std::string& msg) const;

  /// parse_double / parse_uint on `tok`; a malformed token fails with the
  /// line number as "<what>: <reason>".
  [[nodiscard]] double number(std::string_view tok, std::string_view what) const;
  [[nodiscard]] unsigned long integer(std::string_view tok, std::string_view what) const;

 private:
  std::istream& is_;
  std::string_view format_;
  std::string_view comment_;
  std::string line_;
  std::vector<std::string_view> tokens_;
  int lineno_ = 0;
};

}  // namespace nw
