// Minimal string utilities for the SPEF-like and liberty-lite parsers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nw {

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on any of the given delimiter characters, dropping empty tokens.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  std::string_view delims = " \t");

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parse a finite double; throws std::invalid_argument with context on a
/// malformed, out-of-range or non-finite (nan/inf) value.
[[nodiscard]] double parse_double(std::string_view s);

/// Parse a non-negative integer; throws std::invalid_argument on failure.
[[nodiscard]] unsigned long parse_uint(std::string_view s);

/// A count argument (a result limit, a sample count) given as a number:
/// nullopt unless `v` is a non-negative integer. Values past size_t
/// saturate (every count caps a collection size), so nothing is cast out
/// of range.
[[nodiscard]] std::optional<std::size_t> to_count(double v) noexcept;

}  // namespace nw
