// Strict parsing of numeric text from command-line flags and environment
// knobs. A malformed value is an InvalidArgumentError naming where it came
// from, never a silently wrapped, truncated or zero value (std::atoll and
// std::atof read "abc" as 0 and "5x" as 5).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace omega {

/// Parses `text` as a count: decimal digits only (no sign, no suffix), at
/// most `max`. Throws InvalidArgumentError naming `what`.
inline std::uint64_t parse_count(
    const std::string& text, const std::string& what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value > max) {
    throw InvalidArgumentError(
        what +
        (max == std::numeric_limits<std::uint64_t>::max()
             ? std::string(" wants a non-negative integer")
             : " wants an integer in 0-" + std::to_string(max)) +
        ", got: " + text);
  }
  return value;
}

/// Parses `text` as a finite decimal number; the whole text must parse.
/// Throws InvalidArgumentError naming `what`.
inline double parse_number(const std::string& text, const std::string& what) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value)) {
    throw InvalidArgumentError(what + " wants a finite number, got: " + text);
  }
  return value;
}

}  // namespace omega
