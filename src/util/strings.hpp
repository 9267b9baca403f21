// Small string utilities used by the SIP parser and report formatters.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pbxcap::util {

/// Splits `s` on `sep`; keeps empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on the first occurrence of `sep`; `rest` empty if `sep` absent.
struct SplitPair {
  std::string_view head;
  std::string_view rest;
  bool found{false};
};
[[nodiscard]] SplitPair split_once(std::string_view s, char sep);

/// Removes ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string to_upper(std::string_view s);

/// Case-insensitive comparison (ASCII), as required for SIP header names.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

[[nodiscard]] bool starts_with_i(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; returns false on any non-digit or overflow.
[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out);

/// Parses a finite decimal number; returns false on trailing bytes, leading
/// whitespace or '+', NaN, infinity or out-of-range magnitude.
[[nodiscard]] bool parse_double(std::string_view s, double& out);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pbxcap::util
