// Small string utilities used by the SIP parser and report formatters.
#pragma once

#include <charconv>
#include <cstdint>
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

/// Appends the decimal digits of `v` to `out`, with std::to_chars: no
/// locale, no format string, no temporary string.
inline void append_uint(std::string& out, std::uint64_t v) {
  char digits[20];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

/// printf-style formatting into a std::string, for cold paths only: logs,
/// reports and setup. It parses the format twice and allocates a fresh
/// string; text built per SIP message or per call appends to one string
/// with append_uint instead.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pbxcap::util
