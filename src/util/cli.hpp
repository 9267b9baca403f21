// Command-line plumbing shared by the bench and tool mains: one flag parser
// and one checked file writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pbxcap::util {

/// Writes `content` to `path`, checking fopen, fwrite and fclose. Prints
/// "wrote <path>" on success; on failure prints the reason to stderr and
/// returns false.
[[nodiscard]] bool write_file(const std::string& path, std::string_view content);

/// Parses `--name` switches, `--name PATH` strings, `--name N` unsigned
/// numbers and `--name X` finite numbers into caller-owned variables.
/// Anything else is an error: an unknown argument, a valued flag at the end
/// of argv, an unsigned number that parse_u64 rejects or that overflows its
/// variable, or a number that parse_double rejects.
class Flags {
 public:
  Flags& flag(std::string_view name, bool& out);
  Flags& value(std::string_view name, std::string& out);
  Flags& value(std::string_view name, unsigned& out);
  Flags& value(std::string_view name, std::uint64_t& out);
  Flags& value(std::string_view name, double& out);

  /// Parses argv[1..argc); returns an empty string on success, else the error.
  [[nodiscard]] std::string try_parse(int argc, const char* const* argv) const;
  /// Like try_parse, but on error prints it and the usage line to stderr
  /// and exits with status 2.
  void parse(int argc, const char* const* argv) const;

 private:
  /// "usage: <prog> [--fast] [--json PATH] [--threads N]".
  [[nodiscard]] std::string usage(std::string_view prog) const;

  struct Spec {
    std::string name;
    std::variant<bool*, std::string*, unsigned*, std::uint64_t*, double*> out;
  };
  std::vector<Spec> specs_;
};

}  // namespace pbxcap::util
