#include "util/cli.hpp"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.hpp"

namespace pbxcap::util {

bool write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(), std::strerror(errno));
    return false;
  }
  const bool written = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), std::strerror(errno));
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

Flags& Flags::flag(std::string_view name, bool& out) {
  specs_.push_back({std::string{name}, &out});
  return *this;
}

Flags& Flags::value(std::string_view name, std::string& out) {
  specs_.push_back({std::string{name}, &out});
  return *this;
}

Flags& Flags::value(std::string_view name, unsigned& out) {
  specs_.push_back({std::string{name}, &out});
  return *this;
}

Flags& Flags::value(std::string_view name, std::uint64_t& out) {
  specs_.push_back({std::string{name}, &out});
  return *this;
}

Flags& Flags::value(std::string_view name, double& out) {
  specs_.push_back({std::string{name}, &out});
  return *this;
}

std::string Flags::try_parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Spec* spec = nullptr;
    for (const Spec& s : specs_) {
      if (s.name == arg) spec = &s;
    }
    if (spec == nullptr) return format("unknown argument '%s'", argv[i]);
    if (bool* const* sw = std::get_if<bool*>(&spec->out)) {
      **sw = true;
      continue;
    }
    if (i + 1 >= argc) return format("%s needs a value", argv[i]);
    const char* value = argv[++i];
    if (std::string* const* str = std::get_if<std::string*>(&spec->out)) {
      **str = value;
      continue;
    }
    if (double* const* x = std::get_if<double*>(&spec->out)) {
      if (!parse_double(value, **x)) {
        return format("%s needs a finite number, got '%s'", argv[i - 1], value);
      }
      continue;
    }
    std::uint64_t n = 0;
    const bool narrow = std::holds_alternative<unsigned*>(spec->out);
    if (!parse_u64(value, n) || (narrow && n > UINT_MAX)) {
      return format("%s needs an unsigned number, got '%s'", argv[i - 1], value);
    }
    if (narrow) {
      *std::get<unsigned*>(spec->out) = static_cast<unsigned>(n);
    } else {
      *std::get<std::uint64_t*>(spec->out) = n;
    }
  }
  return {};
}

void Flags::parse(int argc, const char* const* argv) const {
  const std::string error = try_parse(argc, argv);
  if (error.empty()) return;
  std::fprintf(stderr, "%s\n%s\n", error.c_str(),
               usage(argc > 0 ? argv[0] : "prog").c_str());
  std::exit(2);
}

std::string Flags::usage(std::string_view prog) const {
  const std::size_t slash = prog.rfind('/');
  if (slash != std::string_view::npos) prog.remove_prefix(slash + 1);
  std::string out = "usage: " + std::string{prog};
  for (const Spec& s : specs_) {
    out += " [" + std::string{s.name};
    if (std::holds_alternative<std::string*>(s.out)) out += " PATH";
    if (std::holds_alternative<unsigned*>(s.out) ||
        std::holds_alternative<std::uint64_t*>(s.out)) {
      out += " N";
    }
    if (std::holds_alternative<double*>(s.out)) out += " X";
    out += ']';
  }
  return out;
}

}  // namespace pbxcap::util
