#include "sip/uri.hpp"

#include "sip/parse.hpp"
#include "util/strings.hpp"

namespace pbxcap::sip {

std::string Uri::to_string() const { return wire_text(*this); }

std::optional<Uri> Uri::parse(std::string_view text) {
  using util::parse_u64;
  using util::starts_with_i;
  text = util::trim(text);
  if (!starts_with_i(text, "sip:")) return std::nullopt;
  text.remove_prefix(4);
  if (text.empty()) return std::nullopt;

  std::string user;
  if (const auto at = text.find('@'); at != std::string_view::npos) {
    user = std::string{text.substr(0, at)};
    if (user.empty()) return std::nullopt;
    text.remove_prefix(at + 1);
  }

  std::uint16_t port = 5060;
  std::string_view host = text;
  if (const auto colon = text.rfind(':'); colon != std::string_view::npos) {
    std::uint64_t p = 0;
    if (!parse_u64(text.substr(colon + 1), p) || p == 0 || p > 65535) return std::nullopt;
    port = static_cast<std::uint16_t>(p);
    host = text.substr(0, colon);
  }
  if (host.empty()) return std::nullopt;
  return Uri{std::move(user), std::string{host}, port};
}

}  // namespace pbxcap::sip
