#include "sip/sdp.hpp"

#include <algorithm>
#include <cassert>

#include "util/strings.hpp"

namespace pbxcap::sip {

namespace {

/// Walks `text` one field at a time, split on every `sep` the way
/// util::split splits it ("a  b" has an empty middle field, a trailing
/// separator a trailing empty field), without collecting the fields.
class Fields {
 public:
  Fields(std::string_view text, char sep) : rest_{text}, sep_{sep} {}

  /// Sets `field` to the next field; false once the last one was taken.
  bool next(std::string_view& field) {
    if (done_) return false;
    const std::size_t pos = rest_.find(sep_);
    done_ = pos == std::string_view::npos;
    field = rest_.substr(0, pos);
    if (!done_) rest_.remove_prefix(pos + 1);
    return true;
  }

 private:
  std::string_view rest_;
  char sep_;
  bool done_{false};
};

}  // namespace

std::string Sdp::to_string() const {
  // RFC 4566 §5.14 requires at least one format on an m-line. Serializing an
  // empty list would produce "m=audio N RTP/AVP" which parse() rejects, so
  // refuse to build the asymmetric form at the source.
  assert(!audio.payload_types.empty() &&
         "SDP m-line requires at least one payload type");
  // 110 bytes cover the fixed text, the port and the a=ssrc line; each
  // payload type adds at most 4.
  std::string out;
  out.reserve(110 + origin_user.size() + 2 * connection_host.size() +
              4 * audio.payload_types.size());
  out += "v=0\r\no=";
  out += origin_user;
  out += " 0 0 IN IP4 ";
  out += connection_host;
  out += "\r\ns=pbxcap call\r\nc=IN IP4 ";
  out += connection_host;
  out += "\r\nt=0 0\r\nm=audio ";
  util::append_uint(out, audio.rtp_port);
  out += " RTP/AVP";
  for (const auto pt : audio.payload_types) {
    out += ' ';
    util::append_uint(out, pt);
  }
  out += "\r\n";
  if (audio.ssrc != 0) {
    out += "a=ssrc:";
    util::append_uint(out, audio.ssrc);
    out += " cname:pbxcap\r\n";
  }
  return out;
}

std::optional<Sdp> Sdp::parse(std::string_view text) {
  Sdp sdp;
  bool have_media = false;
  Fields lines{text, '\n'};
  for (std::string_view raw_line; lines.next(raw_line);) {
    std::string_view line = util::trim(raw_line);
    if (line.size() < 2 || line[1] != '=') continue;
    const char type = line[0];
    const std::string_view value = line.substr(2);
    if (type == 'c') {
      // c=IN IP4 <host>
      Fields parts{value, ' '};
      std::string_view field;
      if (parts.next(field) && parts.next(field) && parts.next(field)) {
        sdp.connection_host.assign(field);
      }
    } else if (type == 'o') {
      sdp.origin_user.assign(value.substr(0, value.find(' ')));
    } else if (type == 'm') {
      // m=audio <port> RTP/AVP <pt...>
      Fields parts{value, ' '};
      std::string_view field;
      parts.next(field);
      if (field != "audio") continue;  // ignore non-audio
      // An audio m-line with no format list ("m=audio N RTP/AVP") violates
      // RFC 4566 §5.14 — reject it instead of silently skipping, so
      // parse(to_string(x)) can never drop media that was serialized.
      std::string_view port_field;
      if (!parts.next(port_field) || !parts.next(field) || !parts.next(field)) {
        return std::nullopt;
      }
      std::uint64_t port = 0;
      if (!util::parse_u64(port_field, port) || port > 65535) return std::nullopt;
      sdp.audio.rtp_port = static_cast<std::uint16_t>(port);
      do {
        std::uint64_t pt = 0;
        if (!util::parse_u64(field, pt) || pt > 127) return std::nullopt;
        if (sdp.audio.payload_types.full()) return std::nullopt;
        sdp.audio.payload_types.push_back(static_cast<std::uint8_t>(pt));
      } while (parts.next(field));
      have_media = true;
    } else if (type == 'a') {
      // a=ssrc:<n> cname:...
      if (util::starts_with_i(value, "ssrc:")) {
        const auto rest = value.substr(5);
        std::uint64_t ssrc = 0;
        if (util::parse_u64(rest.substr(0, rest.find(' ')), ssrc) && ssrc <= 0xffffffffULL) {
          sdp.audio.ssrc = static_cast<std::uint32_t>(ssrc);
        }
      }
    }
  }
  if (!have_media || sdp.connection_host.empty()) return std::nullopt;
  return sdp;
}

std::optional<std::uint8_t> Sdp::negotiate(const Sdp& offer, const Sdp& answer) {
  for (const auto pt : offer.audio.payload_types) {
    if (answer.audio.payload_types.contains(pt)) return pt;
  }
  return std::nullopt;
}

}  // namespace pbxcap::sip
