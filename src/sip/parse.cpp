#include "sip/parse.hpp"

#include "util/strings.hpp"

namespace pbxcap::sip {

// MessageCodec is a friend of Message, giving the parser access to the
// private default constructor and fields without widening the public API.
struct MessageCodec {
  static Message make_request(Method m, Uri uri) { return Message::request(m, std::move(uri)); }

  static Message make_response(int code, std::string_view reason) {
    Message msg;
    msg.is_request_ = false;
    msg.status_code_ = code;
    msg.reason_text_ = std::make_shared<const std::string>(reason);
    msg.reason_ = *msg.reason_text_;
    return msg;
  }

  static ParseResult parse(std::string_view text);
};

std::string serialize(const Message& msg) { return wire_text(msg); }

std::uint32_t wire_bytes(const Message& msg) noexcept {
  CountingSink sink;
  write_wire(msg, sink);
  return static_cast<std::uint32_t>(sink.bytes());
}

namespace {

struct HeaderLine {
  std::string_view name;
  std::string_view value;
};

/// Splits raw text into start line, header lines, and body. Accepts both
/// CRLF and bare LF line endings.
bool split_lines(std::string_view text, std::string_view& start_line,
                 std::vector<HeaderLine>& headers, std::string_view& body, std::string& error) {
  std::size_t pos = 0;
  const auto next_line = [&](std::string_view& line) -> bool {
    if (pos >= text.size()) return false;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      line = text.substr(pos);
      pos = text.size();
      return true;
    }
    std::size_t end = eol;
    if (end > pos && text[end - 1] == '\r') --end;
    line = text.substr(pos, end - pos);
    pos = eol + 1;
    return true;
  };

  if (!next_line(start_line) || start_line.empty()) {
    error = "missing start line";
    return false;
  }
  std::string_view line;
  while (next_line(line)) {
    if (line.empty()) {  // blank line: body follows
      body = text.substr(pos);
      return true;
    }
    const auto [name, value, has_colon] = util::split_once(line, ':');
    if (!has_colon) {
      error = "malformed header line";
      return false;
    }
    headers.push_back({util::trim(name), util::trim(value)});
  }
  body = {};
  return true;  // no blank line: message without body
}

}  // namespace

ParseResult MessageCodec::parse(std::string_view text) {
  std::string_view start_line;
  std::vector<HeaderLine> headers;
  std::string_view body;
  std::string error;
  if (!split_lines(text, start_line, headers, body, error)) return {std::nullopt, error};

  Message msg;
  if (util::starts_with_i(start_line, "SIP/2.0 ")) {
    // Status line: SIP/2.0 <code> <reason>
    std::string_view rest = start_line.substr(8);
    const auto [code_part, reason, has_reason] = util::split_once(rest, ' ');
    std::uint64_t code = 0;
    if (!util::parse_u64(util::trim(code_part), code) || code < 100 || code > 699) {
      return {std::nullopt, "bad status code"};
    }
    msg = make_response(static_cast<int>(code),
                        has_reason ? util::trim(reason) : std::string_view{});
  } else {
    // Request line: <METHOD> <uri> SIP/2.0
    const auto parts = util::split(start_line, ' ');
    if (parts.size() != 3 || !util::iequals(parts[2], "SIP/2.0")) {
      return {std::nullopt, "bad request line"};
    }
    const Method m = method_from_string(parts[0]);
    if (m == Method::kUnknown) return {std::nullopt, "unknown method"};
    const auto uri = Uri::parse(parts[1]);
    if (!uri) return {std::nullopt, "bad request-URI"};
    msg = make_request(m, *uri);
  }

  auto vias = std::make_shared<std::vector<Via>>();
  auto id = std::make_shared<DialogIdentity>();
  bool have_from = false;
  bool have_to = false;
  bool have_call_id = false;
  bool have_cseq = false;
  std::uint64_t declared_length = body.size();

  for (const auto& [name, value] : headers) {
    if (util::iequals(name, "Via") || util::iequals(name, "v")) {
      const auto via = Via::parse(value);
      if (!via) return {std::nullopt, "bad Via"};
      vias->push_back(*via);
    } else if (util::iequals(name, "From") || util::iequals(name, "f")) {
      const auto addr = NameAddr::parse(value);
      if (!addr) return {std::nullopt, "bad From"};
      id->from = *addr;
      have_from = true;
    } else if (util::iequals(name, "To") || util::iequals(name, "t")) {
      const auto addr = NameAddr::parse(value);
      if (!addr) return {std::nullopt, "bad To"};
      id->to = *addr;
      have_to = true;
    } else if (util::iequals(name, "Call-ID") || util::iequals(name, "i")) {
      id->call_id = std::string{value};
      have_call_id = true;
    } else if (util::iequals(name, "CSeq")) {
      const auto cseq = CSeq::parse(value);
      if (!cseq) return {std::nullopt, "bad CSeq"};
      msg.cseq_ = *cseq;
      have_cseq = true;
    } else if (util::iequals(name, "Max-Forwards")) {
      std::uint64_t mf = 0;
      if (!util::parse_u64(value, mf) || mf > 255) return {std::nullopt, "bad Max-Forwards"};
      msg.max_forwards_ = static_cast<int>(mf);
    } else if (util::iequals(name, "Contact") || util::iequals(name, "m")) {
      std::string_view uri_part = value;
      if (!uri_part.empty() && uri_part.front() == '<' && uri_part.back() == '>') {
        uri_part = uri_part.substr(1, uri_part.size() - 2);
      }
      const auto uri = Uri::parse(uri_part);
      if (!uri) return {std::nullopt, "bad Contact"};
      msg.contact_ = *uri;
    } else if (util::iequals(name, "Content-Type") || util::iequals(name, "c")) {
      msg.content_type_ = std::string{value};
    } else if (util::iequals(name, "Content-Length") || util::iequals(name, "l")) {
      if (!util::parse_u64(value, declared_length)) return {std::nullopt, "bad Content-Length"};
    } else {
      msg.extra_headers_.emplace_back(std::string{name}, std::string{value});
    }
  }

  if (!have_from) return {std::nullopt, "missing From"};
  if (!have_to) return {std::nullopt, "missing To"};
  if (!have_call_id) return {std::nullopt, "missing Call-ID"};
  if (!have_cseq) return {std::nullopt, "missing CSeq"};
  if (declared_length > body.size()) return {std::nullopt, "truncated body"};
  msg.body_ = std::string{body.substr(0, declared_length)};
  msg.vias_ = std::move(vias);
  msg.id_ = std::move(id);
  msg.owns_vias_ = msg.owns_id_ = true;

  return {std::move(msg), {}};
}

ParseResult parse_message(std::string_view text) { return MessageCodec::parse(text); }

}  // namespace pbxcap::sip
