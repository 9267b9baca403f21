// SIP wire-format serializer and parser.
//
// Implements enough of the RFC 3261 grammar to round-trip every message the
// testbed generates: request/status lines, the structured headers the stack
// uses (Via, From, To, Call-ID, CSeq, Max-Forwards, Contact, Content-Type,
// Content-Length), arbitrary extension headers, and a body.
//
// The wire format is written in one place, write_wire(), into a sink: a
// StringSink builds the text (serialize), a CountingSink only adds up its
// length (wire_bytes), so sizing a message allocates nothing.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sip/message.hpp"

namespace pbxcap::sip {

/// write_wire sink that appends the text to a string.
class StringSink {
 public:
  explicit StringSink(std::string& out) noexcept : out_{out} {}
  void text(std::string_view s) { out_.append(s); }
  void number(std::int64_t n) {
    char buf[20];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
  }

 private:
  std::string& out_;
};

/// write_wire sink that counts the bytes of the text without building it.
class CountingSink {
 public:
  void text(std::string_view s) noexcept { bytes_ += s.size(); }
  void number(std::int64_t n) noexcept {
    if (n < 0) ++bytes_;  // the sign
    do {
      ++bytes_;
      n /= 10;
    } while (n != 0);
  }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::size_t bytes_{0};
};

template <class Sink>
void write_wire(const Uri& uri, Sink& sink) {
  sink.text("sip:");
  if (!uri.user().empty()) {
    sink.text(uri.user());
    sink.text("@");
  }
  sink.text(uri.host());
  if (uri.port() != 5060) {
    sink.text(":");
    sink.number(uri.port());
  }
}

template <class Sink>
void write_wire(const Via& via, Sink& sink) {
  sink.text("SIP/2.0/UDP ");
  sink.text(via.host);
  if (!via.branch.empty()) {
    sink.text(";branch=");
    sink.text(via.branch);
  }
}

template <class Sink>
void write_wire(const CSeq& cseq, Sink& sink) {
  sink.number(cseq.number);
  sink.text(" ");
  sink.text(to_string(cseq.method));
}

template <class Sink>
void write_wire(const NameAddr& addr, Sink& sink) {
  sink.text("<");
  write_wire(addr.uri, sink);
  sink.text(">");
  if (!addr.tag.empty()) {
    sink.text(";tag=");
    sink.text(addr.tag);
  }
}

/// Writes the message in SIP/2.0 textual form (CRLF line endings,
/// Content-Length always emitted).
template <class Sink>
void write_wire(const Message& msg, Sink& sink) {
  if (msg.is_request()) {
    sink.text(to_string(msg.method()));
    sink.text(" ");
    write_wire(msg.request_uri(), sink);
    sink.text(" SIP/2.0\r\n");
  } else {
    sink.text("SIP/2.0 ");
    sink.number(msg.status_code());
    sink.text(" ");
    sink.text(msg.reason());
    sink.text("\r\n");
  }
  for (const auto& via : msg.vias()) {
    sink.text("Via: ");
    write_wire(via, sink);
    sink.text("\r\n");
  }
  if (msg.is_request()) {
    sink.text("Max-Forwards: ");
    sink.number(msg.max_forwards());
    sink.text("\r\n");
  }
  sink.text("From: ");
  write_wire(msg.from(), sink);
  sink.text("\r\nTo: ");
  write_wire(msg.to(), sink);
  sink.text("\r\nCall-ID: ");
  sink.text(msg.call_id());
  sink.text("\r\nCSeq: ");
  write_wire(msg.cseq(), sink);
  sink.text("\r\n");
  if (msg.contact()) {
    sink.text("Contact: <");
    write_wire(*msg.contact(), sink);
    sink.text(">\r\n");
  }
  for (const auto& [name, value] : msg.extra_headers()) {
    sink.text(name);
    sink.text(": ");
    sink.text(value);
    sink.text("\r\n");
  }
  if (!msg.body().empty()) {
    sink.text("Content-Type: ");
    sink.text(msg.content_type());
    sink.text("\r\n");
  }
  sink.text("Content-Length: ");
  sink.number(static_cast<std::int64_t>(msg.body().size()));
  sink.text("\r\n\r\n");
  sink.text(msg.body());
}

/// The text write_wire(value, StringSink) produces.
template <class T>
[[nodiscard]] std::string wire_text(const T& value) {
  std::string out;
  StringSink sink{out};
  write_wire(value, sink);
  return out;
}

struct ParseResult {
  std::optional<Message> message;
  std::string error;  // non-empty iff message is nullopt

  [[nodiscard]] bool ok() const noexcept { return message.has_value(); }
};

/// The message's wire text (write_wire into a StringSink).
[[nodiscard]] std::string serialize(const Message& msg);

/// The message's wire size in bytes, counted without building the text.
[[nodiscard]] std::uint32_t wire_bytes(const Message& msg) noexcept;

/// Parses a full SIP message. Strict on structure (start line, mandatory
/// headers present and well-formed), lenient on unknown headers.
[[nodiscard]] ParseResult parse_message(std::string_view text);

}  // namespace pbxcap::sip
