// SIP message model (RFC 3261 subset).
//
// Packet sizes on the simulated network are real SIP text sizes, but a sent
// message is never serialized: its SipPayload counts the bytes of the wire
// format once, when it is built (wire_bytes in parse.hpp, the same walk that
// serialize() writes). The payload is immutable and carried by shared_ptr,
// so every hop, a retransmission and a cross-shard hand-off all share one
// object and nothing is re-parsed or copied.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "sip/types.hpp"
#include "sip/uri.hpp"

namespace pbxcap::sip {

/// One Via hop: protocol fixed to SIP/2.0/UDP; host plus branch parameter.
struct Via {
  std::string host;
  std::string branch;  // RFC 3261 magic-cookie branches: "z9hG4bK..."

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Via> parse(std::string_view text);
  [[nodiscard]] bool operator==(const Via&) const = default;
};

/// CSeq header value.
struct CSeq {
  std::uint32_t number{0};
  Method method{Method::kUnknown};

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<CSeq> parse(std::string_view text);
  [[nodiscard]] bool operator==(const CSeq&) const = default;
};

/// Name-addr with tag parameter, as used in From/To headers:
/// "<sip:user@host>;tag=abc".
struct NameAddr {
  Uri uri;
  std::string tag;  // empty when absent

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<NameAddr> parse(std::string_view text);
  [[nodiscard]] bool operator==(const NameAddr&) const = default;
};

class Message {
 public:
  /// An empty request shell; prefer the named constructors below.
  Message() = default;

  /// Builds a request line skeleton; callers fill the standard headers.
  [[nodiscard]] static Message request(Method method, Uri request_uri);
  /// Builds a response to `req` per RFC 3261 §8.2.6 (copies Via/From/To/
  /// Call-ID/CSeq; the TU may add a To-tag afterwards).
  [[nodiscard]] static Message response_to(const Message& req, int status_code);

  [[nodiscard]] bool is_request() const noexcept { return is_request_; }
  [[nodiscard]] bool is_response() const noexcept { return !is_request_; }

  // -- request line --
  [[nodiscard]] Method method() const noexcept { return method_; }
  [[nodiscard]] const Uri& request_uri() const noexcept { return request_uri_; }

  // -- status line --
  [[nodiscard]] int status_code() const noexcept { return status_code_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

  // -- standard headers (structured access) --
  std::vector<Via>& vias() noexcept { return vias_; }
  [[nodiscard]] const std::vector<Via>& vias() const noexcept { return vias_; }
  [[nodiscard]] const Via* top_via() const noexcept { return vias_.empty() ? nullptr : &vias_.front(); }

  NameAddr& from() noexcept { return from_; }
  [[nodiscard]] const NameAddr& from() const noexcept { return from_; }
  NameAddr& to() noexcept { return to_; }
  [[nodiscard]] const NameAddr& to() const noexcept { return to_; }

  void set_call_id(std::string id) { call_id_ = std::move(id); }
  [[nodiscard]] const std::string& call_id() const noexcept { return call_id_; }

  void set_cseq(CSeq cseq) noexcept { cseq_ = cseq; }
  [[nodiscard]] const CSeq& cseq() const noexcept { return cseq_; }

  void set_max_forwards(int n) noexcept { max_forwards_ = n; }
  [[nodiscard]] int max_forwards() const noexcept { return max_forwards_; }

  void set_contact(std::optional<Uri> contact) { contact_ = std::move(contact); }
  [[nodiscard]] const std::optional<Uri>& contact() const noexcept { return contact_; }

  // -- extension headers (order-preserving, case-insensitive names) --
  void add_header(std::string name, std::string value);
  [[nodiscard]] const std::string* header(std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& extra_headers()
      const noexcept {
    return extra_headers_;
  }

  // -- body --
  void set_body(std::string body, std::string content_type);
  [[nodiscard]] const std::string& body() const noexcept { return body_; }
  [[nodiscard]] const std::string& content_type() const noexcept { return content_type_; }

 private:
  friend struct MessageCodec;

  bool is_request_{true};
  Method method_{Method::kUnknown};
  Uri request_uri_;
  int status_code_{0};
  std::string reason_;

  std::vector<Via> vias_;
  NameAddr from_;
  NameAddr to_;
  std::string call_id_;
  CSeq cseq_;
  int max_forwards_{70};
  std::optional<Uri> contact_;
  std::vector<std::pair<std::string, std::string>> extra_headers_;
  std::string body_;
  std::string content_type_;
};

/// A built message on its way through the network layer. Immutable: the
/// transaction layer keeps the same payload to retransmit it.
struct SipPayload final : net::Payload {
  explicit SipPayload(Message message);
  const Message msg;
  const std::uint32_t wire_bytes;  // the SIP text's size, without UDP/IP/Ethernet
};

}  // namespace pbxcap::sip
