// SIP message model (RFC 3261 subset).
//
// Packet sizes on the simulated network are real SIP text sizes, but a sent
// message is never serialized: its SipPayload counts the bytes of the wire
// format once, when it is built (wire_bytes in parse.hpp, the same walk that
// serialize() writes). The payload is immutable and carried by shared_ptr,
// so every hop, a retransmission and a cross-shard hand-off all share one
// object and nothing is re-parsed or copied.
//
// What is shared. A message holds its dialog's identity (Call-ID, From and
// To with their tags) and its Via list as pointers to immutable,
// reference-counted blocks. response_to copies the two pointers, so a
// request, its responses, both transaction sides, the sip::Dialog and the
// in-dialog requests built from it all read one identity block; the reason
// phrase views reason_phrase()'s static table. A To-tag is added once per
// dialog (DialogIdentity::with_to_tag) and the tagged block is shared by
// every later response. The mutable accessors (from(), to(), vias(),
// set_call_id) are copy-on-write: they copy a shared block before changing
// it, so an edit never shows through another message. A parsed message
// owns its blocks and its reason text.
#pragma once

#include <cstdint>
#include <memory>
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

/// The identity a dialog's messages share: Call-ID, From and To with their
/// tags. Immutable once shared; see the file comment.
struct DialogIdentity {
  std::string call_id;
  NameAddr from;
  NameAddr to;

  /// A new block equal to this one with To-tag `tag`: what a UAS builds once
  /// per dialog and shares with each response it sends in it.
  [[nodiscard]] std::shared_ptr<const DialogIdentity> with_to_tag(std::string tag) const;
  [[nodiscard]] bool operator==(const DialogIdentity&) const = default;

  /// The empty identity read through a null block pointer.
  [[nodiscard]] static const DialogIdentity& none() noexcept;
  [[nodiscard]] static const DialogIdentity& of(
      const std::shared_ptr<const DialogIdentity>& id) noexcept {
    return id != nullptr ? *id : none();
  }
};

class Message {
 public:
  /// An empty request shell; prefer the named constructors below.
  Message() = default;

  /// Builds a request line skeleton; callers fill the standard headers.
  [[nodiscard]] static Message request(Method method, Uri request_uri);
  /// Builds a response to `req` per RFC 3261 §8.2.6: shares the request's
  /// Via list and identity and copies its CSeq; copies no string. The TU
  /// then sets the dialog's tagged identity (set_identity) or a To-tag.
  [[nodiscard]] static Message response_to(const Message& req, int status_code);

  [[nodiscard]] bool is_request() const noexcept { return is_request_; }
  [[nodiscard]] bool is_response() const noexcept { return !is_request_; }

  // -- request line --
  [[nodiscard]] Method method() const noexcept { return method_; }
  [[nodiscard]] const Uri& request_uri() const noexcept { return request_uri_; }

  // -- status line --
  [[nodiscard]] int status_code() const noexcept { return status_code_; }
  [[nodiscard]] std::string_view reason() const noexcept { return reason_; }

  // -- Via list: shared with the responses; vias() copies it on write --
  std::vector<Via>& vias();
  [[nodiscard]] const std::vector<Via>& vias() const noexcept {
    return vias_ != nullptr ? *vias_ : no_vias();
  }
  [[nodiscard]] const Via* top_via() const noexcept {
    return vias_ == nullptr || vias_->empty() ? nullptr : &vias_->front();
  }
  [[nodiscard]] const std::shared_ptr<const std::vector<Via>>& via_list() const noexcept {
    return vias_;
  }
  /// Shares `vias` (another message's list) as this message's Via list.
  void set_vias(std::shared_ptr<const std::vector<Via>> vias) noexcept {
    vias_ = std::move(vias);
    owns_vias_ = false;
  }

  // -- identity: Call-ID, From, To; from()/to()/set_call_id copy on write --
  [[nodiscard]] const std::shared_ptr<const DialogIdentity>& identity() const noexcept {
    return id_;
  }
  void set_identity(std::shared_ptr<const DialogIdentity> id) noexcept {
    id_ = std::move(id);
    owns_id_ = false;
  }

  NameAddr& from() { return own_identity().from; }
  [[nodiscard]] const NameAddr& from() const noexcept { return DialogIdentity::of(id_).from; }
  NameAddr& to() { return own_identity().to; }
  [[nodiscard]] const NameAddr& to() const noexcept { return DialogIdentity::of(id_).to; }

  void set_call_id(std::string id) { own_identity().call_id = std::move(id); }
  [[nodiscard]] const std::string& call_id() const noexcept {
    return DialogIdentity::of(id_).call_id;
  }

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

  [[nodiscard]] static const std::vector<Via>& no_vias() noexcept;
  /// The identity block, copied first unless this message built it and is
  /// its only holder.
  DialogIdentity& own_identity();

  bool is_request_{true};
  // Set while the block was built by this message (or a copy of it), never
  // for a block handed in: only such a block is non-const and may be
  // written in place once its use count is one.
  bool owns_id_{false};
  bool owns_vias_{false};
  Method method_{Method::kUnknown};
  int status_code_{0};
  Uri request_uri_;
  std::string_view reason_;  // reason_phrase()'s table, or *reason_text_
  std::shared_ptr<const std::string> reason_text_;  // a parsed status line's own phrase

  std::shared_ptr<const std::vector<Via>> vias_;
  std::shared_ptr<const DialogIdentity> id_;
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
