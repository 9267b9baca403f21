// SIP dialog state (RFC 3261 §12, subset).
//
// Tracks the established-call identifiers (Call-ID, local/remote tags and
// URIs, CSeq counters) so endpoints can issue correct in-dialog requests
// (the ACK for a 2xx and the BYE/200 teardown of Fig. 2).
#pragma once

#include <cstdint>
#include <string>

#include "sip/message.hpp"

namespace pbxcap::sip {

class Dialog {
 public:
  Dialog() = default;

  /// Dialog as seen by the caller once the 2xx arrives.
  [[nodiscard]] static Dialog from_uac(const Message& invite, const Message& final_2xx);
  /// Dialog as seen by the callee once it sends the 2xx.
  [[nodiscard]] static Dialog from_uas(const Message& invite, const Message& sent_2xx);

  /// Builds an in-dialog request (BYE, INFO, re-INVITE). Increments the
  /// local CSeq. Caller adds a fresh Via branch before sending.
  [[nodiscard]] Message make_request(Method method);

  /// Builds the end-to-end ACK for the 2xx (CSeq number of the INVITE).
  [[nodiscard]] Message make_ack();

  [[nodiscard]] const std::string& call_id() const noexcept { return call_id_; }
  [[nodiscard]] const NameAddr& local() const noexcept { return local_; }
  [[nodiscard]] const NameAddr& remote() const noexcept { return remote_; }
  [[nodiscard]] const Uri& remote_target() const noexcept { return remote_target_; }

 private:
  std::string call_id_;
  NameAddr local_;
  NameAddr remote_;
  Uri remote_target_;
  std::uint32_t local_cseq_{0};
  std::uint32_t invite_cseq_{0};
};

}  // namespace pbxcap::sip
