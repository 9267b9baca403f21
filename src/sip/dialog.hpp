// SIP dialog state (RFC 3261 §12, subset).
//
// Tracks the established-call identifiers so endpoints can issue correct
// in-dialog requests (the ACK for a 2xx and the BYE/200 teardown of Fig. 2).
// A dialog is the 2xx's identity block (Call-ID, From and To with both tags;
// see message.hpp), shared and never copied, plus the remote target and the
// two CSeq counters. The UAC's in-dialog requests carry that block as is; a
// UAS sends with From and To swapped, so each of its requests builds a
// reversed copy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sip/message.hpp"

namespace pbxcap::sip {

class Dialog {
 public:
  Dialog() = default;

  /// Dialog as seen by the caller once the 2xx arrives. The 2xx echoes the
  /// INVITE's Call-ID and From (§8.2.6.2) and adds the remote To-tag.
  [[nodiscard]] static Dialog from_uac(const Message& invite, const Message& final_2xx);
  /// Dialog as seen by the callee once it sends the 2xx.
  [[nodiscard]] static Dialog from_uas(const Message& invite, const Message& sent_2xx);

  /// Builds an in-dialog request (BYE, INFO, re-INVITE). Increments the
  /// local CSeq. Caller adds a fresh Via branch before sending.
  [[nodiscard]] Message make_request(Method method);

  /// Builds the end-to-end ACK for the 2xx (CSeq number of the INVITE).
  [[nodiscard]] Message make_ack();

  [[nodiscard]] const std::string& call_id() const noexcept {
    return DialogIdentity::of(id_).call_id;
  }
  [[nodiscard]] const NameAddr& local() const noexcept {
    return uas_ ? DialogIdentity::of(id_).to : DialogIdentity::of(id_).from;
  }
  [[nodiscard]] const NameAddr& remote() const noexcept {
    return uas_ ? DialogIdentity::of(id_).from : DialogIdentity::of(id_).to;
  }
  [[nodiscard]] const Uri& remote_target() const noexcept { return remote_target_; }
  /// The 2xx's identity block: From is the UAC, To the UAS with its tag.
  [[nodiscard]] const std::shared_ptr<const DialogIdentity>& identity() const noexcept {
    return id_;
  }

 private:
  /// A request carrying the identity in this side's orientation.
  [[nodiscard]] Message request(Method method, CSeq cseq) const;

  std::shared_ptr<const DialogIdentity> id_;
  Uri remote_target_;
  std::uint32_t local_cseq_{0};
  std::uint32_t invite_cseq_{0};
  bool uas_{false};
};

}  // namespace pbxcap::sip
