#include "sip/dialog.hpp"

namespace pbxcap::sip {

Dialog Dialog::from_uac(const Message& invite, const Message& final_2xx) {
  Dialog d;
  d.id_ = final_2xx.identity();
  d.remote_target_ = final_2xx.contact() ? *final_2xx.contact() : invite.request_uri();
  d.local_cseq_ = invite.cseq().number;
  d.invite_cseq_ = invite.cseq().number;
  return d;
}

Dialog Dialog::from_uas(const Message& invite, const Message& sent_2xx) {
  Dialog d;
  d.id_ = sent_2xx.identity();
  d.remote_target_ = invite.contact() ? *invite.contact() : invite.request_uri();
  d.local_cseq_ = 0;
  d.invite_cseq_ = invite.cseq().number;
  d.uas_ = true;
  return d;
}

Message Dialog::request(Method method, CSeq cseq) const {
  Message msg = Message::request(method, remote_target_);
  if (uas_) {
    msg.set_identity(std::make_shared<const DialogIdentity>(
        DialogIdentity{call_id(), local(), remote()}));
  } else {
    msg.set_identity(id_);
  }
  msg.set_cseq(cseq);
  return msg;
}

Message Dialog::make_request(Method method) { return request(method, {++local_cseq_, method}); }

Message Dialog::make_ack() { return request(Method::kAck, {invite_cseq_, Method::kAck}); }

}  // namespace pbxcap::sip
