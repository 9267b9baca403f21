#include "sip/dialog.hpp"

namespace pbxcap::sip {

Dialog Dialog::from_uac(const Message& invite, const Message& final_2xx) {
  Dialog d;
  d.call_id_ = invite.call_id();
  d.local_ = invite.from();
  d.remote_ = final_2xx.to();  // carries the remote (To) tag
  d.remote_target_ = final_2xx.contact() ? *final_2xx.contact() : invite.request_uri();
  d.local_cseq_ = invite.cseq().number;
  d.invite_cseq_ = invite.cseq().number;
  return d;
}

Dialog Dialog::from_uas(const Message& invite, const Message& sent_2xx) {
  Dialog d;
  d.call_id_ = invite.call_id();
  d.local_ = sent_2xx.to();  // our side, with the tag we assigned
  d.remote_ = invite.from();
  d.remote_target_ = invite.contact() ? *invite.contact() : invite.request_uri();
  d.local_cseq_ = 0;
  d.invite_cseq_ = invite.cseq().number;
  return d;
}

Message Dialog::make_request(Method method) {
  Message msg = Message::request(method, remote_target_);
  msg.from() = local_;
  msg.to() = remote_;
  msg.set_call_id(call_id_);
  msg.set_cseq({++local_cseq_, method});
  return msg;
}

Message Dialog::make_ack() {
  Message msg = Message::request(Method::kAck, remote_target_);
  msg.from() = local_;
  msg.to() = remote_;
  msg.set_call_id(call_id_);
  msg.set_cseq({invite_cseq_, Method::kAck});
  return msg;
}

}  // namespace pbxcap::sip
