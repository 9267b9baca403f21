#include "sip/message.hpp"

#include "sip/parse.hpp"
#include "util/strings.hpp"

namespace pbxcap::sip {

std::string Via::to_string() const { return wire_text(*this); }

std::optional<Via> Via::parse(std::string_view text) {
  text = util::trim(text);
  if (!util::starts_with_i(text, "SIP/2.0/UDP ")) return std::nullopt;
  text.remove_prefix(12);
  Via via;
  const auto [host_part, params, has_params] = util::split_once(text, ';');
  via.host = std::string{util::trim(host_part)};
  if (via.host.empty()) return std::nullopt;
  if (has_params) {
    for (const auto param : util::split(params, ';')) {
      const auto [name, value, has_value] = util::split_once(util::trim(param), '=');
      if (has_value && util::iequals(util::trim(name), "branch")) {
        via.branch = std::string{util::trim(value)};
      }
    }
  }
  return via;
}

std::string CSeq::to_string() const { return wire_text(*this); }

std::optional<CSeq> CSeq::parse(std::string_view text) {
  const auto [num_part, method_part, has_method] = util::split_once(util::trim(text), ' ');
  if (!has_method) return std::nullopt;
  std::uint64_t n = 0;
  if (!util::parse_u64(util::trim(num_part), n) || n > UINT32_MAX) return std::nullopt;
  const Method m = method_from_string(util::trim(method_part));
  if (m == Method::kUnknown) return std::nullopt;
  return CSeq{static_cast<std::uint32_t>(n), m};
}

std::string NameAddr::to_string() const { return wire_text(*this); }

std::optional<NameAddr> NameAddr::parse(std::string_view text) {
  text = util::trim(text);
  NameAddr out;
  std::string_view uri_part = text;
  std::string_view params;
  if (!text.empty() && text.front() == '<') {
    const auto close = text.find('>');
    if (close == std::string_view::npos) return std::nullopt;
    uri_part = text.substr(1, close - 1);
    params = text.substr(close + 1);
  } else {
    // Bare URI form: params begin at the first semicolon.
    const auto semi = text.find(';');
    if (semi != std::string_view::npos) {
      uri_part = text.substr(0, semi);
      params = text.substr(semi);
    }
  }
  const auto uri = Uri::parse(uri_part);
  if (!uri) return std::nullopt;
  out.uri = *uri;
  for (const auto param : util::split(params, ';')) {
    const auto [name, value, has_value] = util::split_once(util::trim(param), '=');
    if (has_value && util::iequals(util::trim(name), "tag")) {
      out.tag = std::string{util::trim(value)};
    }
  }
  return out;
}

std::shared_ptr<const DialogIdentity> DialogIdentity::with_to_tag(std::string tag) const {
  return std::make_shared<DialogIdentity>(
      DialogIdentity{call_id, from, NameAddr{to.uri, std::move(tag)}});
}

const std::vector<Via>& Message::no_vias() noexcept {
  static const std::vector<Via> none;
  return none;
}

const DialogIdentity& DialogIdentity::none() noexcept {
  static const DialogIdentity empty;
  return empty;
}

DialogIdentity& Message::own_identity() {
  if (!owns_id_ || id_.use_count() != 1) {
    id_ = id_ != nullptr ? std::make_shared<DialogIdentity>(*id_)
                         : std::make_shared<DialogIdentity>();
    owns_id_ = true;
  }
  // Built non-const by the branch above (now or in an earlier call).
  return const_cast<DialogIdentity&>(*id_);
}

std::vector<Via>& Message::vias() {
  if (!owns_vias_ || vias_.use_count() != 1) {
    vias_ = vias_ != nullptr ? std::make_shared<std::vector<Via>>(*vias_)
                             : std::make_shared<std::vector<Via>>();
    owns_vias_ = true;
  }
  return const_cast<std::vector<Via>&>(*vias_);
}

Message Message::request(Method method, Uri request_uri) {
  Message msg;
  msg.is_request_ = true;
  msg.method_ = method;
  msg.request_uri_ = std::move(request_uri);
  return msg;
}

Message Message::response_to(const Message& req, int status_code) {
  Message msg;
  msg.is_request_ = false;
  msg.status_code_ = status_code;
  msg.reason_ = reason_phrase(status_code);
  msg.set_vias(req.vias_);
  msg.set_identity(req.id_);
  msg.cseq_ = req.cseq_;
  return msg;
}

void Message::add_header(std::string name, std::string value) {
  extra_headers_.emplace_back(std::move(name), std::move(value));
}

const std::string* Message::header(std::string_view name) const noexcept {
  for (const auto& [hname, hvalue] : extra_headers_) {
    if (util::iequals(hname, name)) return &hvalue;
  }
  return nullptr;
}

void Message::set_body(std::string body, std::string content_type) {
  body_ = std::move(body);
  content_type_ = std::move(content_type);
}

SipPayload::SipPayload(Message message)
    : msg{std::move(message)}, wire_bytes{sip::wire_bytes(msg)} {}

}  // namespace pbxcap::sip
