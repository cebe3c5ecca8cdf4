#include "of/match.h"

namespace sdnshield::of {

std::string toString(MatchField field) {
  switch (field) {
    case MatchField::kInPort:
      return "IN_PORT";
    case MatchField::kEthSrc:
      return "ETH_SRC";
    case MatchField::kEthDst:
      return "ETH_DST";
    case MatchField::kEthType:
      return "ETH_TYPE";
    case MatchField::kVlanId:
      return "VLAN_ID";
    case MatchField::kIpSrc:
      return "IP_SRC";
    case MatchField::kIpDst:
      return "IP_DST";
    case MatchField::kIpProto:
      return "IP_PROTO";
    case MatchField::kTpSrc:
      return "TP_SRC";
    case MatchField::kTpDst:
      return "TP_DST";
  }
  return "FIELD_UNKNOWN";
}

std::string MaskedIpv4::toString() const {
  std::string out;
  appendTo(out);
  return out;
}

void MaskedIpv4::appendTo(std::string& out) const {
  value.appendTo(out);
  if (mask.value() == 0xffffffffu) return;
  out += " MASK ";
  mask.appendTo(out);
}

namespace {

template <typename T>
bool exactMatches(const std::optional<T>& want, const std::optional<T>& got) {
  if (!want) return true;
  return got && *got == *want;
}

template <typename T>
bool exactMatches(const std::optional<T>& want, const T& got) {
  return !want || *want == got;
}

// Wider-or-equal test for exact-or-wildcard fields.
template <typename T>
bool exactSubsumes(const std::optional<T>& wide, const std::optional<T>& narrow) {
  if (!wide) return true;           // wildcard subsumes everything
  return narrow && *narrow == *wide;
}

template <typename T>
bool exactOverlaps(const std::optional<T>& a, const std::optional<T>& b) {
  if (!a || !b) return true;
  return *a == *b;
}

}  // namespace

bool FlowMatch::matches(const HeaderFields& pkt) const {
  if (!exactMatches(inPort, pkt.inPort)) return false;
  if (!exactMatches(ethSrc, pkt.ethSrc)) return false;
  if (!exactMatches(ethDst, pkt.ethDst)) return false;
  if (!exactMatches(ethType, pkt.ethType)) return false;
  if (!exactMatches(vlanId, pkt.vlanId)) return false;
  if (ipSrc && (!pkt.ipSrc || !ipSrc->matches(*pkt.ipSrc))) return false;
  if (ipDst && (!pkt.ipDst || !ipDst->matches(*pkt.ipDst))) return false;
  if (!exactMatches(ipProto, pkt.ipProto)) return false;
  if (!exactMatches(tpSrc, pkt.tpSrc)) return false;
  if (!exactMatches(tpDst, pkt.tpDst)) return false;
  return true;
}

bool FlowMatch::subsumes(const FlowMatch& other) const {
  if (!exactSubsumes(inPort, other.inPort)) return false;
  if (!exactSubsumes(ethSrc, other.ethSrc)) return false;
  if (!exactSubsumes(ethDst, other.ethDst)) return false;
  if (!exactSubsumes(ethType, other.ethType)) return false;
  if (!exactSubsumes(vlanId, other.vlanId)) return false;
  if (ipSrc && (!other.ipSrc || !ipSrc->subsumes(*other.ipSrc))) return false;
  if (ipDst && (!other.ipDst || !ipDst->subsumes(*other.ipDst))) return false;
  if (!exactSubsumes(ipProto, other.ipProto)) return false;
  if (!exactSubsumes(tpSrc, other.tpSrc)) return false;
  if (!exactSubsumes(tpDst, other.tpDst)) return false;
  return true;
}

bool FlowMatch::overlaps(const FlowMatch& other) const {
  if (!exactOverlaps(inPort, other.inPort)) return false;
  if (!exactOverlaps(ethSrc, other.ethSrc)) return false;
  if (!exactOverlaps(ethDst, other.ethDst)) return false;
  if (!exactOverlaps(ethType, other.ethType)) return false;
  if (!exactOverlaps(vlanId, other.vlanId)) return false;
  if (ipSrc && other.ipSrc && !ipSrc->overlaps(*other.ipSrc)) return false;
  if (ipDst && other.ipDst && !ipDst->overlaps(*other.ipDst)) return false;
  if (!exactOverlaps(ipProto, other.ipProto)) return false;
  if (!exactOverlaps(tpSrc, other.tpSrc)) return false;
  if (!exactOverlaps(tpDst, other.tpDst)) return false;
  return true;
}

namespace {

template <typename T>
bool mergeExact(const std::optional<T>& a, const std::optional<T>& b,
                std::optional<T>& out) {
  if (a && b) {
    if (*a != *b) return false;
    out = a;
  } else {
    out = a ? a : b;
  }
  return true;
}

bool mergeMasked(const std::optional<MaskedIpv4>& a,
                 const std::optional<MaskedIpv4>& b,
                 std::optional<MaskedIpv4>& out) {
  if (a && b) {
    if (!a->overlaps(*b)) return false;
    // Union of the constrained bits; values agree on the common bits.
    std::uint32_t mask = a->mask.value() | b->mask.value();
    std::uint32_t value = (a->value.value() & a->mask.value()) |
                          (b->value.value() & b->mask.value());
    out = MaskedIpv4{Ipv4Address{value}, Ipv4Address{mask}};
  } else {
    out = a ? a : b;
  }
  return true;
}

}  // namespace

std::optional<FlowMatch> FlowMatch::intersect(const FlowMatch& other) const {
  FlowMatch out;
  if (!mergeExact(inPort, other.inPort, out.inPort)) return std::nullopt;
  if (!mergeExact(ethSrc, other.ethSrc, out.ethSrc)) return std::nullopt;
  if (!mergeExact(ethDst, other.ethDst, out.ethDst)) return std::nullopt;
  if (!mergeExact(ethType, other.ethType, out.ethType)) return std::nullopt;
  if (!mergeExact(vlanId, other.vlanId, out.vlanId)) return std::nullopt;
  if (!mergeMasked(ipSrc, other.ipSrc, out.ipSrc)) return std::nullopt;
  if (!mergeMasked(ipDst, other.ipDst, out.ipDst)) return std::nullopt;
  if (!mergeExact(ipProto, other.ipProto, out.ipProto)) return std::nullopt;
  if (!mergeExact(tpSrc, other.tpSrc, out.tpSrc)) return std::nullopt;
  if (!mergeExact(tpDst, other.tpDst, out.tpDst)) return std::nullopt;
  return out;
}

bool FlowMatch::isWildcardAll() const { return constrainedFieldCount() == 0; }

int FlowMatch::constrainedFieldCount() const {
  int n = 0;
  n += inPort.has_value();
  n += ethSrc.has_value();
  n += ethDst.has_value();
  n += ethType.has_value();
  n += vlanId.has_value();
  n += ipSrc.has_value();
  n += ipDst.has_value();
  n += ipProto.has_value();
  n += tpSrc.has_value();
  n += tpDst.has_value();
  return n;
}

std::string FlowMatch::toString() const {
  std::string out;
  out.reserve(96);
  appendTo(out);
  return out;
}

void FlowMatch::appendTo(std::string& out) const {
  out += '{';
  bool first = true;
  // Appends "name=" (after a separator); the caller appends the value.
  auto field = [&](const char* name) {
    if (!first) out += ", ";
    first = false;
    out += name;
    out += '=';
  };
  auto number = [&](const char* name, std::uint64_t value) {
    field(name);
    appendDecimal(out, value);
  };
  auto text = [&](const char* name, const auto& value) {
    field(name);
    value.appendTo(out);
  };
  if (inPort) number("in_port", *inPort);
  if (ethSrc) text("eth_src", *ethSrc);
  if (ethDst) text("eth_dst", *ethDst);
  if (ethType) number("eth_type", *ethType);
  if (vlanId) number("vlan", *vlanId);
  if (ipSrc) text("ip_src", *ipSrc);
  if (ipDst) text("ip_dst", *ipDst);
  if (ipProto) number("ip_proto", *ipProto);
  if (tpSrc) number("tp_src", *tpSrc);
  if (tpDst) number("tp_dst", *tpDst);
  if (first) out += '*';
  out += '}';
}

}  // namespace sdnshield::of
