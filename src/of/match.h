// OpenFlow 1.0-style flow match: a conjunction of (possibly wildcarded,
// possibly masked) header-field predicates. FlowMatch is the common currency
// between the switch flow tables, the controller API and SDNShield's flow
// predicate / wildcard filters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "of/types.h"

namespace sdnshield::of {

/// Header fields a match (or a permission filter) can constrain.
enum class MatchField {
  kInPort,
  kEthSrc,
  kEthDst,
  kEthType,
  kVlanId,
  kIpSrc,
  kIpDst,
  kIpProto,
  kTpSrc,  ///< TCP/UDP source port.
  kTpDst,  ///< TCP/UDP destination port.
};

std::string toString(MatchField field);

/// Concrete header values extracted from a packet, used for table lookup.
struct HeaderFields {
  PortNo inPort = ports::kNone;
  MacAddress ethSrc;
  MacAddress ethDst;
  std::uint16_t ethType = 0;
  std::optional<std::uint16_t> vlanId;
  std::optional<Ipv4Address> ipSrc;
  std::optional<Ipv4Address> ipDst;
  std::optional<std::uint8_t> ipProto;
  std::optional<std::uint16_t> tpSrc;
  std::optional<std::uint16_t> tpDst;
};

/// An IPv4 field predicate: matches addresses where (addr & mask) ==
/// (value & mask). mask == 0 means fully wildcarded.
struct MaskedIpv4 {
  Ipv4Address value;
  Ipv4Address mask = Ipv4Address{0xffffffffu};

  bool matches(Ipv4Address addr) const {
    return (addr.value() & mask.value()) == (value.value() & mask.value());
  }
  /// True when every address matched by @p other is also matched by *this.
  bool subsumes(const MaskedIpv4& other) const {
    // this's constrained bits must be a subset of other's, and agree on them.
    if ((mask.value() & other.mask.value()) != mask.value()) return false;
    return (value.value() & mask.value()) == (other.value.value() & mask.value());
  }
  /// True when some address is matched by both.
  bool overlaps(const MaskedIpv4& other) const {
    std::uint32_t common = mask.value() & other.mask.value();
    return (value.value() & common) == (other.value.value() & common);
  }
  friend bool operator==(const MaskedIpv4& a, const MaskedIpv4& b) {
    // Equality of the predicate, not the representation: unmasked value bits
    // are irrelevant.
    return a.mask == b.mask &&
           (a.value.value() & a.mask.value()) ==
               (b.value.value() & b.mask.value());
  }
  /// "value" or "value MASK mask"; appendTo() appends the same text.
  std::string toString() const;
  void appendTo(std::string& out) const;
};

/// A flow match. Each field is either absent (fully wildcarded) or a
/// predicate on that field. IPv4 fields support arbitrary bit masks.
struct FlowMatch {
  std::optional<PortNo> inPort;
  std::optional<MacAddress> ethSrc;
  std::optional<MacAddress> ethDst;
  std::optional<std::uint16_t> ethType;
  std::optional<std::uint16_t> vlanId;
  std::optional<MaskedIpv4> ipSrc;
  std::optional<MaskedIpv4> ipDst;
  std::optional<std::uint8_t> ipProto;
  std::optional<std::uint16_t> tpSrc;
  std::optional<std::uint16_t> tpDst;

  /// The fully wildcarded match (matches every packet).
  static FlowMatch any() { return FlowMatch{}; }

  /// True when the packet headers satisfy every field predicate.
  bool matches(const HeaderFields& pkt) const;

  /// True when every packet matched by @p other is also matched by *this
  /// (i.e. *this is the same or a wider predicate).
  bool subsumes(const FlowMatch& other) const;

  /// True when some packet satisfies both matches.
  bool overlaps(const FlowMatch& other) const;

  /// The conjunction of two matches: matches exactly the packets both
  /// match. Empty when the matches are disjoint.
  std::optional<FlowMatch> intersect(const FlowMatch& other) const;

  /// True when no field is constrained.
  bool isWildcardAll() const;

  /// Number of constrained fields (used for specificity heuristics).
  int constrainedFieldCount() const;

  friend bool operator==(const FlowMatch&, const FlowMatch&) = default;

  /// "{in_port=1, eth_dst=...}" ("{*}" when wildcard-all); appendTo()
  /// appends the same text to @p out.
  std::string toString() const;
  void appendTo(std::string& out) const;
};

}  // namespace sdnshield::of
