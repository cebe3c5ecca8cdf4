// Basic OpenFlow-level value types: datapath ids, ports, MAC and IPv4
// addresses. These are the vocabulary shared by the switch simulator, the
// controller and the permission engine.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace sdnshield::of {

/// 64-bit OpenFlow datapath identifier of a switch.
using DatapathId = std::uint64_t;

/// Switch port number. A handful of values are reserved, mirroring OF 1.0.
using PortNo = std::uint32_t;

/// Reserved port numbers (subset of the OpenFlow 1.0 set).
namespace ports {
inline constexpr PortNo kMax = 0xff00;         ///< Highest physical port.
inline constexpr PortNo kFlood = 0xfffb;       ///< Flood out all but ingress.
inline constexpr PortNo kController = 0xfffd;  ///< Punt to the controller.
inline constexpr PortNo kLocal = 0xfffe;       ///< Switch-local stack.
inline constexpr PortNo kNone = 0xffff;        ///< No port / wildcard.
}  // namespace ports

/// Appends the decimal text of @p value to @p out: the integer formatter of
/// the appendTo() renderers (no stream, no temporary string).
void appendDecimal(std::string& out, std::uint64_t value);

/// 48-bit Ethernet MAC address.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  explicit constexpr MacAddress(std::array<std::uint8_t, 6> octets)
      : octets_(octets) {}

  /// Builds a MAC from the low 48 bits of @p value (useful for generators).
  static constexpr MacAddress fromUint64(std::uint64_t value) {
    std::array<std::uint8_t, 6> o{};
    for (int i = 5; i >= 0; --i) {
      o[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value & 0xff);
      value >>= 8;
    }
    return MacAddress{o};
  }

  /// Parses "aa:bb:cc:dd:ee:ff". Throws std::invalid_argument on bad input.
  static MacAddress parse(const std::string& text);

  constexpr std::uint64_t toUint64() const {
    std::uint64_t v = 0;
    for (auto o : octets_) v = (v << 8) | o;
    return v;
  }

  constexpr bool isBroadcast() const { return toUint64() == 0xffffffffffffULL; }
  constexpr bool isMulticast() const { return (octets_[0] & 0x01) != 0; }

  /// "aa:bb:cc:dd:ee:ff"; appendTo() appends the same text to @p out.
  std::string toString() const;
  void appendTo(std::string& out) const;

  constexpr const std::array<std::uint8_t, 6>& octets() const {
    return octets_;
  }

  friend constexpr auto operator<=>(const MacAddress&,
                                    const MacAddress&) = default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

/// IPv4 address stored in host byte order.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Parses dotted-quad "10.13.0.1". Throws std::invalid_argument on bad
  /// input.
  static Ipv4Address parse(const std::string& text);

  /// Builds the canonical /n prefix mask, e.g. prefixMask(24) == 255.255.255.0.
  static constexpr Ipv4Address prefixMask(int bits) {
    if (bits <= 0) return Ipv4Address{0};
    if (bits >= 32) return Ipv4Address{0xffffffffu};
    return Ipv4Address{~((1u << (32 - bits)) - 1)};
  }

  constexpr std::uint32_t value() const { return value_; }
  /// Dotted quad; appendTo() appends the same text to @p out.
  std::string toString() const;
  void appendTo(std::string& out) const;

  friend constexpr auto operator<=>(const Ipv4Address&,
                                    const Ipv4Address&) = default;

 private:
  std::uint32_t value_ = 0;
};

/// EtherType values used by the simulator.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
};

/// IP protocol numbers used by the simulator.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

std::string toString(EtherType type);
std::string toString(IpProto proto);

}  // namespace sdnshield::of

template <>
struct std::hash<sdnshield::of::MacAddress> {
  std::size_t operator()(const sdnshield::of::MacAddress& mac) const noexcept {
    return std::hash<std::uint64_t>{}(mac.toUint64());
  }
};

template <>
struct std::hash<sdnshield::of::Ipv4Address> {
  std::size_t operator()(const sdnshield::of::Ipv4Address& ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.value());
  }
};
