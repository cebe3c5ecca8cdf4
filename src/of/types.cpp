#include "of/types.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace sdnshield::of {

MacAddress MacAddress::parse(const std::string& text) {
  std::array<unsigned, 6> parts{};
  char extra = 0;
  int got = std::sscanf(text.c_str(), "%x:%x:%x:%x:%x:%x%c", &parts[0],
                        &parts[1], &parts[2], &parts[3], &parts[4], &parts[5],
                        &extra);
  if (got != 6) {
    throw std::invalid_argument("bad MAC address: " + text);
  }
  std::array<std::uint8_t, 6> octets{};
  for (std::size_t i = 0; i < 6; ++i) {
    if (parts[i] > 0xff) {
      throw std::invalid_argument("bad MAC address octet: " + text);
    }
    octets[i] = static_cast<std::uint8_t>(parts[i]);
  }
  return MacAddress{octets};
}

void appendDecimal(std::string& out, std::uint64_t value) {
  char buf[20];
  auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

std::string MacAddress::toString() const {
  std::string out;
  appendTo(out);
  return out;
}

void MacAddress::appendTo(std::string& out) const {
  constexpr char kHex[] = "0123456789abcdef";
  char buf[17];
  for (std::size_t i = 0; i < octets_.size(); ++i) {
    buf[i * 3] = kHex[octets_[i] >> 4];
    buf[i * 3 + 1] = kHex[octets_[i] & 0xf];
    if (i + 1 < octets_.size()) buf[i * 3 + 2] = ':';
  }
  out.append(buf, sizeof buf);
}

Ipv4Address Ipv4Address::parse(const std::string& text) {
  std::array<unsigned, 4> parts{};
  char extra = 0;
  int got = std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &parts[0], &parts[1],
                        &parts[2], &parts[3], &extra);
  if (got != 4) {
    throw std::invalid_argument("bad IPv4 address: " + text);
  }
  for (unsigned part : parts) {
    if (part > 255) {
      throw std::invalid_argument("bad IPv4 address octet: " + text);
    }
  }
  return Ipv4Address{static_cast<std::uint8_t>(parts[0]),
                     static_cast<std::uint8_t>(parts[1]),
                     static_cast<std::uint8_t>(parts[2]),
                     static_cast<std::uint8_t>(parts[3])};
}

std::string Ipv4Address::toString() const {
  std::string out;
  appendTo(out);
  return out;
}

void Ipv4Address::appendTo(std::string& out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    appendDecimal(out, (value_ >> shift) & 0xff);
    if (shift > 0) out += '.';
  }
}

std::string toString(EtherType type) {
  switch (type) {
    case EtherType::kIpv4:
      return "ipv4";
    case EtherType::kArp:
      return "arp";
    case EtherType::kVlan:
      return "vlan";
  }
  return "ethertype(unknown)";
}

std::string toString(IpProto proto) {
  switch (proto) {
    case IpProto::kIcmp:
      return "icmp";
    case IpProto::kTcp:
      return "tcp";
    case IpProto::kUdp:
      return "udp";
  }
  return "ipproto(unknown)";
}

}  // namespace sdnshield::of
