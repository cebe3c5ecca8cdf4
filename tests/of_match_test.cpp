#include "of/match.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>

namespace sdnshield::of {
namespace {

HeaderFields tcpFields(PortNo inPort, const char* src, const char* dst,
                       std::uint16_t tpSrc, std::uint16_t tpDst) {
  HeaderFields f;
  f.inPort = inPort;
  f.ethSrc = MacAddress::fromUint64(0x0a);
  f.ethDst = MacAddress::fromUint64(0x0b);
  f.ethType = 0x0800;
  f.ipSrc = Ipv4Address::parse(src);
  f.ipDst = Ipv4Address::parse(dst);
  f.ipProto = 6;
  f.tpSrc = tpSrc;
  f.tpDst = tpDst;
  return f;
}

TEST(MaskedIpv4, ExactMatchOnlyAcceptsEqualAddress) {
  MaskedIpv4 exact{Ipv4Address::parse("10.0.0.1")};
  EXPECT_TRUE(exact.matches(Ipv4Address::parse("10.0.0.1")));
  EXPECT_FALSE(exact.matches(Ipv4Address::parse("10.0.0.2")));
}

TEST(MaskedIpv4, PrefixMatchAcceptsWholeSubnet) {
  MaskedIpv4 subnet{Ipv4Address::parse("10.13.0.0"),
                    Ipv4Address::prefixMask(16)};
  EXPECT_TRUE(subnet.matches(Ipv4Address::parse("10.13.200.9")));
  EXPECT_FALSE(subnet.matches(Ipv4Address::parse("10.14.0.1")));
}

TEST(MaskedIpv4, SubsumesRequiresWiderMaskAndAgreement) {
  MaskedIpv4 wide{Ipv4Address::parse("10.13.0.0"), Ipv4Address::prefixMask(16)};
  MaskedIpv4 narrow{Ipv4Address::parse("10.13.7.0"),
                    Ipv4Address::prefixMask(24)};
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  MaskedIpv4 disjoint{Ipv4Address::parse("10.14.0.0"),
                      Ipv4Address::prefixMask(24)};
  EXPECT_FALSE(wide.subsumes(disjoint));
}

TEST(MaskedIpv4, SubsumesIsReflexive) {
  MaskedIpv4 m{Ipv4Address::parse("10.13.0.0"), Ipv4Address::prefixMask(16)};
  EXPECT_TRUE(m.subsumes(m));
}

TEST(MaskedIpv4, OverlapsDetectsSharedAddresses) {
  MaskedIpv4 a{Ipv4Address::parse("10.13.0.0"), Ipv4Address::prefixMask(16)};
  MaskedIpv4 b{Ipv4Address::parse("10.13.7.0"), Ipv4Address::prefixMask(24)};
  MaskedIpv4 c{Ipv4Address::parse("10.14.0.0"), Ipv4Address::prefixMask(16)};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(MaskedIpv4, EqualityIgnoresUnmaskedBits) {
  MaskedIpv4 a{Ipv4Address::parse("10.13.0.0"), Ipv4Address::prefixMask(16)};
  MaskedIpv4 b{Ipv4Address::parse("10.13.99.99"), Ipv4Address::prefixMask(16)};
  EXPECT_EQ(a, b);
}

TEST(FlowMatch, WildcardAllMatchesEverything) {
  FlowMatch any = FlowMatch::any();
  EXPECT_TRUE(any.matches(tcpFields(1, "10.0.0.1", "10.0.0.2", 80, 443)));
  EXPECT_TRUE(any.isWildcardAll());
  EXPECT_EQ(any.constrainedFieldCount(), 0);
}

TEST(FlowMatch, ExactFieldsMustAllAgree) {
  FlowMatch match;
  match.inPort = 1;
  match.ipDst = MaskedIpv4{Ipv4Address::parse("10.0.0.2")};
  match.tpDst = 443;
  EXPECT_TRUE(match.matches(tcpFields(1, "10.0.0.1", "10.0.0.2", 80, 443)));
  EXPECT_FALSE(match.matches(tcpFields(2, "10.0.0.1", "10.0.0.2", 80, 443)));
  EXPECT_FALSE(match.matches(tcpFields(1, "10.0.0.1", "10.0.0.3", 80, 443)));
  EXPECT_FALSE(match.matches(tcpFields(1, "10.0.0.1", "10.0.0.2", 80, 80)));
}

TEST(FlowMatch, ConstrainedFieldAbsentFromPacketFailsMatch) {
  FlowMatch match;
  match.tpDst = 80;
  HeaderFields arpLike;
  arpLike.inPort = 1;
  arpLike.ethType = 0x0806;
  EXPECT_FALSE(match.matches(arpLike));
}

TEST(FlowMatch, SubsumptionWiderCoversNarrower) {
  FlowMatch wide;
  wide.ipDst = MaskedIpv4{Ipv4Address::parse("10.13.0.0"),
                          Ipv4Address::prefixMask(16)};
  FlowMatch narrow = wide;
  narrow.tpDst = 80;
  narrow.ipDst = MaskedIpv4{Ipv4Address::parse("10.13.4.0"),
                            Ipv4Address::prefixMask(24)};
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  EXPECT_TRUE(FlowMatch::any().subsumes(wide));
}

TEST(FlowMatch, OverlapRequiresCompatibleConstraints) {
  FlowMatch a;
  a.tpDst = 80;
  FlowMatch b;
  b.tpDst = 443;
  EXPECT_FALSE(a.overlaps(b));
  FlowMatch c;
  c.ipProto = 6;
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(a.overlaps(FlowMatch::any()));
}

TEST(FlowMatch, ToStringListsConstrainedFields) {
  FlowMatch match;
  match.inPort = 3;
  match.tpDst = 80;
  std::string text = match.toString();
  EXPECT_NE(text.find("in_port=3"), std::string::npos);
  EXPECT_NE(text.find("tp_dst=80"), std::string::npos);
}

// --- property tests -----------------------------------------------------------

class MatchPropertyTest : public ::testing::TestWithParam<unsigned> {};

// Every field draws from a small domain (two to four values; IPs from
// {10,11}.{0..3}.{0..3}.{0..3}), so a wildcard always admits a packet that a
// constrained field rejects and the sampler below reaches a witness.
constexpr int kMatchFields = 10;

Ipv4Address randomIp(std::mt19937& rng) {
  return Ipv4Address(static_cast<std::uint8_t>(10 + rng() % 2),
                     static_cast<std::uint8_t>(rng() % 4),
                     static_cast<std::uint8_t>(rng() % 4),
                     static_cast<std::uint8_t>(rng() % 4));
}

MacAddress randomMac(std::mt19937& rng) {
  return MacAddress::fromUint64(0x0a + rng() % 4);
}

template <typename T>
T either(std::mt19937& rng, T first, T second) {
  return rng() % 2 == 0 ? first : second;
}

/// Narrows one field of @p match: a wildcard gets a value from its domain
/// (an IP a /0../32 prefix), a constrained IP prefix grows by one octet
/// with its value kept, and an exact field stays as it is.
void narrowField(FlowMatch& match, int field, std::mt19937& rng) {
  auto pin = [](auto& slot, auto value) {
    if (!slot) slot = value;
  };
  auto narrowIp = [&](std::optional<MaskedIpv4>& slot) {
    if (!slot) {
      int bits = static_cast<int>(rng() % 5) * 8;
      slot = MaskedIpv4{randomIp(rng), Ipv4Address::prefixMask(bits)};
      return;
    }
    std::uint32_t mask = slot->mask.value();
    int bits = std::popcount(mask);
    if (bits == 32) return;
    slot = MaskedIpv4{Ipv4Address((slot->value.value() & mask) |
                                  (randomIp(rng).value() & ~mask)),
                      Ipv4Address::prefixMask(bits + 8)};
  };
  switch (field) {
    case 0:
      return pin(match.inPort, static_cast<PortNo>(rng() % 4 + 1));
    case 1:
      return pin(match.ethSrc, randomMac(rng));
    case 2:
      return pin(match.ethDst, randomMac(rng));
    case 3:
      return pin(match.ethType, either<std::uint16_t>(rng, 0x0800, 0x0806));
    case 4:
      return pin(match.vlanId, either<std::uint16_t>(rng, 10, 20));
    case 5:
      return narrowIp(match.ipSrc);
    case 6:
      return narrowIp(match.ipDst);
    case 7:
      return pin(match.ipProto, either<std::uint8_t>(rng, 6, 17));
    case 8:
      return pin(match.tpSrc, either<std::uint16_t>(rng, 1000, 2000));
    default:
      return pin(match.tpDst, either<std::uint16_t>(rng, 80, 443));
  }
}

FlowMatch randomMatch(std::mt19937& rng) {
  FlowMatch match;
  for (int field = 0; field < kMatchFields; ++field) {
    if (rng() % 2 == 0) narrowField(match, field, rng);
  }
  return match;
}

/// A packet that @p match accepts: every field is narrowed until exact (IPs
/// to /32), so constrained fields keep the match's value and wildcards draw
/// one from the domain.
HeaderFields sampleMatching(const FlowMatch& match, std::mt19937& rng) {
  FlowMatch exact = match;
  for (int field = 0; field < kMatchFields; ++field) {
    for (int octet = 0; octet < 5; ++octet) narrowField(exact, field, rng);
  }
  HeaderFields f;
  f.inPort = *exact.inPort;
  f.ethSrc = *exact.ethSrc;
  f.ethDst = *exact.ethDst;
  f.ethType = *exact.ethType;
  f.vlanId = exact.vlanId;
  f.ipSrc = exact.ipSrc->value;
  f.ipDst = exact.ipDst->value;
  f.ipProto = exact.ipProto;
  f.tpSrc = exact.tpSrc;
  f.tpDst = exact.tpDst;
  return f;
}

/// A "subsumes" verdict must hold on packets: @p wide matches every packet
/// sampled from @p narrow.
void expectSoundSubsumption(const FlowMatch& wide, const FlowMatch& narrow,
                            std::mt19937& rng) {
  if (!wide.subsumes(narrow)) return;
  for (int i = 0; i < 64; ++i) {
    HeaderFields fields = sampleMatching(narrow, rng);
    ASSERT_TRUE(narrow.matches(fields)) << narrow.toString();
    EXPECT_TRUE(wide.matches(fields))
        << "wide=" << wide.toString() << " narrow=" << narrow.toString();
  }
}

TEST_P(MatchPropertyTest, SubsumptionImpliesMatchContainment) {
  // Pairs in relation by construction: b is a with one field narrowed (a
  // wildcard pinned, or an IP prefix grown by an octet), one pair per field.
  // a must subsume b, and a "subsumes" verdict in either direction must
  // hold on sampled packets — the reverse direction is what catches a
  // subsumes() that skips a field.
  std::mt19937 rng(GetParam());
  FlowMatch a = randomMatch(rng);
  for (int field = 0; field < kMatchFields; ++field) {
    FlowMatch b = a;
    narrowField(b, field, rng);
    EXPECT_TRUE(a.subsumes(b))
        << "a=" << a.toString() << " b=" << b.toString();
    expectSoundSubsumption(a, b, rng);
    expectSoundSubsumption(b, a, rng);
  }
}

TEST_P(MatchPropertyTest, MutualSubsumptionOfDisjointPairsNeverHolds) {
  std::mt19937 rng(GetParam() + 1000);
  FlowMatch a = randomMatch(rng);
  FlowMatch b = randomMatch(rng);
  if (!a.overlaps(b)) {
    EXPECT_FALSE(a.subsumes(b) && b.subsumes(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchPropertyTest,
                         ::testing::Range(0u, 25u));

}  // namespace
}  // namespace sdnshield::of
