// High-level policy language (§VI-C): algebra semantics, compilation to
// classifiers (checked against the reference interpreter, including on
// random policies), ownership tracking through composition, and
// permission-checked installation with partial denial.
#include "hll/install.h"
#include "hll/policy.h"

#include <gtest/gtest.h>

#include <random>

#include "core/lang/perm_parser.h"
#include "switchsim/sim_network.h"

namespace sdnshield::hll {
namespace {

of::FlowMatch tcpDst(std::uint16_t port) {
  of::FlowMatch m;
  m.ethType = 0x0800;
  m.ipProto = 6;
  m.tpDst = port;
  return m;
}

of::FlowMatch ipDstMatch(const char* ip) {
  of::FlowMatch m;
  m.ethType = 0x0800;
  m.ipDst = of::MaskedIpv4{of::Ipv4Address::parse(ip)};
  return m;
}

of::SetFieldAction setTpDst(std::uint16_t port) {
  of::SetFieldAction set;
  set.field = of::MatchField::kTpDst;
  set.intValue = port;
  return set;
}

LocatedPacket tcpPacket(const char* srcIp, const char* dstIp,
                        std::uint16_t dstPort, of::PortNo inPort = 1) {
  return LocatedPacket{
      of::Packet::makeTcp(of::MacAddress::fromUint64(1),
                          of::MacAddress::fromUint64(2),
                          of::Ipv4Address::parse(srcIp),
                          of::Ipv4Address::parse(dstIp), 40000, dstPort,
                          of::tcpflags::kSyn),
      inPort};
}

// --- interpreter semantics -------------------------------------------------------

TEST(HllSemantics, MatchGatesAndFwdEmits) {
  PolicyPtr p = seq(match(tcpDst(80)), fwd(2));
  auto hit = evaluate(p, tcpPacket("10.0.0.1", "10.0.0.2", 80));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].port, 2u);
  EXPECT_TRUE(evaluate(p, tcpPacket("10.0.0.1", "10.0.0.2", 443)).empty());
}

TEST(HllSemantics, DropEmitsNothingIdentityContinues) {
  EXPECT_TRUE(evaluate(drop(), tcpPacket("10.0.0.1", "10.0.0.2", 80)).empty());
  // identity alone never *emits* — only forwarding does.
  EXPECT_TRUE(
      evaluate(identity(), tcpPacket("10.0.0.1", "10.0.0.2", 80)).empty());
}

TEST(HllSemantics, ModifyRewritesBeforeFwd) {
  PolicyPtr p = seq(match(tcpDst(23)), seq(modify(setTpDst(80)), fwd(2)));
  auto out = evaluate(p, tcpPacket("10.0.0.1", "10.0.0.2", 23));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packet.tcp->dstPort, 80);
}

TEST(HllSemantics, ParEmitsBothBranches) {
  PolicyPtr p = par(fwd(2), fwd(3));  // Port mirroring.
  auto out = evaluate(p, tcpPacket("10.0.0.1", "10.0.0.2", 80));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].port, 2u);
  EXPECT_EQ(out[1].port, 3u);
}

TEST(HllSemantics, MatchAfterModifySeesRewrittenPacket) {
  // modify(tp=80) >> match(tp=80) >> fwd: passes even for tp=23 input.
  PolicyPtr p = seq(modify(setTpDst(80)), seq(match(tcpDst(80)), fwd(2)));
  EXPECT_EQ(evaluate(p, tcpPacket("10.0.0.1", "10.0.0.2", 23)).size(), 1u);
}

// --- compilation -------------------------------------------------------------------

TEST(HllCompile, SimpleForwardingClassifier) {
  auto rules = compile(seq(match(tcpDst(80)), fwd(2)));
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].match.tpDst, 80);
  ASSERT_EQ(rules[0].actions.size(), 1u);
  EXPECT_EQ(std::get<of::OutputAction>(rules[0].actions[0]).port, 2u);
  EXPECT_TRUE(rules[1].actions.empty());  // Catch-all drop.
}

TEST(HllCompile, FirewallPlusRoutingComposition) {
  // (drop telnet) ELSE route = match(23)>>drop + match(!23)... expressed as
  // telnet-drop in parallel with destination routing:
  PolicyPtr firewall = seq(match(tcpDst(23)), drop());
  PolicyPtr routing = seq(match(ipDstMatch("10.0.0.2")), fwd(2));
  auto rules = compile(par(firewall, routing));
  // Parallel composition means *both* apply: the firewall branch emits
  // nothing but cannot veto the routing branch's emission.
  auto telnet = runClassifier(rules, tcpPacket("10.0.0.1", "10.0.0.2", 23));
  EXPECT_EQ(telnet.size(), 1u);
  // Sequencing is the way to veto: only port-80 traffic reaches routing.
  auto vetoed = compile(seq(seq(match(tcpDst(80)), identity()), routing));
  EXPECT_EQ(
      runClassifier(vetoed, tcpPacket("10.0.0.1", "10.0.0.2", 23)).size(), 0u);
  EXPECT_EQ(
      runClassifier(vetoed, tcpPacket("10.0.0.1", "10.0.0.2", 80)).size(), 1u);
}

TEST(HllCompile, SeqPullsMatchesThroughRewrites) {
  // modify(tp=80) >> (match(tp=80) >> fwd(2)): compiles to an
  // unconditional rewrite+forward (the match is satisfied by construction).
  auto rules = compile(
      seq(modify(setTpDst(80)), seq(match(tcpDst(80)), fwd(2))));
  auto out = runClassifier(rules, tcpPacket("10.0.0.1", "10.0.0.2", 23));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packet.tcp->dstPort, 80);
  EXPECT_EQ(out[0].port, 2u);
}

TEST(HllCompile, SeqDropsIncompatibleBranches) {
  // modify(tp=80) >> (match(tp=23) >> fwd(2)): can never fire.
  auto rules = compile(
      seq(modify(setTpDst(80)), seq(match(tcpDst(23)), fwd(2))));
  EXPECT_TRUE(
      runClassifier(rules, tcpPacket("10.0.0.1", "10.0.0.2", 23)).empty());
  EXPECT_TRUE(
      runClassifier(rules, tcpPacket("10.0.0.1", "10.0.0.2", 80)).empty());
}

TEST(HllCompile, EmissionOnLeftOfSeqThrows) {
  EXPECT_THROW(compile(seq(fwd(2), fwd(3))), std::invalid_argument);
}

TEST(HllCompile, ToFlowModsAssignsDescendingPriorities) {
  auto rules = compile(par(seq(match(tcpDst(80)), fwd(2)),
                           seq(match(tcpDst(443)), fwd(3))));
  auto mods = toFlowMods(rules, 100);
  ASSERT_EQ(mods.size(), rules.size());
  for (std::size_t i = 1; i < mods.size(); ++i) {
    EXPECT_EQ(mods[i].priority, mods[i - 1].priority - 1);
  }
  // Drop rules carry an explicit DropAction after lowering.
  EXPECT_TRUE(std::holds_alternative<of::DropAction>(mods.back().actions[0]));
}

TEST(HllCompile, ToFlowModsRejectsPriorityUnderflow) {
  auto rules = compile(seq(match(tcpDst(80)), fwd(2)));
  EXPECT_THROW(toFlowMods(rules, 1), std::invalid_argument);
}

// --- ownership tracking ---------------------------------------------------------------

TEST(HllOwnership, OwnersAccumulateThroughComposition) {
  PolicyPtr firewallBranch = owned(7, seq(match(tcpDst(80)), identity()));
  PolicyPtr routingBranch = owned(8, fwd(2));
  auto rules = compile(seq(firewallBranch, routingBranch));
  // The emitting rule was built from both apps' policies.
  bool sawJoint = false;
  for (const CompiledRule& rule : rules) {
    if (!rule.actions.empty()) {
      EXPECT_EQ(rule.owners, (std::set<of::AppId>{7, 8})) << rule.toString();
      sawJoint = true;
    }
  }
  EXPECT_TRUE(sawJoint);
}

TEST(HllOwnership, UnannotatedPolicyHasNoOwners) {
  auto rules = compile(seq(match(tcpDst(80)), fwd(2)));
  for (const CompiledRule& rule : rules) EXPECT_TRUE(rule.owners.empty());
}

// --- compiler vs interpreter property ----------------------------------------------------

class HllPropertyTest : public ::testing::TestWithParam<unsigned> {};

PolicyPtr randomPolicy(std::mt19937& rng, int depth, bool emitting) {
  if (depth == 0) {
    if (emitting) return fwd(static_cast<of::PortNo>(rng() % 4 + 1));
    switch (rng() % 3) {
      case 0:
        return match(tcpDst(static_cast<std::uint16_t>(
            (rng() % 2) ? 80 : 23)));
      case 1:
        return identity();
      default:
        return modify(setTpDst(static_cast<std::uint16_t>(
            (rng() % 2) ? 80 : 443)));
    }
  }
  // par is only generated in emitting position (parallel *continuations*
  // are ambiguous and rejected by the compiler), with a rewrite-free first
  // branch so the OF action-list realisation is exact.
  std::size_t pick = rng() % (emitting ? 3u : 2u);
  switch (pick) {
    case 0:
      // seq: lhs non-emitting, rhs carries the emission requirement.
      return seq(randomPolicy(rng, depth - 1, false),
                 randomPolicy(rng, depth - 1, emitting));
    case 1:
      return owned(static_cast<of::AppId>(rng() % 3 + 1),
                   randomPolicy(rng, depth - 1, emitting));
    default:
      return par(fwd(static_cast<of::PortNo>(rng() % 4 + 1)),
                 randomPolicy(rng, depth - 1, true));
  }
}

TEST_P(HllPropertyTest, CompiledClassifierMatchesInterpreter) {
  std::mt19937 rng(GetParam());
  PolicyPtr policy = randomPolicy(rng, 3, true);
  std::vector<CompiledRule> rules;
  try {
    rules = compile(policy);
  } catch (const std::invalid_argument&) {
    GTEST_SKIP() << "random policy hit an unsupported shape";
  }
  for (int i = 0; i < 40; ++i) {
    LocatedPacket input = tcpPacket(
        "10.0.0.1", "10.0.0.2",
        static_cast<std::uint16_t>((rng() % 3 == 0) ? 23
                                   : (rng() % 2)    ? 80
                                                    : 443),
        static_cast<of::PortNo>(rng() % 4 + 1));
    auto expected = evaluate(policy, input);
    auto actual = runClassifier(rules, input);
    // Compare as multisets of (serialized packet, port).
    auto key = [](const LocatedPacket& lp) {
      of::Bytes wire = lp.packet.serialize();
      return std::make_pair(std::string(wire.begin(), wire.end()), lp.port);
    };
    std::vector<std::pair<std::string, of::PortNo>> a, b;
    for (const auto& lp : expected) a.push_back(key(lp));
    for (const auto& lp : actual) b.push_back(key(lp));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "input tp_dst="
                    << (input.packet.tcp ? input.packet.tcp->dstPort : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HllPropertyTest, ::testing::Range(0u, 30u));

// --- permission-checked installation -----------------------------------------------------

class HllInstallTest : public ::testing::Test {
 protected:
  HllInstallTest() : network_(controller_) {
    network_.buildLinear(1);
    engine_.install(7, lang::parsePermissions(
                           "PERM insert_flow LIMITING ACTION FORWARD\n"));
    engine_.install(8, lang::parsePermissions("PERM insert_flow\n"));
    engine_.install(9, lang::parsePermissions("PERM read_statistics\n"));
  }

  ctrl::Controller controller_;
  sim::SimNetwork network_;
  engine::PermissionEngine engine_;
};

TEST_F(HllInstallTest, FullyPermittedPolicyInstalls) {
  PolicyPtr policy = owned(8, par(seq(match(tcpDst(80)), fwd(1)),
                                  seq(match(tcpDst(443)), fwd(1))));
  InstallReport report =
      installPolicy(engine_, controller_, 1, policy, 200);
  EXPECT_TRUE(report.fullyInstalled());
  EXPECT_GT(report.installed, 0u);
  EXPECT_EQ(network_.switchAt(1)->flowCount(), report.installed);
}

TEST_F(HllInstallTest, PartialDenialSkipsOnlyTheBlockedRules) {
  // App 7 may only forward; the rewriting rule it contributes to is denied,
  // the plain forwarding rule goes in (§VI-C partial denial).
  PolicyPtr rewriting =
      owned(7, seq(match(tcpDst(23)), seq(modify(setTpDst(80)), fwd(1))));
  PolicyPtr forwarding = owned(7, seq(match(tcpDst(80)), fwd(1)));
  InstallReport report = installPolicy(
      engine_, controller_, 1, par(rewriting, forwarding), 200);
  EXPECT_FALSE(report.fullyInstalled());
  EXPECT_GT(report.installed, 0u);
  ASSERT_FALSE(report.denied.empty());
  EXPECT_EQ(report.denied[0].owner, 7u);
  // The installed rules contain no header rewrites.
  auto flows = network_.switchAt(1)->dumpFlows();
  ASSERT_TRUE(flows.ok());
  for (const of::FlowEntry& entry : flows.value()) {
    EXPECT_FALSE(of::modifiesHeaders(entry.actions)) << entry.toString();
  }
}

TEST_F(HllInstallTest, JointRuleNeedsEveryOwner) {
  // A rule built from apps 8 (full insert) and 9 (no insert at all): the
  // missing owner blocks it.
  PolicyPtr policy =
      seq(owned(9, match(tcpDst(80))), owned(8, fwd(1)));
  InstallReport report =
      installPolicy(engine_, controller_, 1, policy, 200);
  bool jointDenied = false;
  for (const auto& denied : report.denied) {
    if (denied.owner == 9) jointDenied = true;
  }
  EXPECT_TRUE(jointDenied);
}

TEST_F(HllInstallTest, OwnerlessPolicyInstallsAsKernel) {
  InstallReport report = installPolicy(
      engine_, controller_, 1, seq(match(tcpDst(80)), fwd(1)), 200);
  EXPECT_TRUE(report.fullyInstalled());
  auto flows = network_.switchAt(1)->dumpFlows().value();
  ASSERT_FALSE(flows.empty());
  EXPECT_EQ(flows[0].cookie, of::kKernelAppId);
}

TEST_F(HllInstallTest, InstalledPolicyActuallyForwardsTraffic) {
  auto host = network_.addHost(1, 2, of::MacAddress::fromUint64(0xBB),
                               of::Ipv4Address(10, 0, 0, 99));
  PolicyPtr policy = owned(8, seq(match(tcpDst(80)), fwd(2)));
  ASSERT_TRUE(installPolicy(engine_, controller_, 1, policy, 200)
                  .fullyInstalled());
  network_.switchAt(1)->receivePacket(
      1, of::Packet::makeTcp(of::MacAddress::fromUint64(1),
                             of::MacAddress::fromUint64(0xBB),
                             of::Ipv4Address(10, 0, 0, 1),
                             of::Ipv4Address(10, 0, 0, 99), 40000, 80,
                             of::tcpflags::kSyn));
  EXPECT_EQ(host->receivedCount(), 1u);
  // Non-matching traffic hits the classifier's catch-all drop.
  network_.switchAt(1)->receivePacket(
      1, of::Packet::makeTcp(of::MacAddress::fromUint64(1),
                             of::MacAddress::fromUint64(0xBB),
                             of::Ipv4Address(10, 0, 0, 1),
                             of::Ipv4Address(10, 0, 0, 99), 40000, 443,
                             of::tcpflags::kSyn));
  EXPECT_EQ(host->receivedCount(), 1u);
  EXPECT_EQ(network_.switchAt(1)->packetInCount(), 0u);
}

}  // namespace
}  // namespace sdnshield::hll
