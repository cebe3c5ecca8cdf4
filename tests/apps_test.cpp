// Application suite: the L2 learning switch, shortest-path routing,
// ALTO + traffic engineering pipeline and the firewall, each exercised on
// the simulated network — in the baseline (monolithic) deployment and,
// where the paper's scenarios demand it, under SDNShield.
#include <gtest/gtest.h>

#include <chrono>

#include "apps/alto.h"
#include "apps/firewall.h"
#include "apps/l2_learning.h"
#include "apps/routing.h"
#include "apps/traffic_engineering.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"
#include "core/reconcile/reconciler.h"
#include "isolation/api_proxy.h"
#include "switchsim/sim_network.h"

namespace sdnshield::apps {
namespace {

using namespace std::chrono_literals;

of::Packet tcpSyn(const sim::SimHost& src, const sim::SimHost& dst,
                  std::uint16_t dstPort = 80) {
  return of::Packet::makeTcp(src.mac(), dst.mac(), src.ip(), dst.ip(), 40000,
                             dstPort, of::tcpflags::kSyn);
}

TEST(L2LearningBaseline, LearnsFloodsAndInstallsRules) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(1);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h2 = network.addHost(1, 5, of::MacAddress::fromUint64(0xBB),
                            of::Ipv4Address(10, 0, 0, 99));

  iso::BaselineRuntime runtime(controller);
  auto app = std::make_shared<L2LearningSwitch>();
  runtime.loadApp(app);

  // Unknown destination: flooded, h2 still reached.
  h1->send(tcpSyn(*h1, *h2));
  EXPECT_EQ(h2->receivedCount(), 1u);
  EXPECT_EQ(app->packetsSeen(), 1u);
  app->drainPending();
  EXPECT_EQ(app->rulesInstalled(), 0u);

  // h2 replies: now h1's MAC is known, a rule is installed and used.
  h2->send(tcpSyn(*h2, *h1));
  EXPECT_EQ(h1->receivedCount(), 1u);
  app->drainPending();
  EXPECT_EQ(app->rulesInstalled(), 1u);
  EXPECT_EQ(network.switchAt(1)->flowCount(), 1u);

  // Subsequent traffic to h1 hits the rule: no more packet-ins.
  std::uint64_t punts = network.switchAt(1)->packetInCount();
  h2->send(tcpSyn(*h2, *h1));
  EXPECT_EQ(network.switchAt(1)->packetInCount(), punts);
  EXPECT_EQ(h1->receivedCount(), 2u);
}

TEST(L2LearningShielded, SameBehaviourThroughTheShield) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(1);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h2 = network.addHost(1, 5, of::MacAddress::fromUint64(0xBB),
                            of::Ipv4Address(10, 0, 0, 99));

  iso::ShieldRuntime shield(controller);
  auto app = std::make_shared<L2LearningSwitch>();
  shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));

  h1->send(tcpSyn(*h1, *h2));
  ASSERT_TRUE(h2->waitForPackets(1, 2000ms));
  h2->send(tcpSyn(*h2, *h1));
  ASSERT_TRUE(h1->waitForPackets(1, 2000ms));
  app->drainPending();
  EXPECT_EQ(app->rulesInstalled(), 1u);
  EXPECT_EQ(network.switchAt(1)->flowCount(), 1u);
}

TEST(L2LearningShielded, ManifestParsesAndGrantsExpectedTokens) {
  L2LearningSwitch app;
  auto manifest = lang::parseManifest(app.requestedManifest());
  EXPECT_EQ(manifest.appName, "l2_learning");
  EXPECT_TRUE(manifest.permissions.has(perm::Token::kPktInEvent));
  EXPECT_TRUE(manifest.permissions.has(perm::Token::kSendPktOut));
  EXPECT_TRUE(manifest.permissions.has(perm::Token::kInsertFlow));
  EXPECT_FALSE(manifest.permissions.has(perm::Token::kHostNetwork));
}

TEST(RoutingBaseline, InstallsPathAndDeliversAcrossChain) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h3 = network.hostByIp(of::Ipv4Address(10, 0, 0, 3));

  iso::BaselineRuntime runtime(controller);
  auto app = std::make_shared<ShortestPathRoutingApp>();
  runtime.loadApp(app);

  h1->send(tcpSyn(*h1, *h3));
  EXPECT_EQ(h3->receivedCount(), 1u);
  EXPECT_EQ(app->pathsInstalled(), 1u);
  // Per-hop rules installed along s1-s2-s3.
  EXPECT_EQ(network.switchAt(1)->flowCount(), 1u);
  EXPECT_EQ(network.switchAt(2)->flowCount(), 1u);
  EXPECT_EQ(network.switchAt(3)->flowCount(), 1u);
  // Follow-up packets ride the rules without new packet-ins.
  std::uint64_t punts = network.switchAt(1)->packetInCount();
  h1->send(tcpSyn(*h1, *h3));
  EXPECT_EQ(network.switchAt(1)->packetInCount(), punts);
  EXPECT_EQ(h3->receivedCount(), 2u);
}

TEST(RoutingShielded, WorksUnderScenario2Permissions) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h3 = network.hostByIp(of::Ipv4Address(10, 0, 0, 3));

  iso::ShieldRuntime shield(controller);
  auto app = std::make_shared<ShortestPathRoutingApp>();
  shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));

  h1->send(tcpSyn(*h1, *h3));
  ASSERT_TRUE(h3->waitForPackets(1, 2000ms));
  EXPECT_EQ(app->pathsInstalled(), 1u);
}

TEST(AltoTe, CostMapRoundTripsThroughEncoding) {
  std::vector<std::tuple<of::Ipv4Address, of::Ipv4Address, int>> map{
      {of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), 3},
      {of::Ipv4Address(10, 0, 0, 2), of::Ipv4Address(10, 0, 0, 1), 3},
  };
  auto decoded = decodeCostMap(encodeCostMap(map));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(std::get<0>(decoded[0]), of::Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(std::get<2>(decoded[0]), 3);
  // Malformed entries are skipped, not fatal.
  EXPECT_TRUE(decodeCostMap("garbage;;1,2;").empty());
}

TEST(AltoTe, BaselinePipelinePublishesAndInstallsRoutes) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);

  iso::BaselineRuntime runtime(controller);
  auto alto = std::make_shared<AltoService>();
  auto te = std::make_shared<TrafficEngineeringApp>();
  runtime.loadApp(alto);
  runtime.loadApp(te);

  ASSERT_TRUE(alto->publishUpdate());
  EXPECT_EQ(alto->updatesPublished(), 1u);
  EXPECT_EQ(te->updatesProcessed(), 1u);
  EXPECT_GT(te->rulesInstalled(), 0u);
  // TE rules landed on the switches.
  EXPECT_GT(network.switchAt(2)->flowCount(), 0u);
}

TEST(AltoTe, ShieldedPipelineChecksAllFourMediationPoints) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);

  iso::ShieldRuntime shield(controller);
  auto alto = std::make_shared<AltoService>();
  auto te = std::make_shared<TrafficEngineeringApp>();
  of::AppId altoId =
      shield.loadApp(alto, lang::parsePermissions(alto->requestedManifest()));
  of::AppId teId =
      shield.loadApp(te, lang::parsePermissions(te->requestedManifest()));

  ASSERT_TRUE(alto->publishUpdate());
  // The TE app reacts on its own thread; drain it.
  shield.container(teId)->postAndWait([] {});
  EXPECT_EQ(te->updatesProcessed(), 1u);
  EXPECT_GT(te->rulesInstalled(), 0u);
  // The audit log saw the checks from both apps.
  EXPECT_FALSE(controller.audit().entriesFor(altoId).empty());
  EXPECT_FALSE(controller.audit().entriesFor(teId).empty());
}

TEST(AltoTe, TeWithoutInsertPermissionInstallsNothing) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);

  iso::ShieldRuntime shield(controller);
  auto alto = std::make_shared<AltoService>();
  auto te = std::make_shared<TrafficEngineeringApp>();
  shield.loadApp(alto, lang::parsePermissions(alto->requestedManifest()));
  // Strip insert_flow from the TE app's grant.
  auto granted = lang::parsePermissions(te->requestedManifest());
  granted.revoke(perm::Token::kInsertFlow);
  of::AppId teId = shield.loadApp(te, granted);

  ASSERT_TRUE(alto->publishUpdate());
  shield.container(teId)->postAndWait([] {});
  EXPECT_EQ(te->updatesProcessed(), 1u);
  EXPECT_EQ(te->rulesInstalled(), 0u);
  EXPECT_EQ(network.switchAt(2)->flowCount(), 0u);
}

TEST(Firewall, BlocksConfiguredPortAtChokepoint) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h3 = network.hostByIp(of::Ipv4Address(10, 0, 0, 3));

  iso::BaselineRuntime runtime(controller);
  auto routing = std::make_shared<ShortestPathRoutingApp>();
  auto firewall = std::make_shared<FirewallApp>();
  runtime.loadApp(routing);
  runtime.loadApp(firewall);
  ASSERT_TRUE(firewall->blockTcpDstPort(2, 23));

  // Port 80 passes end to end.
  h1->send(tcpSyn(*h1, *h3, 80));
  EXPECT_EQ(h3->receivedCount(), 1u);
  // Port 23 dies at the chokepoint.
  h1->send(tcpSyn(*h1, *h3, 23));
  EXPECT_EQ(h3->receivedCount(), 1u);

  // Unblocking restores delivery.
  ASSERT_TRUE(firewall->unblockTcpDstPort(2, 23));
  h1->send(tcpSyn(*h1, *h3, 23));
  EXPECT_EQ(h3->receivedCount(), 2u);
}

TEST(Manifests, AllBundledAppManifestsParse) {
  std::vector<std::unique_ptr<ctrl::App>> apps;
  apps.push_back(std::make_unique<L2LearningSwitch>());
  apps.push_back(std::make_unique<AltoService>());
  apps.push_back(std::make_unique<TrafficEngineeringApp>());
  apps.push_back(std::make_unique<ShortestPathRoutingApp>());
  apps.push_back(std::make_unique<FirewallApp>());
  for (const auto& app : apps) {
    auto manifest = lang::parseManifest(app->requestedManifest());
    EXPECT_EQ(manifest.appName, app->name());
    EXPECT_FALSE(manifest.permissions.empty()) << app->name();
  }
}

TEST(Manifests, RoutingManifestPassesScenario2BoundaryPolicy) {
  ShortestPathRoutingApp app;
  auto manifest = lang::parseManifest(app.requestedManifest());
  reconcile::Reconciler reconciler(lang::parsePolicy(
      "LET routingBound = {\n"
      "PERM visible_topology\nPERM pkt_in_event\nPERM flow_event\n"
      "PERM send_pkt_out LIMITING FROM_PKT_IN\n"
      "PERM insert_flow LIMITING ACTION FORWARD AND OWN_FLOWS\n"
      "}\n"
      "LET appPerm = APP routing\n"
      "ASSERT appPerm <= routingBound\n"));
  auto result = reconciler.reconcile(manifest);
  EXPECT_TRUE(result.clean());
}

}  // namespace
}  // namespace sdnshield::apps
