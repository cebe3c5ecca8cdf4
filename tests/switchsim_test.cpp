// Simulated switch and network harness: pipeline semantics, flooding,
// packet-in punting, header rewriting, port counters and canned topologies.
#include "switchsim/sim_network.h"

#include <gtest/gtest.h>

#include <memory>

namespace sdnshield::sim {
namespace {

of::Packet tcpPacket(of::MacAddress src, of::MacAddress dst,
                     of::Ipv4Address srcIp, of::Ipv4Address dstIp,
                     std::uint16_t dstPort = 80) {
  return of::Packet::makeTcp(src, dst, srcIp, dstIp, 1234, dstPort,
                             of::tcpflags::kSyn);
}

TEST(SimSwitch, MissPuntsPacketInToController) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  std::vector<of::PacketIn> punted;
  controller.addPacketInSubscriber(1, [&](const ctrl::Event& event) {
    punted.push_back(std::get<ctrl::PacketInEvent>(event).packetIn);
  });
  sw->receivePacket(3, tcpPacket(of::MacAddress::fromUint64(1),
                                 of::MacAddress::fromUint64(2),
                                 of::Ipv4Address(10, 0, 0, 1),
                                 of::Ipv4Address(10, 0, 0, 2)));
  ASSERT_EQ(punted.size(), 1u);
  EXPECT_EQ(punted[0].dpid, 1u);
  EXPECT_EQ(punted[0].inPort, 3u);
  EXPECT_EQ(punted[0].reason, of::PacketInReason::kNoMatch);
  EXPECT_EQ(sw->packetInCount(), 1u);
}

TEST(SimSwitch, MatchingRuleForwardsWithoutPuntingAgain) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  auto host = network.addHost(1, 2, of::MacAddress::fromUint64(2),
                              of::Ipv4Address(10, 0, 0, 2));
  of::FlowMod mod;
  mod.match.ethDst = of::MacAddress::fromUint64(2);
  mod.priority = 10;
  mod.actions.push_back(of::OutputAction{2});
  ASSERT_TRUE(sw->applyFlowMod(mod));
  sw->receivePacket(1, tcpPacket(of::MacAddress::fromUint64(1),
                                 of::MacAddress::fromUint64(2),
                                 of::Ipv4Address(10, 0, 0, 1),
                                 of::Ipv4Address(10, 0, 0, 2)));
  EXPECT_EQ(host->receivedCount(), 1u);
  EXPECT_EQ(sw->packetInCount(), 0u);
}

TEST(SimSwitch, FloodReachesAllPortsExceptIngress) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  auto hostA = network.addHost(1, 1, of::MacAddress::fromUint64(0xA),
                               of::Ipv4Address(10, 0, 0, 1));
  auto hostB = network.addHost(1, 2, of::MacAddress::fromUint64(0xB),
                               of::Ipv4Address(10, 0, 0, 2));
  auto hostC = network.addHost(1, 3, of::MacAddress::fromUint64(0xC),
                               of::Ipv4Address(10, 0, 0, 3));
  of::PacketOut out;
  out.dpid = 1;
  out.inPort = 1;
  out.packet = tcpPacket(hostA->mac(), of::MacAddress::fromUint64(0xFF),
                         hostA->ip(), of::Ipv4Address(10, 0, 0, 9));
  out.actions.push_back(of::OutputAction{of::ports::kFlood});
  sw->transmitPacket(out);
  EXPECT_EQ(hostA->receivedCount(), 0u);  // Ingress excluded.
  EXPECT_EQ(hostB->receivedCount(), 1u);
  EXPECT_EQ(hostC->receivedCount(), 1u);
}

TEST(SimSwitch, SetFieldActionsRewriteHeaders) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  auto host = network.addHost(1, 2, of::MacAddress::fromUint64(2),
                              of::Ipv4Address(10, 0, 0, 2));
  of::FlowMod mod;
  mod.match.tpDst = 23;
  mod.priority = 10;
  of::SetFieldAction rewrite;
  rewrite.field = of::MatchField::kTpDst;
  rewrite.intValue = 80;
  mod.actions.push_back(rewrite);
  mod.actions.push_back(of::OutputAction{2});
  sw->applyFlowMod(mod);
  sw->receivePacket(1, tcpPacket(of::MacAddress::fromUint64(1),
                                 of::MacAddress::fromUint64(2),
                                 of::Ipv4Address(10, 0, 0, 1),
                                 of::Ipv4Address(10, 0, 0, 2), 23));
  ASSERT_EQ(host->receivedCount(), 1u);
  EXPECT_EQ(host->received()[0].tcp->dstPort, 80);
}

TEST(SimSwitch, DropRuleSilentlyDiscards) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  auto host = network.addHost(1, 2, of::MacAddress::fromUint64(2),
                              of::Ipv4Address(10, 0, 0, 2));
  of::FlowMod drop;
  drop.match.tpDst = 23;
  drop.priority = 100;
  drop.actions.push_back(of::DropAction{});
  sw->applyFlowMod(drop);
  sw->receivePacket(1, tcpPacket(of::MacAddress::fromUint64(1), host->mac(),
                                 of::Ipv4Address(10, 0, 0, 1), host->ip(), 23));
  EXPECT_EQ(host->receivedCount(), 0u);
  EXPECT_EQ(sw->packetInCount(), 0u);  // Matched, not punted.
}

TEST(SimSwitch, OutputToControllerPuntsWithActionReason) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  std::vector<of::PacketInReason> reasons;
  controller.addPacketInSubscriber(1, [&](const ctrl::Event& event) {
    reasons.push_back(std::get<ctrl::PacketInEvent>(event).packetIn.reason);
  });
  of::FlowMod mod;
  mod.priority = 1;
  mod.actions.push_back(of::OutputAction{of::ports::kController});
  sw->applyFlowMod(mod);
  sw->receivePacket(1, tcpPacket(of::MacAddress::fromUint64(1),
                                 of::MacAddress::fromUint64(2),
                                 of::Ipv4Address(10, 0, 0, 1),
                                 of::Ipv4Address(10, 0, 0, 2)));
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], of::PacketInReason::kAction);
}

TEST(SimSwitch, PortStatsCountRxAndTx) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  network.addHost(1, 2, of::MacAddress::fromUint64(2),
                  of::Ipv4Address(10, 0, 0, 2));
  of::FlowMod mod;
  mod.priority = 1;
  mod.actions.push_back(of::OutputAction{2});
  sw->applyFlowMod(mod);
  sw->receivePacket(1, tcpPacket(of::MacAddress::fromUint64(1),
                                 of::MacAddress::fromUint64(2),
                                 of::Ipv4Address(10, 0, 0, 1),
                                 of::Ipv4Address(10, 0, 0, 2)));
  of::StatsRequest request;
  request.level = of::StatsLevel::kPort;
  request.dpid = 1;
  of::StatsReply reply = sw->localStats(request);
  std::uint64_t rx = 0;
  std::uint64_t tx = 0;
  for (const of::PortStats& port : reply.ports) {
    rx += port.rxPackets;
    tx += port.txPackets;
  }
  EXPECT_EQ(rx, 1u);
  EXPECT_EQ(tx, 1u);
}

TEST(SimSwitch, FlowStatsRespectMatchSelector) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  of::FlowMod a;
  a.match.tpDst = 80;
  a.priority = 10;
  a.actions.push_back(of::OutputAction{1});
  of::FlowMod b;
  b.match.tpDst = 443;
  b.priority = 10;
  b.actions.push_back(of::OutputAction{1});
  sw->applyFlowMod(a);
  sw->applyFlowMod(b);
  of::StatsRequest request;
  request.level = of::StatsLevel::kFlow;
  request.dpid = 1;
  request.match.tpDst = 80;
  EXPECT_EQ(sw->localStats(request).flows.size(), 1u);
  request.match = of::FlowMatch::any();
  EXPECT_EQ(sw->localStats(request).flows.size(), 2u);
}

TEST(SimNetwork, LinkDeliversBetweenSwitches) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  network.addSwitch(1);
  network.addSwitch(2);
  network.link(1, 2, 2, 3);
  auto host = network.addHost(2, 1, of::MacAddress::fromUint64(2),
                              of::Ipv4Address(10, 0, 0, 2));
  // s1: forward everything out the link; s2: deliver to host port 1.
  of::FlowMod all1;
  all1.priority = 1;
  all1.actions.push_back(of::OutputAction{2});
  network.switchAt(1)->applyFlowMod(all1);
  of::FlowMod all2;
  all2.priority = 1;
  all2.actions.push_back(of::OutputAction{1});
  network.switchAt(2)->applyFlowMod(all2);
  network.switchAt(1)->receivePacket(
      1, tcpPacket(of::MacAddress::fromUint64(1), host->mac(),
                   of::Ipv4Address(10, 0, 0, 1), host->ip()));
  EXPECT_EQ(host->receivedCount(), 1u);
}

TEST(SimNetwork, LinkedSwitchesAndHostsAreFreedWithTheirStack) {
  // Links and host ports wire sinks between switches and hosts; none of
  // them may keep the others alive once the network and the controller it
  // attached its switches to are gone.
  std::weak_ptr<SimSwitch> first;
  std::weak_ptr<SimSwitch> second;
  std::weak_ptr<SimHost> host;
  {
    ctrl::Controller controller;
    SimNetwork network(controller);
    network.buildLinear(2);
    first = network.switchAt(1);
    second = network.switchAt(2);
    host = network.hostByIp(of::Ipv4Address(10, 0, 0, 2));
    ASSERT_FALSE(first.expired());
    ASSERT_FALSE(second.expired());
    ASSERT_FALSE(host.expired());
  }
  EXPECT_TRUE(first.expired());
  EXPECT_TRUE(second.expired());
  EXPECT_TRUE(host.expired());
}

TEST(SimNetwork, BuildLinearCreatesChainWithHosts) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  network.buildLinear(4);
  net::Topology topo = controller.kernelReadTopology();
  EXPECT_EQ(topo.switchCount(), 4u);
  EXPECT_EQ(topo.links().size(), 3u);
  EXPECT_EQ(topo.hosts().size(), 4u);
  EXPECT_TRUE(topo.shortestPath(1, 4).has_value());
  EXPECT_TRUE(network.hostByIp(of::Ipv4Address(10, 0, 0, 3)) != nullptr);
}

TEST(SimNetwork, BuildTreeCreatesFanout) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  network.buildTree(3, 2);  // 1 + 2 + 4 switches.
  net::Topology topo = controller.kernelReadTopology();
  EXPECT_EQ(topo.switchCount(), 7u);
  EXPECT_EQ(topo.links().size(), 6u);
  EXPECT_EQ(topo.hosts().size(), 4u);  // One per leaf.
  EXPECT_TRUE(topo.shortestPath(4, 7).has_value());
}

TEST(SimSwitch, AdvanceTimeExpiresAndNotifiesController) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  std::vector<ctrl::FlowEvent> removedEvents;
  controller.addFlowSubscriber(1, [&](const ctrl::Event& event) {
    const auto& flow = std::get<ctrl::FlowEvent>(event);
    if (flow.change == ctrl::FlowChange::kRemoved) removedEvents.push_back(flow);
  });

  of::FlowMod mod;
  mod.match.tpDst = 80;
  mod.priority = 10;
  mod.idleTimeout = 30;
  mod.actions.push_back(of::OutputAction{1});
  ASSERT_TRUE(controller.kernelInsertFlow(7, 1, mod).ok());
  ASSERT_EQ(controller.ownership().countFor(7, 1), 1u);

  sw->advanceTime(29);
  EXPECT_TRUE(removedEvents.empty());
  sw->advanceTime(1);
  ASSERT_EQ(removedEvents.size(), 1u);
  EXPECT_EQ(removedEvents[0].issuer, 7u);  // Cookie round-trips as issuer.
  EXPECT_EQ(sw->flowCount(), 0u);
  // Ownership tracking follows the expiry.
  EXPECT_EQ(controller.ownership().countFor(7, 1), 0u);
}

TEST(SimSwitch, InterceptorConsumesBeforeObservers) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  auto sw = network.addSwitch(1);
  int observed = 0;
  bool consumeNext = true;
  controller.addPacketInInterceptor(1, [&](const ctrl::Event&) {
    return consumeNext;
  });
  controller.addPacketInSubscriber(2, [&](const ctrl::Event&) { ++observed; });

  auto packet = tcpPacket(of::MacAddress::fromUint64(1),
                          of::MacAddress::fromUint64(2),
                          of::Ipv4Address(10, 0, 0, 1),
                          of::Ipv4Address(10, 0, 0, 2));
  sw->receivePacket(1, packet);
  EXPECT_EQ(observed, 0);  // Consumed by the interceptor.
  consumeNext = false;
  sw->receivePacket(1, packet);
  EXPECT_EQ(observed, 1);  // Passed through.
}

TEST(SimHost, WaitForPacketsObservesDeliveries) {
  ctrl::Controller controller;
  SimNetwork network(controller);
  network.addSwitch(1);
  auto host = network.addHost(1, 1, of::MacAddress::fromUint64(1),
                              of::Ipv4Address(10, 0, 0, 1));
  EXPECT_FALSE(host->waitForPackets(1, std::chrono::milliseconds(10)));
  host->onDelivered(of::Packet{});
  EXPECT_TRUE(host->waitForPackets(1, std::chrono::milliseconds(10)));
  host->clearReceived();
  EXPECT_EQ(host->receivedCount(), 0u);
}

}  // namespace
}  // namespace sdnshield::sim
