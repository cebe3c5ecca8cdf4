// End-to-end tests of the SDNShield deployment: app loading, API mediation
// through the KSD pool, ownership/provenance enrichment, response
// projection, payload stripping and virtual-topology translation.
#include "isolation/api_proxy.h"

#include <gtest/gtest.h>

#include "core/lang/perm_parser.h"
#include "obs/metrics.h"
#include "switchsim/sim_network.h"

namespace sdnshield::iso {
namespace {

using lang::parsePermissions;

/// A scriptable app: runs a user callback at init and keeps the context so
/// tests can issue API calls "as the app" afterwards.
class TestApp final : public ctrl::App {
 public:
  explicit TestApp(std::string name = "test_app") : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  std::string requestedManifest() const override { return ""; }
  void init(ctrl::AppContext& context) override { context_ = &context; }

  ctrl::AppContext& context() { return *context_; }

 private:
  std::string name_;
  ctrl::AppContext* context_ = nullptr;
};

of::FlowMod modTo(const char* ipDst, std::uint16_t priority = 10) {
  of::FlowMod mod;
  mod.match.ethType = 0x0800;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address::parse(ipDst)};
  mod.priority = priority;
  mod.actions.push_back(of::OutputAction{1});
  return mod;
}

class ShieldRuntimeTest : public ::testing::Test {
 protected:
  ShieldRuntimeTest() : network_(controller_), shield_(controller_) {
    network_.buildLinear(3);
  }

  of::AppId load(std::shared_ptr<TestApp> app, const std::string& perms) {
    return shield_.loadApp(app, parsePermissions(perms));
  }

  ctrl::Controller controller_;
  sim::SimNetwork network_;
  ShieldRuntime shield_;
};

TEST_F(ShieldRuntimeTest, LoadAppRunsInitInsideSandbox) {
  auto app = std::make_shared<TestApp>();
  of::AppId id = load(app, "PERM visible_topology\n");
  EXPECT_GE(id, 1u);
  EXPECT_NE(shield_.container(id), nullptr);
  EXPECT_EQ(app->context().appId(), id);
}

TEST_F(ShieldRuntimeTest, GrantedInsertFlowReachesSwitch) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM insert_flow\n");
  ctrl::ApiResult result = app->context().api().insertFlow(1, modTo("10.0.0.9"));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 1u);
}

TEST_F(ShieldRuntimeTest, DeniedInsertFlowNeverReachesSwitch) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM read_statistics\n");
  ctrl::ApiResult result = app->context().api().insertFlow(1, modTo("10.0.0.9"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ctrl::ApiErrc::kPermissionDenied);
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 0u);
  EXPECT_GE(controller_.audit().deniedCount(), 1u);
}

TEST_F(ShieldRuntimeTest, FilterBoundInsertFlow) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.255.255.0 AND "
       "MAX_PRIORITY 50\n");
  EXPECT_TRUE(app->context().api().insertFlow(1, modTo("10.0.0.9", 20)).ok());
  EXPECT_FALSE(app->context().api().insertFlow(1, modTo("10.9.0.9", 20)).ok());
  EXPECT_FALSE(app->context().api().insertFlow(1, modTo("10.0.0.9", 90)).ok());
}

TEST_F(ShieldRuntimeTest, OwnFlowsBlocksOverridingForeignRules) {
  auto firewall = std::make_shared<TestApp>("fw");
  load(firewall, "PERM insert_flow\n");
  auto routing = std::make_shared<TestApp>("routing");
  load(routing, "PERM insert_flow LIMITING OWN_FLOWS\n");

  // The firewall installs a drop rule for TCP:23.
  of::FlowMod fwRule;
  fwRule.match.ipProto = 6;
  fwRule.match.tpDst = 23;
  fwRule.priority = 100;
  fwRule.actions.push_back(of::DropAction{});
  ASSERT_TRUE(firewall->context().api().insertFlow(2, fwRule).ok());

  // The routing app may install non-overlapping rules...
  EXPECT_TRUE(routing->context().api().insertFlow(2, modTo("10.0.0.9", 10)).ok());
  // ...but not shadow the firewall's rule with a higher-priority overlap.
  of::FlowMod shadow;
  shadow.match.tpDst = 23;
  shadow.priority = 120;
  shadow.actions.push_back(of::OutputAction{1});
  EXPECT_FALSE(routing->context().api().insertFlow(2, shadow).ok());
}

TEST_F(ShieldRuntimeTest, TableSizeFilterCapsInstalledRules) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM insert_flow LIMITING MAX_RULE_COUNT 2\n");
  EXPECT_TRUE(app->context().api().insertFlow(1, modTo("10.0.0.1")).ok());
  EXPECT_TRUE(app->context().api().insertFlow(1, modTo("10.0.0.2")).ok());
  EXPECT_FALSE(app->context().api().insertFlow(1, modTo("10.0.0.3")).ok());
  // Other switches have their own budget.
  EXPECT_TRUE(app->context().api().insertFlow(2, modTo("10.0.0.3")).ok());
}

TEST_F(ShieldRuntimeTest, ModifyFlowRequiresOwnershipUnderOwnFlows) {
  auto owner = std::make_shared<TestApp>("owner");
  load(owner, "PERM insert_flow\n");
  auto other = std::make_shared<TestApp>("other");
  load(other, "PERM insert_flow LIMITING OWN_FLOWS\n");
  ASSERT_TRUE(owner->context().api().insertFlow(1, modTo("10.0.0.9")).ok());

  of::FlowMod rewrite = modTo("10.0.0.9");
  rewrite.command = of::FlowModCommand::kModifyStrict;
  rewrite.actions = {of::OutputAction{3}};
  // `other` may not rewrite the owner's rule...
  EXPECT_FALSE(other->context().api().insertFlow(1, rewrite).ok());
  // ...but may modify rules it owns itself.
  ASSERT_TRUE(other->context().api().insertFlow(1, modTo("10.0.0.7", 20)).ok());
  of::FlowMod own = modTo("10.0.0.7", 20);
  own.command = of::FlowModCommand::kModifyStrict;
  own.actions = {of::OutputAction{3}};
  EXPECT_TRUE(other->context().api().insertFlow(1, own).ok());
}

TEST_F(ShieldRuntimeTest, SubsetBigSwitchOnlySpansItsMembers) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM visible_topology LIMITING VIRTUAL {1,2}\n"
       "PERM insert_flow\n");
  auto view = app->context().api().readTopology();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().switchCount(), 1u);
  // Only the hosts attached inside the member subset are visible.
  EXPECT_EQ(view.value().hosts().size(), 2u);
  EXPECT_FALSE(view.value().hostByIp(of::Ipv4Address(10, 0, 0, 3)).has_value());
}

TEST_F(ShieldRuntimeTest, DeleteFlowRequiresOwnershipUnderOwnFlows) {
  auto owner = std::make_shared<TestApp>("owner");
  load(owner, "PERM insert_flow\nPERM delete_flow\n");
  auto other = std::make_shared<TestApp>("other");
  load(other, "PERM delete_flow LIMITING OWN_FLOWS\n");
  ASSERT_TRUE(owner->context().api().insertFlow(1, modTo("10.0.0.9")).ok());
  // `other` cannot delete the owner's rule...
  EXPECT_FALSE(
      other->context().api().deleteFlow(1, modTo("10.0.0.9").match, true, 10).ok());
  // ...while the owner can.
  EXPECT_TRUE(
      owner->context().api().deleteFlow(1, modTo("10.0.0.9").match, true, 10).ok());
}

TEST_F(ShieldRuntimeTest, ReadFlowTableProjectsVisibleEntries) {
  auto writer = std::make_shared<TestApp>("writer");
  load(writer, "PERM insert_flow\n");
  ASSERT_TRUE(writer->context().api().insertFlow(1, modTo("10.13.0.1")).ok());
  ASSERT_TRUE(writer->context().api().insertFlow(1, modTo("10.14.0.1", 20)).ok());

  auto reader = std::make_shared<TestApp>("reader");
  load(reader,
       "PERM read_flow_table LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0\n");
  auto response = reader->context().api().readFlowTable(1);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().size(), 1u);  // Only the 10.13/16 entry visible.
  EXPECT_TRUE(response.value()[0].match.ipDst->matches(
      of::Ipv4Address(10, 13, 0, 1)));

  auto blind = std::make_shared<TestApp>("blind");
  load(blind, "PERM read_statistics\n");
  EXPECT_FALSE(blind->context().api().readFlowTable(1).ok());
}

TEST_F(ShieldRuntimeTest, OwnFlowsReadProjection) {
  auto a = std::make_shared<TestApp>("a");
  load(a, "PERM insert_flow\nPERM read_flow_table LIMITING OWN_FLOWS\n");
  auto b = std::make_shared<TestApp>("b");
  load(b, "PERM insert_flow\n");
  ASSERT_TRUE(a->context().api().insertFlow(1, modTo("10.0.0.1")).ok());
  ASSERT_TRUE(b->context().api().insertFlow(1, modTo("10.0.0.2", 20)).ok());
  auto response = a->context().api().readFlowTable(1);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().size(), 1u);
  EXPECT_EQ(response.value()[0].priority, 10);
}

TEST_F(ShieldRuntimeTest, TopologyProjectionRestrictsView) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM visible_topology LIMITING SWITCH {1,2} LINK {(1,2)}\n");
  auto response = app->context().api().readTopology();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().switchCount(), 2u);
  EXPECT_TRUE(response.value().hasLink(1, 2));
  EXPECT_FALSE(response.value().hasSwitch(3));
}

TEST_F(ShieldRuntimeTest, MissingTopologyTokenDeniesRead) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM read_statistics\n");
  EXPECT_FALSE(app->context().api().readTopology().ok());
}

TEST_F(ShieldRuntimeTest, VirtualTopologyPresentsSingleBigSwitch) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH\n"
       "PERM insert_flow\n");
  auto response = app->context().api().readTopology();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().switchCount(), 1u);
  EXPECT_TRUE(response.value().hasSwitch(kVirtualDpid));
  EXPECT_EQ(response.value().hosts().size(), 3u);  // All hosts re-attached.

  // A rule addressed to the big switch expands along physical paths.
  auto host3 = response.value().hostByIp(of::Ipv4Address(10, 0, 0, 3));
  ASSERT_TRUE(host3.has_value());
  of::FlowMod vmod;
  vmod.match.ethType = 0x0800;
  vmod.match.ipDst = of::MaskedIpv4{host3->ip};
  vmod.priority = 30;
  vmod.actions.push_back(of::OutputAction{host3->port});
  ASSERT_TRUE(app->context().api().insertFlow(kVirtualDpid, vmod).ok());
  // Destination-based realisation: every physical switch got a shard.
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 1u);
  EXPECT_EQ(network_.switchAt(2)->flowCount(), 1u);
  EXPECT_EQ(network_.switchAt(3)->flowCount(), 1u);
}

TEST_F(ShieldRuntimeTest, StatsLevelFilterGatesGranularity) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM read_statistics LIMITING PORT_LEVEL\n");
  of::StatsRequest port;
  port.level = of::StatsLevel::kPort;
  port.dpid = 1;
  EXPECT_TRUE(app->context().api().readStatistics(port).ok());
  of::StatsRequest flow;
  flow.level = of::StatsLevel::kFlow;
  flow.dpid = 1;
  EXPECT_FALSE(app->context().api().readStatistics(flow).ok());
}

TEST_F(ShieldRuntimeTest, VirtualSwitchStatsAggregateMembers) {
  auto writer = std::make_shared<TestApp>("writer");
  load(writer, "PERM insert_flow\n");
  ASSERT_TRUE(writer->context().api().insertFlow(1, modTo("10.0.0.1")).ok());
  ASSERT_TRUE(writer->context().api().insertFlow(2, modTo("10.0.0.2")).ok());

  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH\n"
       "PERM read_statistics\n");
  of::StatsRequest request;
  request.level = of::StatsLevel::kSwitch;
  request.dpid = kVirtualDpid;
  auto response = app->context().api().readStatistics(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().switchStats.dpid, kVirtualDpid);
  EXPECT_EQ(response.value().switchStats.activeFlows, 2u);
}

TEST_F(ShieldRuntimeTest, PacketInPayloadStrippedWithoutReadPayload) {
  auto noPayload = std::make_shared<TestApp>("nopayload");
  load(noPayload, "PERM pkt_in_event\n");
  auto withPayload = std::make_shared<TestApp>("payload");
  load(withPayload, "PERM pkt_in_event\nPERM read_payload\n");

  std::promise<std::size_t> strippedSize;
  std::promise<std::size_t> fullSize;
  noPayload->context().subscribePacketIn(
      [&](const ctrl::PacketInEvent& event) {
        strippedSize.set_value(event.packetIn.packet.payload.size());
      });
  withPayload->context().subscribePacketIn(
      [&](const ctrl::PacketInEvent& event) {
        fullSize.set_value(event.packetIn.packet.payload.size());
      });

  of::Packet packet = of::Packet::makeTcp(
      of::MacAddress::fromUint64(1), of::MacAddress::fromUint64(2),
      of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), 1, 80,
      of::tcpflags::kPsh, of::Bytes{'s', 'e', 'c', 'r', 'e', 't'});
  controller_.onPacketIn(of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0,
                                      packet});
  EXPECT_EQ(strippedSize.get_future().get(), 0u);
  EXPECT_EQ(fullSize.get_future().get(), 6u);
}

TEST_F(ShieldRuntimeTest, SubscriptionDeniedWithoutEventToken) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM read_statistics\n");
  ctrl::ApiResponse<ctrl::SubscriptionId> result =
      app->context().subscribePacketIn([](const ctrl::PacketInEvent&) {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ctrl::ApiErrc::kPermissionDenied);
  // No delivery happens either.
  controller_.onPacketIn(of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0, {}});
}

TEST_F(ShieldRuntimeTest, PacketOutProvenanceIsEstablishedByDeputy) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM pkt_in_event\n"
       "PERM send_pkt_out LIMITING FROM_PKT_IN\n");
  std::promise<of::Packet> delivered;
  app->context().subscribePacketIn([&](const ctrl::PacketInEvent& event) {
    delivered.set_value(event.packetIn.packet);
  });
  of::Packet seen = of::Packet::makeTcp(
      of::MacAddress::fromUint64(1), of::MacAddress::fromUint64(2),
      of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), 1, 80,
      of::tcpflags::kSyn);
  controller_.onPacketIn(of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0,
                                      seen});
  of::Packet received = delivered.get_future().get();

  // Echoing the delivered packet is allowed...
  of::PacketOut echo;
  echo.dpid = 1;
  echo.packet = received;
  echo.fromPacketIn = false;  // App-supplied flag is ignored.
  echo.actions.push_back(of::OutputAction{1});
  EXPECT_TRUE(app->context().api().sendPacketOut(echo).ok());

  // ...but a fabricated packet is not, even if the app lies about it.
  of::PacketOut forged;
  forged.dpid = 1;
  forged.packet = of::Packet::makeTcp(
      of::MacAddress::fromUint64(9), of::MacAddress::fromUint64(2),
      of::Ipv4Address(10, 0, 0, 9), of::Ipv4Address(10, 0, 0, 2), 1, 80,
      of::tcpflags::kRst);
  forged.fromPacketIn = true;  // Lie.
  forged.actions.push_back(of::OutputAction{1});
  EXPECT_FALSE(app->context().api().sendPacketOut(forged).ok());
}

TEST_F(ShieldRuntimeTest, PacketInWindowOverflowEvictsOldestProvenance) {
  // Overload: the app's handler is stuck on its first event while 1,025
  // distinct packet-ins arrive. The deputy's FROM_PKT_IN window holds the
  // last 1,024, so the first packet loses its provenance.
  const obs::Counter evicted =
      obs::Registry::global().counter("isolation.pktin_window.evicted");
  const std::uint64_t evictedBefore = evicted.value();
  auto app = std::make_shared<TestApp>();
  of::AppId id = load(app,
                      "PERM pkt_in_event\n"
                      "PERM send_pkt_out LIMITING FROM_PKT_IN\n");
  std::promise<void> blocked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> first{true};
  ASSERT_TRUE(app->context()
                  .subscribePacketIn([&](const ctrl::PacketInEvent&) {
                    if (first.exchange(false)) {
                      blocked.set_value();
                      released.wait();
                    }
                  })
                  .ok());
  auto probe = [](std::uint16_t n) {
    return of::Packet::makeTcp(
        of::MacAddress::fromUint64(1), of::MacAddress::fromUint64(2),
        of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), n, 80,
        of::tcpflags::kSyn);
  };
  constexpr std::uint16_t kPackets = 1025;
  for (std::uint16_t n = 0; n < kPackets; ++n) {
    controller_.onPacketIn(
        of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0, probe(n)});
  }
  blocked.get_future().wait();
  release.set_value();
  shield_.container(id)->postAndWait([] {});

  auto echo = [&](std::uint16_t n) {
    of::PacketOut out;
    out.dpid = 1;
    out.packet = probe(n);
    out.actions.push_back(of::OutputAction{1});
    return app->context().api().sendPacketOut(out);
  };
  ctrl::ApiResult oldest = echo(0);
  EXPECT_FALSE(oldest.ok());
  EXPECT_EQ(oldest.code(), ctrl::ApiErrc::kPermissionDenied);
  EXPECT_TRUE(echo(kPackets - 1).ok());
  EXPECT_EQ(evicted.value() - evictedBefore, 1u);
}

TEST_F(ShieldRuntimeTest, FlowEventsFilteredPerEvent) {
  auto watcher = std::make_shared<TestApp>("watcher");
  load(watcher,
       "PERM flow_event LIMITING OWN_FLOWS\nPERM insert_flow\n");
  auto other = std::make_shared<TestApp>("other");
  load(other, "PERM insert_flow\n");

  std::mutex mutex;
  std::vector<of::AppId> issuers;
  watcher->context().subscribeFlowEvents([&](const ctrl::FlowEvent& event) {
    std::lock_guard lock(mutex);
    issuers.push_back(event.issuer);
  });
  ASSERT_TRUE(other->context().api().insertFlow(1, modTo("10.0.0.8", 20)).ok());
  ASSERT_TRUE(watcher->context().api().insertFlow(1, modTo("10.0.0.9")).ok());
  // Drain the watcher's event queue.
  shield_.container(watcher->context().appId())->postAndWait([] {});
  std::lock_guard lock(mutex);
  ASSERT_EQ(issuers.size(), 1u);
  EXPECT_EQ(issuers[0], watcher->context().appId());
}

TEST_F(ShieldRuntimeTest, TransactionsRollBackOnDenial) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM insert_flow LIMITING IP_DST 10.0.0.0 MASK 255.0.0.0\n");
  std::vector<std::pair<of::DatapathId, of::FlowMod>> mods{
      {1, modTo("10.0.0.1")},
      {2, modTo("99.0.0.1")},  // Violates the filter.
  };
  ctrl::ApiResult result = app->context().api().commitFlowTransaction(mods);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 0u);
  EXPECT_EQ(network_.switchAt(2)->flowCount(), 0u);

  mods[1].second = modTo("10.0.0.2");
  EXPECT_TRUE(app->context().api().commitFlowTransaction(mods).ok());
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 1u);
  EXPECT_EQ(network_.switchAt(2)->flowCount(), 1u);
}

TEST_F(ShieldRuntimeTest, TransactionalModifyCannotRewriteForeignRule) {
  auto owner = std::make_shared<TestApp>("owner");
  of::AppId ownerId = load(owner, "PERM insert_flow\n");
  auto attacker = std::make_shared<TestApp>("attacker");
  load(attacker, "PERM insert_flow LIMITING OWN_FLOWS\n");
  of::FlowMod victim = modTo("10.0.0.5", 100);
  ASSERT_TRUE(owner->context().api().insertFlow(1, victim).ok());

  // An all-wildcard modify at priority 0 touches every rule on the switch,
  // the owner's priority-100 rule included.
  of::FlowMod rewrite;
  rewrite.command = of::FlowModCommand::kModify;
  rewrite.priority = 0;
  rewrite.actions.push_back(of::OutputAction{7});
  ctrl::ApiResult committed =
      attacker->context().api().commitFlowTransaction({{1, rewrite}});
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.code(), ctrl::ApiErrc::kTransactionAborted);
  // The transactional and the direct path reach the same verdict.
  ctrl::ApiResult direct = attacker->context().api().insertFlow(1, rewrite);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.code(), ctrl::ApiErrc::kPermissionDenied);

  auto entries = network_.switchAt(1)->dumpFlows();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  const of::FlowEntry& entry = entries.value()[0];
  ASSERT_EQ(entry.actions.size(), 1u);
  const auto* output = std::get_if<of::OutputAction>(&entry.actions[0]);
  ASSERT_NE(output, nullptr);
  EXPECT_EQ(output->port, 1u);
  EXPECT_EQ(entry.cookie, ownerId);
  EXPECT_EQ(controller_.ownership().ownerOf(1, victim.match, 100), ownerId);
}

TEST_F(ShieldRuntimeTest, TransactionalModifyIsNotCountedTowardRuleLimit) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM insert_flow LIMITING MAX_RULE_COUNT 2\n");
  ASSERT_TRUE(app->context().api().insertFlow(1, modTo("10.0.0.1")).ok());
  ASSERT_TRUE(app->context().api().insertFlow(1, modTo("10.0.0.2")).ok());

  // At the limit: another add is refused, a modify of an own rule is not.
  EXPECT_FALSE(app->context()
                   .api()
                   .commitFlowTransaction({{1, modTo("10.0.0.3")}})
                   .ok());
  of::FlowMod rewrite = modTo("10.0.0.1");
  rewrite.command = of::FlowModCommand::kModifyStrict;
  rewrite.actions = {of::OutputAction{3}};
  EXPECT_TRUE(app->context().api().commitFlowTransaction({{1, rewrite}}).ok());
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 2u);
}

TEST_F(ShieldRuntimeTest, TopologyEventsFilteredBySwitchGrant) {
  auto app = std::make_shared<TestApp>();
  load(app, "PERM topology_event LIMITING SWITCH {1,2} LINK {(1,2)}\n");
  std::mutex mutex;
  std::vector<ctrl::TopologyEvent> seen;
  ASSERT_TRUE(app->context()
                  .subscribeTopologyEvents([&](const ctrl::TopologyEvent& e) {
                    std::lock_guard lock(mutex);
                    seen.push_back(e);
                  })
                  .ok());
  controller_.addLink(1, 10, 2, 10);  // Inside the granted slice.
  controller_.addLink(2, 11, 3, 11);  // Touches switch 3: filtered out.
  shield_.container(app->context().appId())->postAndWait([] {});
  std::lock_guard lock(mutex);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].change, ctrl::TopologyChange::kLinkUp);
  EXPECT_EQ(seen[0].dpidA, 1u);
  EXPECT_EQ(seen[0].dpidB, 2u);
}

TEST_F(ShieldRuntimeTest, ErrorEventsDeliveredOnAppContainer) {
  auto app = std::make_shared<TestApp>();
  of::AppId id = load(app, "PERM error_event\n");
  std::thread::id containerThread;
  shield_.container(id)->postAndWait(
      [&] { containerThread = std::this_thread::get_id(); });
  std::mutex mutex;
  std::vector<std::pair<std::thread::id, of::AppId>> deliveries;
  ASSERT_TRUE(app->context()
                  .subscribeErrorEvents([&](const ctrl::ErrorEvent&) {
                    std::lock_guard lock(mutex);
                    deliveries.emplace_back(std::this_thread::get_id(),
                                            currentAppId());
                  })
                  .ok());
  controller_.onSwitchError(of::ErrorMsg{1, of::ErrorType::kTableFull, "a"});
  controller_.onSwitchError(of::ErrorMsg{2, of::ErrorType::kBadMatch, "b"});
  shield_.container(id)->postAndWait([] {});
  std::lock_guard lock(mutex);
  ASSERT_EQ(deliveries.size(), 2u);
  for (const auto& [thread, identity] : deliveries) {
    EXPECT_EQ(thread, containerThread);
    EXPECT_EQ(identity, id);
  }
}

TEST_F(ShieldRuntimeTest, DataSubscriptionGatedByTopologyEventAndTopic) {
  auto publisher = std::make_shared<TestApp>("pub");
  load(publisher, "PERM modify_topology\n");
  auto reader = std::make_shared<TestApp>("reader");
  of::AppId readerId = load(reader, "PERM topology_event\n");
  auto outsider = std::make_shared<TestApp>("outsider");
  load(outsider, "PERM flow_event\n");

  ctrl::ApiResponse<ctrl::SubscriptionId> refused =
      outsider->context().subscribeData("cost",
                                        [](const ctrl::DataUpdateEvent&) {});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ctrl::ApiErrc::kPermissionDenied);

  std::mutex mutex;
  std::vector<std::string> payloads;
  ASSERT_TRUE(reader->context()
                  .subscribeData("cost",
                                 [&](const ctrl::DataUpdateEvent& event) {
                                   std::lock_guard lock(mutex);
                                   payloads.push_back(event.payload);
                                 })
                  .ok());
  ASSERT_TRUE(publisher->context().api().publishData("cost", "1").ok());
  ASSERT_TRUE(publisher->context().api().publishData("other", "2").ok());
  ASSERT_TRUE(publisher->context().api().publishData("cost", "3").ok());
  shield_.container(readerId)->postAndWait([] {});
  std::lock_guard lock(mutex);
  EXPECT_EQ(payloads, (std::vector<std::string>{"1", "3"}));
}

TEST(ShieldRuntimeQueueTest, FullContainerQueueCountsEveryEventKindAsDrop) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(2);
  ShieldOptions options;
  options.appQueueCapacity = 2;
  options.supervisor.dropQuarantineThreshold = 1u << 30;  // Count only.
  ShieldRuntime shield(controller, options);

  auto app = std::make_shared<TestApp>();
  of::AppId id = shield.loadApp(
      app, parsePermissions("PERM pkt_in_event\nPERM flow_event\n"
                            "PERM topology_event\nPERM error_event\n"));
  ctrl::AppContext& context = app->context();
  ASSERT_TRUE(
      context.subscribePacketIn([](const ctrl::PacketInEvent&) {}).ok());
  ASSERT_TRUE(context.subscribeFlowEvents([](const ctrl::FlowEvent&) {}).ok());
  ASSERT_TRUE(
      context.subscribeTopologyEvents([](const ctrl::TopologyEvent&) {}).ok());
  ASSERT_TRUE(
      context.subscribeErrorEvents([](const ctrl::ErrorEvent&) {}).ok());
  ASSERT_TRUE(
      context.subscribeData("t", [](const ctrl::DataUpdateEvent&) {}).ok());

  // Park the app thread in a task, then fill its queue.
  std::shared_ptr<ThreadContainer> container = shield.container(id);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_TRUE(container->post([&started, released] {
    started.set_value();
    released.wait();
  }));
  started.get_future().wait();
  while (container->tryPost([] {})) {
  }
  std::uint64_t drops = shield.supervisor().dropCount(id);

  controller.onPacketIn(of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0,
                                     of::Packet{}});
  EXPECT_EQ(shield.supervisor().dropCount(id), ++drops);
  ASSERT_TRUE(controller.kernelInsertFlow(of::kKernelAppId, 1,
                                          modTo("10.0.0.1"))
                  .ok());
  EXPECT_EQ(shield.supervisor().dropCount(id), ++drops);
  controller.addLink(1, 10, 2, 10);
  EXPECT_EQ(shield.supervisor().dropCount(id), ++drops);
  controller.onSwitchError(of::ErrorMsg{1, of::ErrorType::kTableFull, "x"});
  EXPECT_EQ(shield.supervisor().dropCount(id), ++drops);
  controller.kernelPublishData(of::kKernelAppId, "t", "x");
  EXPECT_EQ(shield.supervisor().dropCount(id), ++drops);

  release.set_value();
  shield.shutdown();
}

TEST_F(ShieldRuntimeTest, PublishDataGatedByModifyTopology) {
  auto publisher = std::make_shared<TestApp>("pub");
  load(publisher, "PERM modify_topology\n");
  auto silenced = std::make_shared<TestApp>("nopub");
  load(silenced, "PERM read_statistics\n");
  EXPECT_TRUE(publisher->context().api().publishData("t", "x").ok());
  EXPECT_FALSE(silenced->context().api().publishData("t", "x").ok());
}

TEST_F(ShieldRuntimeTest, HostServicesRouteThroughReferenceMonitor) {
  auto app = std::make_shared<TestApp>();
  of::AppId id = load(app,
                      "PERM network_access LIMITING IP_DST 10.1.0.0 MASK "
                      "255.255.0.0\n");
  // Host calls must carry the app identity, so run them on the app's thread.
  shield_.container(id)->postAndWait([&] {
    EXPECT_TRUE(
        app->context().host().netSend(of::Ipv4Address(10, 1, 1, 1), 80, "ok"));
    EXPECT_FALSE(app->context().host().netSend(
        of::Ipv4Address(203, 0, 113, 66), 4444, "leak"));
  });
  EXPECT_EQ(shield_.hostSystem().netMessages().size(), 1u);
  EXPECT_EQ(shield_.hostSystem().netMessages()[0].app, id);
}

TEST_F(ShieldRuntimeTest, UnloadAppStopsMediationAndDelivery) {
  auto app = std::make_shared<TestApp>();
  of::AppId id = load(app, "PERM insert_flow\n");
  shield_.unloadApp(id);
  EXPECT_EQ(shield_.container(id), nullptr);
  EXPECT_EQ(shield_.engine().compiled(id), nullptr);
}

TEST_F(ShieldRuntimeTest, ManyAppsLoadConcurrentlyDistinctIds) {
  std::vector<of::AppId> ids;
  for (int i = 0; i < 8; ++i) {
    auto app = std::make_shared<TestApp>("app" + std::to_string(i));
    ids.push_back(load(app, "PERM read_statistics\n"));
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST_F(ShieldRuntimeTest, LoadAppCheckedReportsStaticDenials) {
  struct ManifestApp final : public ctrl::App {
    std::string name() const override { return "wants_much"; }
    std::string requestedManifest() const override {
      return "PERM insert_flow\nPERM network_access\n"
             "PERM read_statistics LIMITING PORT_LEVEL\n";
    }
    void init(ctrl::AppContext&) override {}
  };
  auto app = std::make_shared<ManifestApp>();
  // Granted: no network access at all, narrower insert_flow, identical
  // read_statistics.
  auto granted = lang::parsePermissions(
      "PERM insert_flow LIMITING OWN_FLOWS\n"
      "PERM read_statistics LIMITING PORT_LEVEL\n");
  ShieldRuntime::LoadReport report = shield_.loadAppChecked(app, granted);
  EXPECT_FALSE(report.fullyGranted());
  ASSERT_EQ(report.deniedTokens.size(), 1u);
  EXPECT_EQ(report.deniedTokens[0], perm::Token::kHostNetwork);
  ASSERT_EQ(report.narrowedTokens.size(), 1u);
  EXPECT_EQ(report.narrowedTokens[0], perm::Token::kInsertFlow);
  std::string text = report.toString();
  EXPECT_NE(text.find("host_network"), std::string::npos);
  EXPECT_NE(text.find("insert_flow"), std::string::npos);
}

TEST_F(ShieldRuntimeTest, LoadAppCheckedCleanWhenGrantCoversRequest) {
  struct ModestApp final : public ctrl::App {
    std::string name() const override { return "modest"; }
    std::string requestedManifest() const override {
      return "PERM read_statistics LIMITING PORT_LEVEL\n";
    }
    void init(ctrl::AppContext&) override {}
  };
  auto report = shield_.loadAppChecked(
      std::make_shared<ModestApp>(),
      lang::parsePermissions("PERM read_statistics\n"));
  EXPECT_TRUE(report.fullyGranted());
}

TEST_F(ShieldRuntimeTest, VirtualDeleteRemovesAllShards) {
  auto app = std::make_shared<TestApp>();
  load(app,
       "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH\n"
       "PERM insert_flow\nPERM delete_flow\n");
  auto view = app->context().api().readTopology();
  auto host3 = view.value().hostByIp(of::Ipv4Address(10, 0, 0, 3));
  ASSERT_TRUE(host3.has_value());
  of::FlowMod vmod;
  vmod.match.ethType = 0x0800;
  vmod.match.ipDst = of::MaskedIpv4{host3->ip};
  vmod.priority = 30;
  vmod.actions.push_back(of::OutputAction{host3->port});
  ASSERT_TRUE(app->context().api().insertFlow(kVirtualDpid, vmod).ok());
  ASSERT_EQ(network_.switchAt(2)->flowCount(), 1u);

  ASSERT_TRUE(app->context()
                  .api()
                  .deleteFlow(kVirtualDpid, vmod.match, /*strict=*/false, 30)
                  .ok());
  EXPECT_EQ(network_.switchAt(1)->flowCount(), 0u);
  EXPECT_EQ(network_.switchAt(2)->flowCount(), 0u);
  EXPECT_EQ(network_.switchAt(3)->flowCount(), 0u);
}

TEST_F(ShieldRuntimeTest, InterceptionRequiresTheCapability) {
  auto privileged = std::make_shared<TestApp>("ids");
  load(privileged,
       "PERM pkt_in_event LIMITING EVENT_INTERCEPTION\nPERM read_payload\n");
  auto plain = std::make_shared<TestApp>("observer_only");
  load(plain, "PERM pkt_in_event LIMITING MODIFY_EVENT_ORDER\n");

  // The capability-less app cannot register an interceptor.
  EXPECT_FALSE(plain->context()
                   .subscribePacketInInterceptor(
                       [](const ctrl::PacketInEvent&) { return true; })
                   .ok());
  // The privileged one can — and its consume decision gates observers.
  std::atomic<int> observed{0};
  std::promise<void> delivered;
  plain->context().subscribePacketIn([&](const ctrl::PacketInEvent&) {
    observed.fetch_add(1);
    delivered.set_value();
  });
  std::atomic<bool> consume{true};
  ASSERT_TRUE(privileged->context()
                  .subscribePacketInInterceptor(
                      [&](const ctrl::PacketInEvent&) { return consume.load(); })
                  .ok());

  of::PacketIn packetIn{1, 1, of::PacketInReason::kNoMatch, 0,
                        of::Packet::makeArpRequest(
                            of::MacAddress::fromUint64(1),
                            of::Ipv4Address(10, 0, 0, 1),
                            of::Ipv4Address(10, 0, 0, 2))};
  controller_.onPacketIn(packetIn);  // Consumed: observer sees nothing.
  shield_.container(plain->context().appId())->postAndWait([] {});
  EXPECT_EQ(observed.load(), 0);

  consume = false;
  controller_.onPacketIn(packetIn);  // Passed through.
  delivered.get_future().wait();
  EXPECT_EQ(observed.load(), 1);
}

TEST(RecentPacketIns, RemembersBoundedWindow) {
  RecentPacketIns recent(2);
  of::Packet a = of::Packet::makeArpRequest(of::MacAddress::fromUint64(1),
                                            of::Ipv4Address(10, 0, 0, 1),
                                            of::Ipv4Address(10, 0, 0, 2));
  of::Packet b = a;
  b.arp->senderIp = of::Ipv4Address(10, 0, 0, 3);
  of::Packet c = a;
  c.arp->senderIp = of::Ipv4Address(10, 0, 0, 4);
  recent.remember(a);
  recent.remember(b);
  EXPECT_TRUE(recent.seen(a));
  EXPECT_TRUE(recent.seen(b));
  recent.remember(c);  // Evicts a.
  EXPECT_FALSE(recent.seen(a));
  EXPECT_TRUE(recent.seen(b));
  EXPECT_TRUE(recent.seen(c));
}

TEST(RecentPacketIns, RequiresByteEqualityNotJustAHashMatch) {
  RecentPacketIns recent;
  of::Packet original = of::Packet::makeTcp(
      of::MacAddress::fromUint64(1), of::MacAddress::fromUint64(2),
      of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), 4000, 80,
      0x02, of::Bytes{'G', 'E', 'T', ' ', '/'});
  of::Packet forged = original;
  forged.payload[4] = '?';  // One payload byte differs.
  recent.remember(original);
  EXPECT_FALSE(recent.seen(forged));
  EXPECT_TRUE(recent.seen(original));
}

}  // namespace
}  // namespace sdnshield::iso
