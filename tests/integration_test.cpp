// Cross-module integration scenarios: the full pipeline (manifest text →
// reconciliation with distributed templates → shielded deployment → observed
// behaviour) and a concurrency stress over the whole runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "apps/l2_learning.h"
#include "apps/malicious/info_leaker.h"
#include "apps/malicious/route_hijacker.h"
#include "apps/routing.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"
#include "core/reconcile/policy_templates.h"
#include "core/reconcile/reconciler.h"
#include "isolation/api_proxy.h"
#include "switchsim/sim_network.h"

namespace sdnshield {
namespace {

using namespace std::chrono_literals;

const of::Ipv4Address kEvil(203, 0, 113, 66);
const of::Ipv4Address kAdminNet(10, 1, 0, 0);

TEST(TemplatePipeline, BaselineProfileContainsTheLeakerEndToEnd) {
  // Manifest text -> template reconciliation -> shielded runtime -> attack.
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(2);
  iso::ShieldRuntime shield(controller);

  auto attacker = std::make_shared<apps::InfoLeakerApp>(kEvil);
  reconcile::Reconciler reconciler(lang::parsePolicy(
      reconcile::templates::baselineProfile("info_leaker", kAdminNet, 16)));
  auto reconciled =
      reconciler.reconcile(lang::parseManifest(attacker->requestedManifest()));
  of::AppId id = shield.loadApp(attacker, reconciled.finalPermissions);

  shield.container(id)->postAndWait([&] { attacker->leak(); });
  EXPECT_TRUE(shield.hostSystem().netMessagesTo(kEvil).empty());
}

TEST(TemplatePipeline, BaselineProfileContainsTheHijackerEndToEnd) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(3);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h2 = network.hostByIp(of::Ipv4Address(10, 0, 0, 2));
  auto h3 = network.hostByIp(of::Ipv4Address(10, 0, 0, 3));
  iso::ShieldRuntime shield(controller);

  auto routing = std::make_shared<apps::ShortestPathRoutingApp>();
  shield.loadApp(routing, lang::parsePermissions(routing->requestedManifest()));
  auto attacker =
      std::make_shared<apps::RouteHijackerApp>(h3->ip(), h2->ip());
  reconcile::Reconciler reconciler(lang::parsePolicy(
      reconcile::templates::baselineProfile("route_hijacker", kAdminNet, 16)));
  auto reconciled =
      reconciler.reconcile(lang::parseManifest(attacker->requestedManifest()));
  shield.loadApp(attacker, reconciled.finalPermissions);

  // The legitimate path comes up first...
  h1->send(of::Packet::makeTcp(h1->mac(), h3->mac(), h1->ip(), h3->ip(), 40000,
                               80, of::tcpflags::kSyn));
  ASSERT_TRUE(h3->waitForPackets(1, 2000ms));
  // ...and the template-confined attacker cannot override it (OWN_FLOWS).
  attacker->hijack();
  EXPECT_EQ(attacker->rulesInstalled(), 0u);
  h1->send(of::Packet::makeTcp(h1->mac(), h3->mac(), h1->ip(), h3->ip(), 40001,
                               80, of::tcpflags::kSyn));
  ASSERT_TRUE(h3->waitForPackets(2, 2000ms));
  EXPECT_EQ(h2->receivedCount(), 0u);
}

TEST(TemplatePipeline, BaselineProfileKeepsL2Functional) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(1);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h2 = network.addHost(1, 5, of::MacAddress::fromUint64(0xBB),
                            of::Ipv4Address(10, 0, 0, 99));
  iso::ShieldRuntime shield(controller);

  auto app = std::make_shared<apps::L2LearningSwitch>();
  reconcile::Reconciler reconciler(lang::parsePolicy(
      reconcile::templates::baselineProfile("l2_learning", kAdminNet, 16)));
  auto reconciled =
      reconciler.reconcile(lang::parseManifest(app->requestedManifest()));
  shield.loadApp(app, reconciled.finalPermissions);

  h1->send(of::Packet::makeTcp(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 40000,
                               80, of::tcpflags::kSyn));
  ASSERT_TRUE(h2->waitForPackets(1, 2000ms));
  h2->send(of::Packet::makeTcp(h2->mac(), h1->mac(), h2->ip(), h1->ip(), 80,
                               40000, of::tcpflags::kAck));
  ASSERT_TRUE(h1->waitForPackets(1, 2000ms));
  app->drainPending();
  EXPECT_EQ(app->rulesInstalled(), 1u);
}

// --- concurrency stress ----------------------------------------------------------

/// An app that hammers the mediated API from its event handler.
class StressApp final : public ctrl::App {
 public:
  StressApp(std::string name, std::atomic<std::uint64_t>& ops)
      : name_(std::move(name)), ops_(ops) {}

  std::string name() const override { return name_; }
  std::string requestedManifest() const override {
    return "PERM pkt_in_event\nPERM insert_flow LIMITING MAX_RULE_COUNT 64\n"
           "PERM read_flow_table\nPERM read_statistics\n";
  }
  void init(ctrl::AppContext& context) override {
    context_ = &context;
    context.subscribePacketIn([this](const ctrl::PacketInEvent& event) {
      of::FlowMod mod;
      mod.match.tpDst = static_cast<std::uint16_t>(ops_.load() % 64);
      mod.priority = 10;
      mod.actions.push_back(of::OutputAction{1});
      context_->api().insertFlow(event.packetIn.dpid, mod);
      context_->api().readFlowTable(event.packetIn.dpid);
      of::StatsRequest request;
      request.level = of::StatsLevel::kSwitch;
      request.dpid = event.packetIn.dpid;
      context_->api().readStatistics(request);
      ops_.fetch_add(1, std::memory_order_relaxed);
    });
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t>& ops_;
  ctrl::AppContext* context_ = nullptr;
};

TEST(ConcurrencyStress, ManyAppsManyDriversNoLossNoCrash) {
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(4);
  iso::ShieldOptions options;
  options.ksdThreads = 4;
  iso::ShieldRuntime shield(controller, options);

  constexpr int kApps = 6;
  constexpr int kDrivers = 4;
  constexpr int kEventsPerDriver = 100;
  std::atomic<std::uint64_t> ops{0};
  for (int i = 0; i < kApps; ++i) {
    auto app = std::make_shared<StressApp>("stress" + std::to_string(i), ops);
    shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));
  }

  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&controller, d] {
      of::PacketIn packetIn;
      packetIn.dpid = static_cast<of::DatapathId>(d % 4 + 1);
      packetIn.inPort = 1;
      packetIn.packet = of::Packet::makeArpRequest(
          of::MacAddress::fromUint64(static_cast<std::uint64_t>(d) + 1),
          of::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(d + 1)),
          of::Ipv4Address(10, 0, 0, 200));
      for (int i = 0; i < kEventsPerDriver; ++i) {
        controller.onPacketIn(packetIn);
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // Every event reaches every app exactly once; wait for the queues to
  // drain with a hard deadline.
  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kApps) * kDrivers * kEventsPerDriver;
  auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ops.load() < kExpected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ops.load(), kExpected);
  // The audit log saw at least one record per mediated call (3 per event
  // handler invocation, plus subscription checks).
  EXPECT_GE(controller.audit().totalRecorded(), kExpected * 3);
  // The MAX_RULE_COUNT quota held under concurrency: no app exceeds 64
  // rules on any switch.
  for (of::DatapathId dpid : controller.switchIds()) {
    for (int appIndex = 0; appIndex < kApps; ++appIndex) {
      EXPECT_LE(controller.ownership().countFor(
                    static_cast<of::AppId>(appIndex + 1), dpid),
                64u);
    }
  }
}

}  // namespace
}  // namespace sdnshield
