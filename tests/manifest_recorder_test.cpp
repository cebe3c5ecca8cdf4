// Dynamic manifest generation (§III): profiling an app through a
// RecordingContext yields the minimum manifest covering its behaviour; the
// app then runs correctly under exactly that manifest.
#include "controller/manifest_recorder.h"

#include <gtest/gtest.h>

#include <chrono>

#include "apps/l2_learning.h"
#include "apps/monitoring.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "switchsim/sim_network.h"

namespace sdnshield::ctrl {
namespace {

using namespace std::chrono_literals;
using perm::Token;

struct ProfilingBed {
  ProfilingBed() : network(controller), runtime(controller) {
    network.buildLinear(1);
    h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
    h2 = network.addHost(1, 5, of::MacAddress::fromUint64(0xBB),
                         of::Ipv4Address(10, 0, 0, 99));
  }

  ctrl::Controller controller;
  sim::SimNetwork network;
  iso::BaselineRuntime runtime;
  std::shared_ptr<sim::SimHost> h1, h2;
};

/// Wraps an app so its init sees the recording context.
class ProfiledApp final : public App {
 public:
  ProfiledApp(std::shared_ptr<App> inner,
              std::shared_ptr<RecordingContext>& slot)
      : inner_(std::move(inner)), slot_(slot) {}

  std::string name() const override { return inner_->name(); }
  std::string requestedManifest() const override {
    return inner_->requestedManifest();
  }
  void init(AppContext& context) override {
    slot_ = std::make_shared<RecordingContext>(context);
    inner_->init(*slot_);
  }

 private:
  std::shared_ptr<App> inner_;
  std::shared_ptr<RecordingContext>& slot_;
};

TEST(ManifestRecorder, L2ProfileYieldsMinimalManifest) {
  ProfilingBed bed;
  std::shared_ptr<RecordingContext> recording;
  auto app = std::make_shared<apps::L2LearningSwitch>();
  bed.runtime.loadApp(std::make_shared<ProfiledApp>(app, recording));
  ASSERT_NE(recording, nullptr);

  // Exercise the app: unknown destination (flood) + learned path (rule).
  bed.h1->send(of::Packet::makeTcp(bed.h1->mac(), bed.h2->mac(), bed.h1->ip(),
                                   bed.h2->ip(), 40000, 80, of::tcpflags::kSyn));
  bed.h2->send(of::Packet::makeTcp(bed.h2->mac(), bed.h1->mac(), bed.h2->ip(),
                                   bed.h1->ip(), 80, 40000, of::tcpflags::kAck));

  perm::PermissionSet recorded = recording->recordedPermissions();
  // Exactly the tokens the app used — no host access, no topology.
  EXPECT_TRUE(recorded.has(Token::kPktInEvent));
  EXPECT_TRUE(recorded.has(Token::kSendPktOut));
  EXPECT_TRUE(recorded.has(Token::kInsertFlow));
  EXPECT_FALSE(recorded.has(Token::kHostNetwork));
  EXPECT_FALSE(recorded.has(Token::kVisibleTopology));

  // The inferred filters are tight: forward-only inserts at the observed
  // priority, packet-outs always from packet-ins.
  perm::FilterExprPtr insertFilter = *recorded.filterFor(Token::kInsertFlow);
  ASSERT_NE(insertFilter, nullptr);
  of::FlowMod rewriting;
  of::SetFieldAction set;
  set.field = of::MatchField::kTpDst;
  rewriting.actions = {set, of::OutputAction{1}};
  EXPECT_FALSE(insertFilter->evaluate(perm::ApiCall::insertFlow(1, 1, rewriting)));
  perm::FilterExprPtr pktOutFilter = *recorded.filterFor(Token::kSendPktOut);
  ASSERT_NE(pktOutFilter, nullptr);
  of::PacketOut fabricated;
  fabricated.fromPacketIn = false;
  EXPECT_FALSE(
      pktOutFilter->evaluate(perm::ApiCall::sendPacketOut(1, fabricated)));
}

TEST(ManifestRecorder, GeneratedManifestTextParsesAndNamesTheApp) {
  ProfilingBed bed;
  std::shared_ptr<RecordingContext> recording;
  auto app = std::make_shared<apps::L2LearningSwitch>();
  bed.runtime.loadApp(std::make_shared<ProfiledApp>(app, recording));
  bed.h1->send(of::Packet::makeTcp(bed.h1->mac(), bed.h2->mac(), bed.h1->ip(),
                                   bed.h2->ip(), 40000, 80, of::tcpflags::kSyn));
  auto manifest =
      lang::parseManifest(recording->manifestText("l2_learning"));
  EXPECT_EQ(manifest.appName, "l2_learning");
  EXPECT_TRUE(manifest.permissions.has(Token::kPktInEvent));
}

TEST(ManifestRecorder, AppRunsUnderItsOwnRecordedManifest) {
  // Profile on a baseline run...
  perm::PermissionSet recorded;
  {
    ProfilingBed bed;
    std::shared_ptr<RecordingContext> recording;
    auto app = std::make_shared<apps::L2LearningSwitch>();
    bed.runtime.loadApp(std::make_shared<ProfiledApp>(app, recording));
    bed.h1->send(of::Packet::makeTcp(bed.h1->mac(), bed.h2->mac(),
                                     bed.h1->ip(), bed.h2->ip(), 40000, 80,
                                     of::tcpflags::kSyn));
    bed.h2->send(of::Packet::makeTcp(bed.h2->mac(), bed.h1->mac(),
                                     bed.h2->ip(), bed.h1->ip(), 80, 40000,
                                     of::tcpflags::kAck));
    recorded = recording->recordedPermissions();
  }
  // ...then deploy under exactly the recorded grant: still fully functional.
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(1);
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h2 = network.addHost(1, 5, of::MacAddress::fromUint64(0xBB),
                            of::Ipv4Address(10, 0, 0, 99));
  iso::ShieldRuntime shield(controller);
  auto app = std::make_shared<apps::L2LearningSwitch>();
  shield.loadApp(app, recorded);
  h1->send(of::Packet::makeTcp(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 40000,
                               80, of::tcpflags::kSyn));
  ASSERT_TRUE(h2->waitForPackets(1, 2000ms));
  h2->send(of::Packet::makeTcp(h2->mac(), h1->mac(), h2->ip(), h1->ip(), 80,
                               40000, of::tcpflags::kAck));
  ASSERT_TRUE(h1->waitForPackets(1, 2000ms));
  app->drainPending();
  EXPECT_EQ(app->rulesInstalled(), 1u);
  EXPECT_EQ(controller.audit().deniedCount(), 0u);
}

TEST(ManifestRecorder, MonitoringProfileInfersNetworkPrefix) {
  ProfilingBed bed;
  std::shared_ptr<RecordingContext> recording;
  auto app = std::make_shared<apps::MonitoringApp>(of::Ipv4Address(10, 1, 0, 10));
  bed.runtime.loadApp(std::make_shared<ProfiledApp>(app, recording));
  // Exercise: reports to two collectors in the 10.1/16 admin network.
  app->collectAndReport();
  recording->host().netSend(of::Ipv4Address(10, 1, 4, 20), 8080, "x");

  perm::PermissionSet recorded = recording->recordedPermissions();
  ASSERT_TRUE(recorded.has(Token::kHostNetwork));
  perm::FilterExprPtr filter = *recorded.filterFor(Token::kHostNetwork);
  ASSERT_NE(filter, nullptr);
  // Inside the inferred common prefix: allowed; far outside: rejected.
  EXPECT_TRUE(filter->evaluate(
      perm::ApiCall::hostNetwork(1, of::Ipv4Address(10, 1, 2, 3), 80)));
  EXPECT_FALSE(filter->evaluate(
      perm::ApiCall::hostNetwork(1, of::Ipv4Address(203, 0, 113, 66), 80)));
  // Statistics granularities observed during the profile are preserved.
  ASSERT_TRUE(recorded.has(Token::kReadStatistics));
}

TEST(ManifestRecorder, SingleEndpointInfersSlash32) {
  ProfilingBed bed;
  std::shared_ptr<RecordingContext> recording;
  auto app = std::make_shared<apps::MonitoringApp>(of::Ipv4Address(10, 1, 0, 10));
  bed.runtime.loadApp(std::make_shared<ProfiledApp>(app, recording));
  recording->host().netSend(of::Ipv4Address(10, 1, 0, 10), 8080, "x");
  perm::FilterExprPtr filter =
      *recording->recordedPermissions().filterFor(Token::kHostNetwork);
  EXPECT_TRUE(filter->evaluate(
      perm::ApiCall::hostNetwork(1, of::Ipv4Address(10, 1, 0, 10), 80)));
  EXPECT_FALSE(filter->evaluate(
      perm::ApiCall::hostNetwork(1, of::Ipv4Address(10, 1, 0, 11), 80)));
}

}  // namespace
}  // namespace sdnshield::ctrl
