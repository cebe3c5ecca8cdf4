// The asynchronous northbound pipeline: ApiFuture submission through the
// deputy pool, bounded per-app in-flight windows, completion-vs-submission
// ordering, future abandonment, quarantine with calls in flight, the
// vectorized insertFlows differential against sequential insertFlow, and the
// ordered (app, dpid) deputy lanes: per-lane FIFO under many deputies, no
// sync call overtaking its lane, a hung lane leaving the others running.
#include "isolation/api_proxy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/lang/perm_parser.h"
#include "isolation/fault_injector.h"
#include "switchsim/sim_network.h"

namespace sdnshield::iso {
namespace {

using lang::parsePermissions;
using namespace std::chrono_literals;

class TestApp final : public ctrl::App {
 public:
  explicit TestApp(std::string name = "async_app") : name_(std::move(name)) {}

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

template <typename Pred>
bool waitFor(Pred pred, std::chrono::milliseconds timeout = 5s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Blocks deputies until opened; always opened at scope exit so a failing
/// assertion can't wedge the pool past the test timeout.
class Gate {
 public:
  ~Gate() { open(); }
  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

struct Rig {
  explicit Rig(ShieldOptions options = {}, std::size_t switches = 1)
      : network(controller), shield(controller, options) {
    network.buildLinear(switches);
  }

  of::AppId load(std::shared_ptr<TestApp> app, const std::string& perms) {
    return shield.loadApp(app, parsePermissions(perms));
  }

  ctrl::Controller controller;
  sim::SimNetwork network;
  ShieldRuntime shield;
};

TEST(IsolationAsync, AsyncInsertResolvesAndInstalls) {
  Rig rig;
  auto app = std::make_shared<TestApp>();
  rig.load(app, "PERM insert_flow\n");
  ctrl::ApiFuture<ctrl::ApiResult> future =
      app->context().api().insertFlowAsync(1, modTo("10.0.0.1"));
  ASSERT_TRUE(future.valid());
  ctrl::ApiResult result = future.get();
  EXPECT_TRUE(result.ok()) << result.error().toString();
  EXPECT_EQ(rig.network.switchAt(1)->flowCount(), 1u);
  EXPECT_FALSE(future.valid());  // get() consumes the future.
  rig.shield.shutdown();
}

TEST(IsolationAsync, AsyncDenialCarriesPermissionDeniedCode) {
  Rig rig;
  auto app = std::make_shared<TestApp>();
  rig.load(app, "PERM read_statistics\n");
  ctrl::ApiResult result =
      app->context().api().insertFlowAsync(1, modTo("10.0.0.1")).get();
  EXPECT_EQ(result.code(), ctrl::ApiErrc::kPermissionDenied);
  EXPECT_EQ(rig.network.switchAt(1)->flowCount(), 0u);
  rig.shield.shutdown();
}

TEST(IsolationAsync, InFlightWindowRejectsPastCapacity) {
  ShieldOptions options;
  options.ksdThreads = 1;
  options.asyncWindow = 2;
  options.ksdCallTimeout = 200ms;
  Rig rig(options);
  auto app = std::make_shared<TestApp>();
  of::AppId id = rig.load(app, "PERM insert_flow\n");

  // Wedge the lone deputy so submitted calls stay queued and in flight.
  auto gate = std::make_shared<Gate>();
  ASSERT_TRUE(rig.shield.ksd().submit([gate] { gate->wait(); }));

  auto f1 = app->context().api().insertFlowAsync(1, modTo("10.0.0.1"));
  auto f2 = app->context().api().insertFlowAsync(1, modTo("10.0.0.2"));
  EXPECT_EQ(rig.shield.inFlightWindow(id)->inFlight(), 2u);
  // Third submission: the window stays full past the deadline.
  auto f3 = app->context().api().insertFlowAsync(1, modTo("10.0.0.3"));
  ASSERT_TRUE(f3.isReady());
  EXPECT_EQ(f3.get().code(), ctrl::ApiErrc::kQueueFull);

  gate->open();
  // The queued calls resolve (possibly past their own deadline) — the
  // contract under test is bounded completion, never a hang.
  (void)f1.get();
  (void)f2.get();
  EXPECT_TRUE(waitFor(
      [&] { return rig.shield.inFlightWindow(id)->inFlight() == 0; }));
  rig.shield.shutdown();
}

TEST(IsolationAsync, CompletionOrderIsIndependentOfSubmissionOrder) {
  ShieldOptions options;
  options.ksdThreads = 4;
  Rig rig(options);
  auto app = std::make_shared<TestApp>();
  rig.load(app, "PERM insert_flow\n");

  std::vector<ctrl::ApiFuture<ctrl::ApiResult>> futures;
  for (int i = 0; i < 8; ++i) {
    std::string dst = "10.0.0." + std::to_string(i + 1);
    futures.push_back(
        app->context().api().insertFlowAsync(1, modTo(dst.c_str())));
  }
  // Consume newest-first: each future resolves on its own, regardless of
  // the order the app reaps them in.
  for (auto it = futures.rbegin(); it != futures.rend(); ++it) {
    ctrl::ApiResult result = it->get();
    EXPECT_TRUE(result.ok()) << result.error().toString();
  }
  EXPECT_EQ(rig.network.switchAt(1)->flowCount(), 8u);
  rig.shield.shutdown();
}

TEST(IsolationAsync, AbandonedFuturesReleaseTheWindowMidBatch) {
  ShieldOptions options;
  options.ksdThreads = 1;
  options.asyncWindow = 2;
  Rig rig(options);
  auto app = std::make_shared<TestApp>();
  of::AppId id = rig.load(app, "PERM insert_flow\n");

  auto gate = std::make_shared<Gate>();
  ASSERT_TRUE(rig.shield.ksd().submit([gate] { gate->wait(); }));
  {
    // Both futures dropped without get() while their calls are still
    // queued behind the wedge: the in-flight slots ride on the queued
    // tasks, not on the futures.
    auto f1 = app->context().api().insertFlowAsync(1, modTo("10.0.0.1"));
    auto f2 = app->context().api().insertFlowAsync(1, modTo("10.0.0.2"));
    EXPECT_EQ(rig.shield.inFlightWindow(id)->inFlight(), 2u);
  }
  gate->open();
  EXPECT_TRUE(waitFor(
      [&] { return rig.shield.inFlightWindow(id)->inFlight() == 0; }));
  // The abandoned calls still executed; the window is free for new work.
  EXPECT_TRUE(waitFor(
      [&] { return rig.network.switchAt(1)->flowCount() == 2u; }));
  ctrl::ApiResult next =
      app->context().api().insertFlowAsync(1, modTo("10.0.0.3")).get();
  EXPECT_TRUE(next.ok()) << next.error().toString();
  rig.shield.shutdown();
}

TEST(IsolationAsync, QuarantineWithCallsInFlightResolvesEverything) {
  ShieldOptions options;
  options.ksdThreads = 1;
  options.asyncWindow = 4;
  options.supervise = false;
  Rig rig(options);
  auto app = std::make_shared<TestApp>();
  of::AppId id = rig.load(app, "PERM insert_flow\n");

  auto gate = std::make_shared<Gate>();
  ASSERT_TRUE(rig.shield.ksd().submit([gate] { gate->wait(); }));
  auto f1 = app->context().api().insertFlowAsync(1, modTo("10.0.0.1"));
  auto f2 = app->context().api().insertFlowAsync(1, modTo("10.0.0.2"));

  rig.shield.quarantineApp(id, "test quarantine");
  gate->open();
  // In-flight calls resolve — bounded completion survives quarantine.
  (void)f1.get();
  (void)f2.get();
  // New submissions fail fast with the typed quarantine code.
  auto after = app->context().api().insertFlowAsync(1, modTo("10.0.0.3"));
  ASSERT_TRUE(after.isReady());
  EXPECT_EQ(after.get().code(), ctrl::ApiErrc::kAppQuarantined);
  EXPECT_EQ(app->context().api().insertFlow(1, modTo("10.0.0.4")).code(),
            ctrl::ApiErrc::kAppQuarantined);
  rig.shield.shutdown();
}

TEST(IsolationAsync, InsertFlowsMatchesSequentialInsertFlow) {
  // Differential: the vectorized path and a per-mod loop must agree on the
  // final table, the rules admitted, and the first failure surfaced — the
  // batch resolves its permission context once but must emulate sequential
  // admission exactly.
  const std::string perms =
      "PERM insert_flow LIMITING MAX_PRIORITY 50\n";
  std::vector<of::FlowMod> batch;
  batch.push_back(modTo("10.0.1.1", 20));
  batch.push_back(modTo("10.0.1.2", 60));  // Denied: priority above cap.
  batch.push_back(modTo("10.0.1.3", 30));
  batch.push_back(modTo("10.0.1.1", 20));  // Duplicate of the first.
  batch.push_back(modTo("10.0.1.4", 40));

  Rig vectored;
  auto vApp = std::make_shared<TestApp>();
  vectored.load(vApp, perms);
  ctrl::ApiResult vResult = vApp->context().api().insertFlows(1, batch);

  Rig sequential;
  auto sApp = std::make_shared<TestApp>();
  sequential.load(sApp, perms);
  ctrl::ApiResult sResult;
  for (const of::FlowMod& mod : batch) {
    ctrl::ApiResult one = sApp->context().api().insertFlow(1, mod);
    if (!one.ok() && sResult.ok()) sResult = one;
  }

  EXPECT_EQ(vResult.code(), sResult.code());
  auto vFlows = vectored.network.switchAt(1)->dumpFlows().value();
  auto sFlows = sequential.network.switchAt(1)->dumpFlows().value();
  ASSERT_EQ(vFlows.size(), sFlows.size());
  for (std::size_t i = 0; i < vFlows.size(); ++i) {
    EXPECT_EQ(vFlows[i].priority, sFlows[i].priority) << "entry " << i;
    EXPECT_EQ(vFlows[i].cookie, sFlows[i].cookie) << "entry " << i;
    EXPECT_EQ(vFlows[i].match.toString(), sFlows[i].match.toString())
        << "entry " << i;
  }
  vectored.shield.shutdown();
  sequential.shield.shutdown();
}

TEST(IsolationAsync, UnsubscribeStopsDeliveryAndInvalidatesTheId) {
  Rig rig;
  auto app = std::make_shared<TestApp>();
  rig.load(app, "PERM pkt_in_event\n");

  std::atomic<int> delivered{0};
  ctrl::ApiResponse<ctrl::SubscriptionId> sub =
      app->context().subscribePacketIn(
          [&](const ctrl::PacketInEvent&) { ++delivered; });
  ASSERT_TRUE(sub.ok());
  ctrl::SubscriptionId id = sub.value();
  ASSERT_TRUE(static_cast<bool>(id));

  rig.controller.onPacketIn(
      of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0, {}});
  ASSERT_TRUE(waitFor([&] { return delivered.load() == 1; }));

  EXPECT_TRUE(app->context().unsubscribe(id).ok());
  rig.controller.onPacketIn(
      of::PacketIn{1, 1, of::PacketInReason::kNoMatch, 0, {}});
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(delivered.load(), 1);
  // The id is single-use.
  EXPECT_EQ(app->context().unsubscribe(id).code(),
            ctrl::ApiErrc::kInvalidArgument);
  rig.shield.shutdown();
}

TEST(IsolationAsync, PacketOutAsyncRequiresProvenance) {
  Rig rig;
  auto app = std::make_shared<TestApp>();
  rig.load(app,
           "PERM pkt_in_event\n"
           "PERM send_pkt_out LIMITING FROM_PKT_IN\n");
  // A fabricated packet (never delivered as a packet-in) must be denied on
  // the async path exactly like the sync one.
  of::PacketOut out;
  out.dpid = 1;
  out.inPort = 1;
  out.packet = of::Packet::makeTcp(
      of::MacAddress::fromUint64(0xa), of::MacAddress::fromUint64(0xb),
      of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), 1234, 80,
      of::tcpflags::kSyn);
  out.fromPacketIn = true;  // Claimed, but the deputy knows better.
  ctrl::ApiResult result =
      app->context().api().sendPacketOutAsync(out).get();
  EXPECT_EQ(result.code(), ctrl::ApiErrc::kPermissionDenied);
  rig.shield.shutdown();
}

// --- ordered deputy lanes ---------------------------------------------------

TEST(KsdLanes, MixedSyncAndAsyncCallsRunInPerLaneSubmissionOrder) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kCallsPerSubmitter = 2500;  // 10k calls in all.
  KsdPool pool(4);
  pool.start();
  // Unsynchronized on purpose: a lane's calls never overlap, and each one
  // happens-after the previous, so TSan checks the strand as well.
  std::vector<std::vector<std::size_t>> ran(kLanes);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &ran, t] {
      // Each submitter owns two lanes and interleaves them; every fifth
      // call is synchronous.
      std::size_t next[2] = {0, 0};
      std::vector<std::future<std::size_t>> pending;
      for (std::size_t i = 0; i < kCallsPerSubmitter; ++i) {
        std::size_t mine = i % 2;
        std::size_t lane = 2 * t + mine;
        std::size_t seq = next[mine]++;
        LaneKey key{static_cast<of::AppId>(1 + lane % 2), 1 + lane / 2};
        std::function<std::size_t()> work = [&ran, lane, seq] {
          ran[lane].push_back(seq);
          return seq;
        };
        if (i % 5 == 4) {
          EXPECT_EQ(pool.call<std::size_t>(std::move(work), 10s, key), seq);
        } else {
          pending.push_back(
              pool.submitFuture<std::size_t>(std::move(work), nullptr, key));
        }
      }
      for (auto& future : pending) future.get();
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ASSERT_EQ(ran[lane].size(), kCallsPerSubmitter / 2) << "lane " << lane;
    for (std::size_t seq = 0; seq < ran[lane].size(); ++seq) {
      ASSERT_EQ(ran[lane][seq], seq) << "lane " << lane;
    }
  }
  // Drained lanes are freed.
  EXPECT_TRUE(waitFor([&] { return pool.laneCount() == 0; }));
  pool.stop();
}

TEST(KsdLanes, SyncCallNeverOvertakesTheLanesQueuedAsyncCalls) {
  KsdPool pool(4);
  pool.start();
  const LaneKey lane{1, 1};
  auto gate = std::make_shared<Gate>();
  std::atomic<int> asyncRan{0};
  std::vector<std::future<int>> queued;
  queued.push_back(pool.submitFuture<int>(
      [gate] {
        gate->wait();
        return 0;
      },
      nullptr, lane));
  for (int i = 1; i <= 5; ++i) {
    queued.push_back(pool.submitFuture<int>(
        [&asyncRan, i] {
          ++asyncRan;
          return i;
        },
        nullptr, lane));
  }
  std::atomic<bool> returned{false};
  int seenBySync = -1;
  std::thread caller([&] {
    seenBySync =
        pool.call<int>([&asyncRan] { return asyncRan.load(); }, 10s, lane);
    returned = true;
  });
  // Three deputies are idle: a sync call that skipped the lane would have
  // run by now.
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(returned.load());
  gate->open();
  caller.join();
  EXPECT_EQ(seenBySync, 5);
  for (int i = 0; i <= 5; ++i) EXPECT_EQ(queued[i].get(), i);
  pool.stop();
}

TEST(KsdLanes, HungCallStallsOnlyItsOwnLane) {
  ShieldOptions options;
  options.ksdThreads = 4;
  options.supervise = false;
  Rig rig(options, /*switches=*/2);
  auto app = std::make_shared<TestApp>();
  rig.load(app, "PERM insert_flow\n");
  ctrl::NorthboundApi& api = app->context().api();

  FaultInjector& faults = FaultInjector::instance();
  std::uint64_t firedBefore = faults.fired(sites::kKsdTask);
  ScopedFault hang(sites::kKsdTask, FaultInjector::Fault::kDelay, /*times=*/1,
                   /*delay=*/1500ms);
  auto hung = api.insertFlowAsync(1, modTo("10.0.0.1"));
  ASSERT_TRUE(waitFor(
      [&] { return faults.fired(sites::kKsdTask) == firedBefore + 1; }));
  auto behind = api.insertFlowAsync(1, modTo("10.0.0.2"));

  // Switch 2's lane runs on another deputy while switch 1's lane is stuck.
  auto start = std::chrono::steady_clock::now();
  ctrl::ApiResult other = api.insertFlow(2, modTo("10.0.0.3"));
  EXPECT_TRUE(other.ok()) << other.error().toString();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1000ms);
  EXPECT_EQ(rig.network.switchAt(2)->flowCount(), 1u);
  EXPECT_FALSE(behind.isReady()) << "a call overtook its lane's hung call";
  EXPECT_EQ(rig.network.switchAt(1)->flowCount(), 0u);

  EXPECT_TRUE(hung.get().ok());
  EXPECT_TRUE(behind.get().ok());
  EXPECT_EQ(rig.network.switchAt(1)->flowCount(), 2u);
  rig.shield.shutdown();
}

TEST(KsdLanes, AbandonedAndDiscardedCallsReleaseTheirWindowSlots) {
  ShieldOptions options;
  options.ksdThreads = 2;
  options.asyncWindow = 2;
  options.supervise = false;
  Rig rig(options, /*switches=*/2);
  auto app = std::make_shared<TestApp>();
  of::AppId id = rig.load(app, "PERM insert_flow\n");
  ctrl::NorthboundApi& api = app->context().api();
  EXPECT_EQ(rig.shield.ksd().laneCount(), 0u) << "loading made a lane";

  {
    // The deputy discards the queued call unrun: its caller sees a dropped
    // call, and the slot comes back with the destroyed task.
    ScopedFault discard(sites::kKsdTask, FaultInjector::Fault::kThrow,
                        /*times=*/1);
    EXPECT_EQ(api.insertFlowAsync(1, modTo("10.0.0.1")).get().code(),
              ctrl::ApiErrc::kPoolStopped);
  }
  {
    // Abandoned on two lanes: the calls still run and free their slots.
    auto a = api.insertFlowAsync(1, modTo("10.0.0.2"));
    auto b = api.insertFlowAsync(2, modTo("10.0.0.3"));
  }
  EXPECT_TRUE(waitFor(
      [&] { return rig.shield.inFlightWindow(id)->inFlight() == 0; }));
  EXPECT_TRUE(waitFor([&] {
    return rig.network.switchAt(1)->flowCount() == 1u &&
           rig.network.switchAt(2)->flowCount() == 1u;
  }));
  // The whole window is free again, and drained lanes are gone.
  auto c = api.insertFlowAsync(1, modTo("10.0.0.4"));
  auto d = api.insertFlowAsync(2, modTo("10.0.0.5"));
  EXPECT_TRUE(c.get().ok());
  EXPECT_TRUE(d.get().ok());
  EXPECT_TRUE(waitFor([&] { return rig.shield.ksd().laneCount() == 0; }));
  rig.shield.shutdown();
}

}  // namespace
}  // namespace sdnshield::iso
