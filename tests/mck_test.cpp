// Deterministic interleaving exploration (src/mck, DESIGN.md §12) of the
// permission-epoch and lifecycle invariants: upgrade-vs-check,
// revoke-vs-in-flight-batch, updatePolicy-vs-concurrent-checks, and
// crash/recover at every market fault site. Each scenario asserts that no
// check observes a mixed grant set at a stable epoch, that a revoked app
// never emits a flow-mod after revocation, and (for the crash scenarios)
// that journal replay reproduces the live digest. The mutation-check pair
// at the bottom demonstrates why the explorer exists: a torn per-app
// publisher is caught deterministically here but is a statistical
// needle-in-a-haystack for the real-thread stress discipline.
#include "mck/mck.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "core/engine/permission_engine.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"
#include "isolation/api_proxy.h"
#include "market/app_market.h"
#include "market/journal.h"
#include "shard/shard_runtime.h"
#include "switchsim/sim_network.h"

namespace sdnshield {
namespace {

constexpr const char* kOpenPolicy =
    "LET Unused = {IP_DST 10.0.0.0 MASK 255.0.0.0}\n";

constexpr const char* kSwapperV1 =
    "APP swapper\n"
    "PERM read_statistics\n"
    "PERM insert_flow LIMITING MAX_PRIORITY 100\n"
    "PERM pkt_in_event\n";

constexpr const char* kSwapperV2 =
    "APP swapper\n"
    "PERM read_statistics\n"
    "PERM insert_flow LIMITING MAX_PRIORITY 100\n"
    "PERM pkt_in_event\n"
    "PERM visible_topology\n";

constexpr const char* kMonitorManifest =
    "APP monitor\n"
    "PERM read_statistics\n"
    "PERM pkt_in_event\n";

// Strips read_statistics from BOTH installed apps: the swap must land on
// both in one epoch, which is exactly what the checker thread probes.
constexpr const char* kRestrictBothPolicy =
    "LET bound = {\nPERM insert_flow\nPERM pkt_in_event\n}\n"
    "LET sw = APP swapper\n"
    "LET mon = APP monitor\n"
    "ASSERT sw <= bound\n"
    "ASSERT mon <= bound\n";

constexpr const char* kRestrictSwapperPolicy =
    "LET bound = {\nPERM insert_flow\nPERM pkt_in_event\n}\n"
    "LET sw = APP swapper\n"
    "ASSERT sw <= bound\n";

/// Market app with a configurable name/manifest that keeps its AppContext
/// (for async API submission from scenario threads).
class MckApp final : public ctrl::App {
 public:
  MckApp(std::string name, std::string manifest)
      : name_(std::move(name)), manifest_(std::move(manifest)) {}

  std::string name() const override { return name_; }
  std::string requestedManifest() const override { return manifest_; }
  void init(ctrl::AppContext& context) override { context_ = &context; }

  ctrl::AppContext& context() { return *context_; }

 private:
  std::string name_;
  std::string manifest_;
  ctrl::AppContext* context_ = nullptr;
};

/// No watchdog: the supervisor owns a real thread the virtual scheduler
/// cannot park, so model-checked rigs run with supervision off.
iso::ShieldOptions mckOptions() {
  iso::ShieldOptions options;
  options.supervise = false;
  return options;
}

struct MckRig {
  explicit MckRig(std::shared_ptr<market::MarketJournal> journal = nullptr)
      : shield(controller, mckOptions()),
        market(shield, lang::parsePolicy(kOpenPolicy), std::move(journal)) {}

  ctrl::Controller controller;
  iso::ShieldRuntime shield;
  market::AppMarket market;
};

/// Rig with one simulated switch so flow-mod emission is observable.
struct NetRig {
  NetRig()
      : network(controller),
        shield(controller, mckOptions()),
        market(shield, lang::parsePolicy(kOpenPolicy)) {
    network.buildLinear(1);
  }

  ctrl::Controller controller;
  sim::SimNetwork network;
  iso::ShieldRuntime shield;
  market::AppMarket market;
};

perm::ApiCall statsCall(of::AppId app) {
  perm::ApiCall call;
  call.type = perm::ApiCallType::kReadStatistics;
  call.app = app;
  call.statsLevel = of::StatsLevel::kSwitch;
  return call;
}

perm::ApiCall topoCall(of::AppId app) {
  perm::ApiCall call;
  call.type = perm::ApiCallType::kReadTopology;
  call.app = app;
  return call;
}

of::FlowMod modTo(const char* ipDst) {
  of::FlowMod mod;
  mod.match.ethType = 0x0800;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address::parse(ipDst)};
  mod.priority = 10;
  mod.actions.push_back(of::OutputAction{1});
  return mod;
}

/// Coverage line per scenario (EXPERIMENTS.md "Interleaving coverage"
/// table is regenerated from these).
void logCoverage(const char* name, const mck::Result& result) {
  std::cout << "mck coverage: " << name << ": schedules=" << result.schedules
            << " pruned=" << result.prunedSchedules
            << " steps=" << result.steps
            << " exhausted=" << (result.exhausted ? "yes" : "no") << "\n";
  testing::Test::RecordProperty(std::string(name) + "_schedules",
                                static_cast<int>(result.schedules));
}

market::AppFactory mckFactory() {
  return [](const std::string& name, std::uint32_t version)
             -> std::shared_ptr<ctrl::App> {
    if (name != "swapper") return nullptr;
    return std::make_shared<MckApp>("swapper",
                                    version >= 2 ? kSwapperV2 : kSwapperV1);
  };
}

// --- upgrade vs concurrent checks ------------------------------------------

// A live upgrade (v1 -> v2 adds visible_topology) races a checker probing
// the grant at epoch-stable brackets. The engine swap is one install: at any
// stable epoch the checker must see a coherent set — read_statistics is in
// BOTH versions, so losing it mid-upgrade would be a torn grant.
TEST(Mck, UpgradeVsCheckIsAtomicAndExhaustivelyExplored) {
  auto scenario = [](mck::Run& run) {
    auto rig = std::make_shared<MckRig>();
    auto id = rig->market.installApp(
        std::make_shared<MckApp>("swapper", kSwapperV1), 1);
    mck::require(id.ok(), "setup: installApp failed");
    of::AppId app = id.value();

    run.thread("upgrader", [rig, app] {
      ctrl::ApiResult result = rig->market.upgradeApp(
          app, std::make_shared<MckApp>("swapper", kSwapperV2), 2);
      mck::require(result.ok(), "upgradeApp failed");
    });
    run.thread("checker", [rig, app] {
      engine::PermissionEngine& engine = rig->shield.engine();
      for (int i = 0; i < 2; ++i) {
        std::uint64_t e1 = engine.epoch();
        bool stats = engine.check(statsCall(app)).allowed;
        mck::yield("checker.gap");
        bool topo = engine.check(topoCall(app)).allowed;
        if (engine.epoch() != e1) continue;  // Swap raced the probe pair.
        mck::require(stats,
                     "stable-epoch probe lost read_statistics mid-upgrade");
        (void)topo;  // Either version is coherent; only tearing is not.
      }
    });
    run.finally([rig, app] {
      auto entry = rig->market.entry(app);
      mck::require(entry.has_value() && entry->version == 2,
                   "upgrade did not commit");
      mck::require(rig->shield.engine().check(topoCall(app)).allowed,
                   "v2 grant not active after quiescence");
    });
  };

  mck::Result result = mck::Explorer().explore(scenario);
  logCoverage("upgrade_vs_check", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
  EXPECT_GT(result.schedules, 1u);
}

// --- revoke vs in-flight async batch ---------------------------------------

// An app submits a batch of async flow insertions while the market revokes
// it. Whatever order the deputy drains the batch in, no flow-mod may land
// after revokeApp returned: revocation uninstalls the grant and quarantines
// before returning, so still-queued calls must be denied at execution.
TEST(Mck, RevokeVsInFlightBatchNeverLeaksFlowMods) {
  struct Shared {
    std::vector<ctrl::ApiFuture<ctrl::ApiResult>> futures;
    std::size_t flowsAtRevoke = 0;
    bool revoked = false;
  };

  auto scenario = [](mck::Run& run) {
    auto rig = std::make_shared<NetRig>();
    auto app = std::make_shared<MckApp>("swapper", kSwapperV1);
    auto id = rig->market.installApp(app, 1);
    mck::require(id.ok(), "setup: installApp failed");
    of::AppId appId = id.value();
    auto shared = std::make_shared<Shared>();

    run.thread("submitter", [app, shared] {
      shared->futures.push_back(
          app->context().api().insertFlowAsync(1, modTo("10.0.0.1")));
      shared->futures.push_back(
          app->context().api().insertFlowAsync(1, modTo("10.0.0.2")));
    });
    run.thread("revoker", [rig, appId, shared] {
      ctrl::ApiResult result = rig->market.revokeApp(appId, "mck revoke");
      mck::require(result.ok(), "revokeApp failed");
      // Atomic with the quarantine step: nothing may land past this count.
      shared->flowsAtRevoke = rig->network.switchAt(1)->flowCount();
      shared->revoked = true;
    });
    run.finally([rig, appId, shared] {
      mck::require(shared->revoked, "revoker did not complete");
      mck::require(
          rig->network.switchAt(1)->flowCount() == shared->flowsAtRevoke,
          "a revoked app emitted a flow-mod after revocation");
      auto entry = rig->market.entry(appId);
      mck::require(entry.has_value() &&
                       entry->state == market::AppState::kRevoked,
                   "revocation not recorded in the market entry");
    });
  };

  mck::Result result = mck::Explorer().explore(scenario);
  logCoverage("revoke_vs_inflight", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
  EXPECT_GT(result.schedules, 1u);
}

// --- lane FIFO vs epoch swap ------------------------------------------------

// swapper's grant with the insert priority capped below modTo's 10: inserts
// decided after the swap are denied.
constexpr const char* kSwapperCapped =
    "APP swapper\n"
    "PERM read_statistics\n"
    "PERM insert_flow LIMITING MAX_PRIORITY 5\n"
    "PERM pkt_in_event\n";

/// Two switches and the shield, no market: the swap under test is the
/// engine's installAll itself.
struct LaneRig {
  LaneRig() : network(controller), shield(controller, mckOptions()) {
    network.buildLinear(2);
  }

  ctrl::Controller controller;
  sim::SimNetwork network;
  iso::ShieldRuntime shield;
};

// Pipelined inserts on two (app, switch) deputy lanes race an installAll
// that denies them. Each lane runs its calls in submission order and the
// swap publishes in one epoch, so along a lane the verdicts are allowed and
// then denied, never an insert allowed after an earlier one was denied, and
// each switch holds exactly its lane's allowed prefix.
TEST(Mck, LaneFifoVsEpochSwapGivesAMonotoneVerdictPrefix) {
  struct Insert {
    of::DatapathId dpid;
    std::string dst;
    ctrl::ApiFuture<ctrl::ApiResult> future;
  };

  auto scenario = [](mck::Run& run) {
    auto rig = std::make_shared<LaneRig>();
    auto app = std::make_shared<MckApp>("swapper", kSwapperV1);
    of::AppId id =
        rig->shield.loadApp(app, lang::parsePermissions(kSwapperV1));
    auto capped = lang::parsePermissions(kSwapperCapped);
    auto inserts = std::make_shared<std::vector<Insert>>();

    run.thread("submitter", [app, inserts] {
      const std::pair<of::DatapathId, const char*> plan[] = {
          {1, "10.0.0.1"}, {2, "10.0.0.2"}, {1, "10.0.0.3"}};
      for (auto [dpid, dst] : plan) {
        inserts->push_back(
            {dpid, dst,
             app->context().api().insertFlowAsync(dpid, modTo(dst))});
      }
    });
    run.thread("swap", [rig, id, capped] {
      rig->shield.engine().installAll({{id, capped}});
    });
    run.finally([rig, inserts] {
      mck::require(inserts->size() == 3,
                   "submitter did not queue every insert");
      for (of::DatapathId dpid : {1, 2}) {
        std::size_t allowed = 0;
        bool denied = false;
        std::vector<of::FlowMatch> prefix;
        for (Insert& insert : *inserts) {
          if (insert.dpid != dpid) continue;
          ctrl::ApiResult result = insert.future.get();
          if (result.ok()) {
            mck::require(!denied,
                         "an insert was allowed after an earlier one on its "
                         "lane was denied");
            ++allowed;
            prefix.push_back(modTo(insert.dst.c_str()).match);
          } else {
            mck::require(result.code() == ctrl::ApiErrc::kPermissionDenied,
                         "insert failed for a reason other than the swap");
            denied = true;
          }
        }
        auto flows = rig->network.switchAt(dpid)->dumpFlows();
        mck::require(flows.ok() && flows.value().size() == allowed,
                     "switch rules differ from the allowed verdicts");
        for (const of::FlowEntry& entry : flows.value()) {
          mck::require(std::find(prefix.begin(), prefix.end(), entry.match) !=
                           prefix.end(),
                       "a rule outside the lane's allowed prefix landed");
        }
      }
    });
  };

  mck::Result result = mck::Explorer().explore(scenario);
  logCoverage("lane_fifo_vs_epoch_swap", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
  EXPECT_GT(result.schedules, 1u);
}

// --- updatePolicy vs concurrent checks -------------------------------------

// A policy push re-reconciles two apps and publishes both new grants via
// one installAll. A checker probing both apps inside an epoch-stable
// bracket must see the SAME verdict for both: all-old or all-new, never a
// mixture (paper §VI-B, the atomic epoch swap).
TEST(Mck, PolicySwapVsConcurrentChecksSeesOneGrantSet) {
  auto scenario = [](mck::Run& run) {
    auto rig = std::make_shared<MckRig>();
    auto a = rig->market.installApp(
        std::make_shared<MckApp>("swapper", kSwapperV1), 1);
    auto b = rig->market.installApp(
        std::make_shared<MckApp>("monitor", kMonitorManifest), 1);
    mck::require(a.ok() && b.ok(), "setup: installApp failed");
    of::AppId idA = a.value();
    of::AppId idB = b.value();

    run.thread("policy", [rig] {
      ctrl::ApiResult result = rig->market.updatePolicy(kRestrictBothPolicy);
      mck::require(result.ok(), "updatePolicy failed");
    });
    run.thread("checker", [rig, idA, idB] {
      engine::PermissionEngine& engine = rig->shield.engine();
      for (int i = 0; i < 2; ++i) {
        std::uint64_t e1 = engine.epoch();
        bool statsA = engine.check(statsCall(idA)).allowed;
        mck::yield("checker.gap");
        bool statsB = engine.check(statsCall(idB)).allowed;
        if (engine.epoch() != e1) continue;
        mck::require(statsA == statsB,
                     "mixed grant set observed at a stable permission epoch");
      }
    });
    run.finally([rig, idA, idB] {
      engine::PermissionEngine& engine = rig->shield.engine();
      mck::require(!engine.check(statsCall(idA)).allowed &&
                       !engine.check(statsCall(idB)).allowed,
                   "restricting policy did not land on both apps");
    });
  };

  mck::Result result = mck::Explorer().explore(scenario);
  logCoverage("policy_swap_vs_checks", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
}

// --- incremental (parallel-capable) reconcile vs concurrent checks ----------

// The DESIGN.md §14 updatePolicy: apps group into reconcile units, unit
// results are memoized across pushes, and fresh units may fan across the
// reconcile deputy pool (under mck the market detects the virtual executor
// and falls back to the serial loop, keeping exploration deterministic —
// the parallel/serial equivalence itself is covered by
// compile_cache_test's differential suite). Two pushes race a checker: the
// first reconciles fresh units, the second is answered entirely from the
// memo — a different code path that must STILL publish through one atomic
// epoch swap, with no interleaving in which a stable-epoch bracket sees a
// mixed grant set, and must never serve a grant diverging from what the
// fresh path produced.
//
// Three pushes of one policy text: the first reconciles fresh units; the
// second reconciles fresh AGAIN — the policy reads both apps' grants via
// APP references and the first push changed them, so the context half of
// the unit key correctly invalidates (serving the first push's memo here
// would be the staleness bug). The grants are a fixed point after the
// second push, so the third is answered entirely from the memo.
TEST(Mck, ParallelReconcileVsCheckStaysAtomicAndServesFromMemo) {
  auto scenario = [](mck::Run& run) {
    auto rig = std::make_shared<MckRig>();
    // The knob stays on: the scenario exercises the virtual-executor
    // serial fallback gate inside reconcilePoolLocked.
    rig->market.setParallelReconcile(true);
    auto a = rig->market.installApp(
        std::make_shared<MckApp>("swapper", kSwapperV1), 1);
    auto b = rig->market.installApp(
        std::make_shared<MckApp>("monitor", kMonitorManifest), 1);
    mck::require(a.ok() && b.ok(), "setup: installApp failed");
    of::AppId idA = a.value();
    of::AppId idB = b.value();

    run.thread("policy", [rig] {
      for (int push = 0; push < 3; ++push) {
        ctrl::ApiResult result = rig->market.updatePolicy(kRestrictBothPolicy);
        mck::require(result.ok(), "updatePolicy failed");
      }
    });
    run.thread("checker", [rig, idA, idB] {
      engine::PermissionEngine& engine = rig->shield.engine();
      for (int i = 0; i < 2; ++i) {
        std::uint64_t e1 = engine.epoch();
        bool statsA = engine.check(statsCall(idA)).allowed;
        mck::yield("checker.gap");
        bool statsB = engine.check(statsCall(idB)).allowed;
        if (engine.epoch() != e1) continue;
        mck::require(statsA == statsB,
                     "mixed grant set observed at a stable permission epoch");
      }
    });
    run.finally([rig, idA, idB] {
      engine::PermissionEngine& engine = rig->shield.engine();
      mck::require(!engine.check(statsCall(idA)).allowed &&
                       !engine.check(statsCall(idB)).allowed,
                   "restricting policy did not land on both apps");
      auto stats = rig->market.reconcileCacheStats();
      mck::require(stats.hits >= 2,
                   "fixed-point push was not answered from the reconcile memo");
      mck::require(stats.misses >= 4,
                   "changed-context pushes did not reconcile fresh units");
    });
  };

  mck::Result result = mck::Explorer().explore(scenario);
  logCoverage("parallel_reconcile_vs_checks", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
  EXPECT_GT(result.schedules, 1u);
}

// --- cross-shard epoch publish vs shard-local checks ------------------------

// The sharded substrate (DESIGN.md §16) under the explorer: a 2-shard
// ShardRuntime registers virtual queues instead of loop threads, and a
// publisher swaps BOTH apps' grants in one installAll — table swap, one
// epoch bump, then the publish fence that runs a memo-reset task on every
// shard queue. The checker's bracket deliberately spans BOTH memo domains:
// app A is probed on shard 0 and app B on shard 1, so whatever order the
// swap, the bump, the two fence tasks and the shard-local checks interleave
// in, two different shards' views at one stable epoch must still be a
// coherent grant set — and once installAll has returned (fence complete)
// every shard's next check must resolve the post-publish grants.
TEST(Mck, CrossShardEpochPublishVsShardLocalChecks) {
  struct ShardMckRig {
    engine::PermissionEngine engine;
    shard::ShardRuntime runtime{[] {
      shard::ShardOptions options;
      options.shards = 2;
      return options;
    }()};
    bool published = false;
  };

  auto scenario = [](mck::Run& run) {
    auto rig = std::make_shared<ShardMckRig>();
    rig->runtime.start();  // Virtual executor installed: queues, no threads.
    rig->runtime.attachEngine(rig->engine);
    const of::AppId idA = 1;
    const of::AppId idB = 2;
    perm::PermissionSet granted =
        lang::parsePermissions("PERM read_statistics\nPERM pkt_in_event\n");
    rig->engine.install(idA, granted);
    rig->engine.install(idB, granted);

    run.thread("publisher", [rig, idA, idB] {
      perm::PermissionSet restricted =
          lang::parsePermissions("PERM pkt_in_event\n");
      rig->engine.installAll({{idA, restricted}, {idB, restricted}});
      rig->published = true;  // installAll returned: every shard was fenced.
    });
    run.thread("checker", [rig, idA, idB] {
      // Round 0 warms each shard's memo against the pre-publish grants;
      // round 1 is the probe that can race the swap, bump and fence tasks.
      for (int round = 0; round < 2; ++round) {
        bool publishedBefore = rig->published;
        std::uint64_t e1 = 0;
        std::uint64_t e2 = 0;
        bool statsA = false;
        bool statsB = false;
        rig->runtime.call(0, [rig, idA, &e1, &statsA] {
          e1 = rig->engine.epoch();
          statsA = rig->engine.check(statsCall(idA)).allowed;
        });
        rig->runtime.call(1, [rig, idB, &e2, &statsB] {
          statsB = rig->engine.check(statsCall(idB)).allowed;
          e2 = rig->engine.epoch();
        });
        if (e1 == e2) {
          mck::require(statsA == statsB,
                       "two shards' views mixed grant sets at a stable epoch");
        }
        if (publishedBefore) {
          mck::require(!statsA && !statsB,
                       "a shard served a pre-publish grant after the fence");
        }
      }
    });
    run.finally([rig, idA, idB] {
      for (std::size_t s = 0; s < 2; ++s) {
        rig->runtime.call(s, [rig, idA, idB] {
          mck::require(!rig->engine.check(statsCall(idA)).allowed &&
                           !rig->engine.check(statsCall(idB)).allowed,
                       "post-quiescence shard check missed the new epoch");
        });
      }
      mck::require(rig->runtime.stats().fences >= 1,
                   "installAll did not fence the shard loops");
      // Teardown inside the run, while the virtual executor is still
      // installed, so the queues drain and unregister deterministically.
      rig->runtime.detachEngine(rig->engine);
      rig->runtime.stop();
    });
  };

  mck::Result result = mck::Explorer().explore(scenario);
  logCoverage("cross_shard_epoch_publish", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
  EXPECT_GT(result.schedules, 1u);
}

// --- crash/recover at every market fault site ------------------------------

// One driver runs upgrade -> policy push -> revoke with a crash budget of
// one and every market fault site crash-enabled: the explorer injects a
// FaultInjected at EVERY firing of market.reconcile/swap/journal (not just
// the first, as an armed fault would). After quiescence the journal is
// replayed onto a fresh runtime and the digests must match — aborted
// transactions must leave both the live state and the journal consistent.
TEST(Mck, CrashRecoverAtEveryMarketFaultSitePreservesDigest) {
  auto scenario = [](mck::Run& run) {
    auto journal = std::make_shared<market::MemoryJournal>();
    auto rig = std::make_shared<MckRig>(journal);
    auto id = rig->market.installApp(
        std::make_shared<MckApp>("swapper", kSwapperV1), 1);
    mck::require(id.ok(), "setup: installApp failed");
    of::AppId app = id.value();

    run.thread("driver", [rig, app] {
      // Any op may abort on the injected crash; the journal must stay
      // replayable either way, so results are deliberately not asserted.
      (void)rig->market.upgradeApp(
          app, std::make_shared<MckApp>("swapper", kSwapperV2), 2);
      (void)rig->market.updatePolicy(kRestrictSwapperPolicy);
      (void)rig->market.revokeApp(app, "mck revoke");
    });
    run.finally([rig] {
      ctrl::Controller controller;
      iso::ShieldRuntime shield(controller, mckOptions());
      auto copy = std::make_shared<market::MemoryJournal>(
          rig->market.journal()->records());
      auto recovered = market::AppMarket::recover(
          shield, lang::parsePolicy(kOpenPolicy), mckFactory(), copy);
      mck::require(recovered->digest() == rig->market.digest(),
                   "journal replay diverged from the live market digest");
    });
  };

  mck::Options options;
  options.maxCrashes = 1;
  options.crashSites = {"market.reconcile", "market.swap", "market.journal"};
  mck::Result result = mck::Explorer(options).explore(scenario);
  logCoverage("crash_recover_market", result);
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted)
      << "state space truncated at " << result.schedules << " schedules";
  // The crash-free schedule plus at least one crash schedule per site.
  EXPECT_GT(result.schedules, 3u);
}

// --- sleep-set reduction ---------------------------------------------------

// Two threads stepping over disjoint resources: with footprints declared,
// sleep sets prune the redundant reorderings of independent steps; without
// them the full tree is explored. Both walks must exhaust with the same
// verdict (reduction soundness), and the reduced walk must be strictly
// smaller with a non-zero prune count.
TEST(Mck, SleepSetsPruneIndependentInterleavings) {
  auto scenario = [](mck::Run& run) {
    auto counters = std::make_shared<std::pair<int, int>>(0, 0);
    run.thread("left", [counters] {
      for (int i = 0; i < 2; ++i) {
        ++counters->first;
        mck::yield("left.step");
      }
    });
    run.thread("right", [counters] {
      for (int i = 0; i < 2; ++i) {
        ++counters->second;
        mck::yield("right.step");
      }
    });
    run.finally([counters] {
      mck::require(counters->first == 2 && counters->second == 2,
                   "steps were lost");
    });
  };

  mck::Options reducedOptions;
  reducedOptions.footprint["left.step"] = {"left-cell", true};
  reducedOptions.footprint["right.step"] = {"right-cell", true};
  mck::Result reduced = mck::Explorer(reducedOptions).explore(scenario);

  mck::Options fullOptions = reducedOptions;
  fullOptions.sleepSets = false;
  mck::Result full = mck::Explorer(fullOptions).explore(scenario);

  EXPECT_TRUE(reduced.exhausted);
  EXPECT_TRUE(full.exhausted);
  EXPECT_FALSE(reduced.violated) << reduced.formatTrace();
  EXPECT_FALSE(full.violated) << full.formatTrace();
  EXPECT_GT(reduced.prunedSchedules, 0u);
  EXPECT_LT(reduced.schedules, full.schedules);
  std::cout << "mck coverage: dpor_commute: reduced=" << reduced.schedules
            << "+" << reduced.prunedSchedules << " pruned, full="
            << full.schedules << "\n";
}

// --- mutation check: torn publisher ----------------------------------------

// The seeded bug of the PR's mutation check, reproduced at engine level: a
// publisher that installs each app's new grant separately (one epoch per
// app) instead of installAll's single swap. mck::yield marks the torn
// window; on real threads it is a no-op and the window is a few hundred
// nanoseconds wide.
mck::Scenario tornPublisherScenario(bool buggy) {
  return [buggy](mck::Run& run) {
    auto engine = std::make_shared<engine::PermissionEngine>();
    const std::vector<of::AppId> ids = {1, 2};
    perm::PermissionSet granted =
        lang::parsePermissions("PERM read_statistics\n");
    perm::PermissionSet revoked = lang::parsePermissions("PERM pkt_in_event\n");
    for (of::AppId id : ids) engine->install(id, granted);

    run.thread("publisher", [engine, ids, revoked, buggy] {
      if (buggy) {
        for (of::AppId id : ids) {
          engine->install(id, revoked);  // One epoch per app: torn.
          mck::yield("torn.publish");
        }
      } else {
        std::vector<std::pair<of::AppId, perm::PermissionSet>> grants;
        for (of::AppId id : ids) grants.emplace_back(id, revoked);
        engine->installAll(grants);  // One epoch for the batch.
        mck::yield("atomic.publish");
      }
    });
    run.thread("checker", [engine, ids] {
      std::uint64_t e1 = engine->epoch();
      bool first = engine->check(statsCall(ids.front())).allowed;
      mck::yield("checker.gap");
      bool last = engine->check(statsCall(ids.back())).allowed;
      if (engine->epoch() == e1) {
        mck::require(first == last,
                     "mixed grant set observed at a stable permission epoch");
      }
    });
  };
}

TEST(MckMutation, TornPublisherIsCaughtByExplorer) {
  mck::Result result = mck::Explorer().explore(tornPublisherScenario(true));
  ASSERT_TRUE(result.violated)
      << "explorer failed to find the torn-publish interleaving after "
      << result.schedules << " schedules";
  EXPECT_NE(result.message.find("mixed grant set"), std::string::npos)
      << result.message;
  // The counterexample checked into tests/data/ was produced by this very
  // serialization; printing it keeps regeneration a copy-paste away.
  std::cout << "torn-publisher counterexample:\n"
            << mck::serializeSchedule(result.trace);
}

TEST(MckMutation, AtomicPublisherIsExhaustivelyVerified) {
  mck::Result result = mck::Explorer().explore(tornPublisherScenario(false));
  EXPECT_FALSE(result.violated) << result.formatTrace();
  EXPECT_TRUE(result.exhausted);
}

// The shrunk counterexample is pinned as data: replaying it against the
// buggy publisher must still reach the violation (the schedule, not luck,
// finds the bug), and the same schedule against the correct publisher is
// clean. parseSchedule round-trips the serialized form.
TEST(MckMutation, PinnedCounterexampleReplays) {
  std::ifstream in(std::string(MCK_DATA_DIR) +
                   "/mck_torn_publisher_schedule.txt");
  ASSERT_TRUE(in.good()) << "missing tests/data/mck_torn_publisher_schedule.txt";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<mck::ScheduleStep> schedule = mck::parseSchedule(buffer.str());
  ASSERT_FALSE(schedule.empty());

  mck::Explorer explorer;
  mck::Result buggy = explorer.replay(tornPublisherScenario(true), schedule);
  EXPECT_TRUE(buggy.violated)
      << "pinned schedule no longer reproduces the torn-grant violation:\n"
      << buggy.formatTrace();

  mck::Result correct = explorer.replay(tornPublisherScenario(false), schedule);
  EXPECT_FALSE(correct.violated) << correct.formatTrace();
}

// The comparison arm of the mutation check: the market stress discipline
// (epoch-gated scan + same-epoch confirming rescan, as in market_test's
// PolicySwapIsAtomicUnderConcurrentCheckers) run 100 times against the same
// torn publisher on real threads. A catch needs TWO full 64-app scans
// inside one inter-install gap with zero epoch movement — the gap is one
// compile-and-swap wide while each scan is 64 checks plus epoch reads, so
// detection requires the OS to stall the publisher mid-loop for the whole
// double-scan. How often that happens is a property of the host and of the
// checker's speed, not of the bug. The explorer catches the same bug on its
// first session, every time (the test above); this one documents that the
// stress discipline never does so reliably.
TEST(MckMutation, RealThreadStressDisciplineMissesTornPublisher) {
  constexpr int kApps = 64;
  constexpr int kRuns = 100;
  // This mirrors the PR 5-era torn publisher, whose inter-install gap was
  // one compile-and-swap wide. The PR 8 program cache collapses installs
  // 2..64 to a lookup-and-swap, which changes the gap/scan ratio enough to
  // hand the stress loop ~50% catches under TSan — a different (faster)
  // publisher than the one this blind-spot argument is about. Pin the
  // original cost profile for the duration.
  auto& programCache = engine::CompiledProgramCache::global();
  const bool cacheWasEnabled = programCache.enabled();
  programCache.setEnabled(false);
  perm::PermissionSet granted =
      lang::parsePermissions("PERM read_statistics\n");
  perm::PermissionSet revoked = lang::parsePermissions("PERM pkt_in_event\n");

  std::atomic<int> caught{0};
  for (int runIndex = 0; runIndex < kRuns; ++runIndex) {
    engine::PermissionEngine engine;
    std::vector<of::AppId> ids;
    for (int i = 0; i < kApps; ++i) {
      ids.push_back(static_cast<of::AppId>(i + 1));
      engine.install(ids.back(), granted);
    }

    auto scan = [&](bool* mixedOut) -> std::uint64_t {
      std::uint64_t epochBefore = engine.epoch();
      bool first = true;
      bool expected = false;
      bool mixed = false;
      for (of::AppId id : ids) {
        bool allowed = engine.check(statsCall(id)).allowed;
        if (first) {
          expected = allowed;
          first = false;
        } else if (allowed != expected) {
          mixed = true;
        }
      }
      if (engine.epoch() != epochBefore) return 0;
      *mixedOut = mixed;
      return epochBefore;
    };

    std::atomic<bool> stop{false};
    std::thread checker([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        bool mixed = false;
        std::uint64_t epoch = scan(&mixed);
        if (epoch == 0 || !mixed) continue;
        bool mixedAgain = false;
        if (scan(&mixedAgain) == epoch && mixedAgain) {
          caught.fetch_add(1);
          return;
        }
      }
    });
    for (of::AppId id : ids) engine.install(id, revoked);  // Torn publish.
    stop.store(true);
    checker.join();
  }
  programCache.setEnabled(cacheWasEnabled);

  // The claim is "never reliable": the stress loop misses at least once in
  // kRuns runs, while the explorer is 1/1. The catch rate itself is not
  // asserted, because it moves with the host and with the engine's check
  // cost. Catches per 100 runs, Release build on a 4-vCPU shared host, for
  // this engine (with the thread-local decision memo) and for a build that
  // deletes the memo, side by side:
  //   110 interleaved standalone runs each   memo 0-13   no memo 0-77
  //   12 runs each right after `ctest -j`    memo 1-23   no memo 6-66
  // A fresh checker's first check allocates the memo's ~320 KiB of slots,
  // which takes up most of the ~300 us publish before its first scan ends;
  // without the memo the checker scans from the start. A rate bound would
  // hold for the memo engine only through that start-up cost, and under
  // TSan the instrumented scans change the ratio again.
  EXPECT_LT(caught.load(), kRuns)
      << "stress discipline caught the torn publisher in every one of "
      << kRuns << " runs — the mck blind-spot argument needs review";
  RecordProperty("stress_catches", caught.load());
}

}  // namespace
}  // namespace sdnshield
