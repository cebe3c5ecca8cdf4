// Concurrency stress for PermissionEngine: hammers check() from reader
// threads while writer threads install/uninstall apps, exercising the
// per-thread app-table pin and its epoch invalidation. Run under TSan via
// scripts/ci.sh (SDNSHIELD_SANITIZE=thread) to catch data races, and under
// ASan for the pin-outlives-engine case.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/perm/permission.h"
#include "core/engine/permission_engine.h"

namespace sdnshield::engine {
namespace {

using perm::ApiCall;
using perm::FilterExpr;
using perm::FilterPtr;
using perm::Token;

perm::PermissionSet tpDstOnlyManifest(std::uint16_t port) {
  perm::PermissionSet set;
  set.grant(Token::kInsertFlow,
            FilterExpr::singleton(FilterPtr{new perm::FieldPredicateFilter(
                of::MatchField::kTpDst, port)}));
  set.grant(Token::kReadStatistics, nullptr);
  return set;
}

ApiCall insertCall(of::AppId app, std::uint16_t tpDst) {
  ApiCall call;
  call.type = perm::ApiCallType::kInsertFlow;
  call.app = app;
  call.dpid = 1;
  of::FlowMatch match;
  match.tpDst = tpDst;
  call.match = match;
  call.priority = 10;
  return call;
}

// 8 threads (4 checkers, 2 installers, 1 uninstaller, 1 introspector) share
// one engine. App 1 has a fixed manifest installed once and never touched;
// its decisions must stay byte-stable throughout. Apps 2..5 churn.
TEST(EngineConcurrencyTest, ParallelCheckInstallUninstallIsLinearizable) {
  PermissionEngine engine;
  constexpr of::AppId kStableApp = 1;
  engine.install(kStableApp, tpDstOnlyManifest(80));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checksDone{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ApiCall allowed = insertCall(kStableApp, 80);
      ApiCall denied = insertCall(kStableApp, 443);
      ApiCall statsCall;
      statsCall.type = perm::ApiCallType::kReadStatistics;
      statsCall.app = kStableApp;
      statsCall.statsLevel = of::StatsLevel::kFlow;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!engine.check(allowed).allowed || engine.check(denied).allowed ||
            !engine.check(statsCall).allowed) {
          failed.store(true);
          return;
        }
        // Churning apps may or may not be installed at this instant; the
        // decision just has to come back without crashing or hanging.
        ApiCall churn = insertCall(2 + (t % 4), 80);
        (void)engine.check(churn);
        checksDone.fetch_add(4, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      of::AppId app = 2 + t;
      std::uint16_t port = 80;
      while (!stop.load(std::memory_order_relaxed)) {
        engine.install(app, tpDstOnlyManifest(port));
        port = port == 80 ? 443 : 80;
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.uninstall(4);
      engine.install(4, tpDstOnlyManifest(22));
    }
  });
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto compiled = engine.compiled(kStableApp);
      if (!compiled || !compiled->hasToken(Token::kInsertFlow)) {
        failed.store(true);
        return;
      }
    }
  });

  // Run until every checker has produced a healthy sample (bounded by a
  // wall-clock cap so a livelock fails instead of hanging CI).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (checksDone.load(std::memory_order_relaxed) < 20'000 &&
         std::chrono::steady_clock::now() < deadline &&
         !failed.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(failed.load()) << "stable app's decision flipped mid-run";
  EXPECT_GE(checksDone.load(), 20'000u) << "checkers starved";
}

// Reinstalling an app flips the same thread's next decision: the same call
// that the permissive manifest allowed has to be denied after the
// restrictive one replaces it, though this thread pinned the old table.
TEST(EngineConcurrencyTest, ReinstallFlipsTheSameThreadsNextDecision) {
  PermissionEngine engine;
  constexpr of::AppId kApp = 9;
  ApiCall call = insertCall(kApp, 443);

  engine.install(kApp, tpDstOnlyManifest(443));
  EXPECT_TRUE(engine.check(call).allowed);
  EXPECT_TRUE(engine.check(call).allowed);  // Served from this thread's pin.

  engine.install(kApp, tpDstOnlyManifest(80));  // New epoch, new program.
  EXPECT_FALSE(engine.check(call).allowed);

  engine.uninstall(kApp);
  EXPECT_FALSE(engine.check(call).allowed);
}

// The pin's last-app shortcut must not outlive the epoch that uninstalls
// the app: the same thread's next check and compiled() see it gone.
TEST(EngineConcurrencyTest, UninstallIsSeenByTheSameThreadsNextCall) {
  PermissionEngine engine;
  constexpr of::AppId kApp = 3;
  engine.install(kApp, tpDstOnlyManifest(80));
  ApiCall call = insertCall(kApp, 80);
  ASSERT_TRUE(engine.check(call).allowed);
  ASSERT_NE(engine.compiled(kApp), nullptr);
  ASSERT_TRUE(engine.check(call).allowed);  // Served by the shortcut.

  engine.uninstall(kApp);
  EXPECT_FALSE(engine.check(call).allowed);
  EXPECT_EQ(engine.compiled(kApp), nullptr);

  // And the other way round: compiled() first after the epoch change.
  engine.install(kApp, tpDstOnlyManifest(80));
  ASSERT_NE(engine.compiled(kApp), nullptr);
  engine.uninstall(kApp);
  EXPECT_EQ(engine.compiled(kApp), nullptr);
  EXPECT_FALSE(engine.check(call).allowed);
}

// Two engines at the same table version, granting the same app different
// ports: alternating between them on one thread must never serve one
// engine's table for the other.
TEST(EngineConcurrencyTest, TwoEnginesAlternatingOnOneThreadNeverAlias) {
  constexpr of::AppId kApp = 5;
  PermissionEngine http;
  PermissionEngine https;
  http.install(kApp, tpDstOnlyManifest(80));
  https.install(kApp, tpDstOnlyManifest(443));
  ASSERT_EQ(http.epoch(), https.epoch());
  ApiCall port80 = insertCall(kApp, 80);
  ApiCall port443 = insertCall(kApp, 443);
  for (int round = 0; round < 64; ++round) {
    ASSERT_TRUE(http.check(port80).allowed) << "round " << round;
    ASSERT_FALSE(https.check(port80).allowed) << "round " << round;
    ASSERT_FALSE(http.check(port443).allowed) << "round " << round;
    ASSERT_TRUE(https.check(port443).allowed) << "round " << round;
    auto httpSet = http.compiled(kApp);
    auto httpsSet = https.compiled(kApp);
    ASSERT_NE(httpSet, httpsSet);
    ASSERT_TRUE(httpSet->check(port80).allowed);
    ASSERT_TRUE(httpsSet->check(port443).allowed);
  }
}

// A thread's pin keeps the pinned table alive past its engine: destroying
// the engine while another thread still pins it must stay clean under
// ASan, and a new engine (possibly at the same address, at the same
// version) must not be served from the stale pin.
TEST(EngineConcurrencyTest, EngineDestroyedWhileAnotherThreadPinsItsTable) {
  constexpr of::AppId kApp = 11;
  auto engine = std::make_unique<PermissionEngine>();
  engine->install(kApp, tpDstOnlyManifest(80));

  std::atomic<int> step{0};
  std::atomic<PermissionEngine*> current{engine.get()};
  bool pinnedAllowed = false;
  bool replacementAllowed80 = true;
  bool replacementAllowed443 = false;
  std::thread reader([&] {
    pinnedAllowed = current.load()->check(insertCall(kApp, 80)).allowed;
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    // The old engine is gone; this thread still pins its table until the
    // next call re-pins against the replacement.
    PermissionEngine* replacement = current.load();
    replacementAllowed80 = replacement->check(insertCall(kApp, 80)).allowed;
    replacementAllowed443 = replacement->check(insertCall(kApp, 443)).allowed;
    step.store(3);
    while (step.load() != 4) std::this_thread::yield();
    // Exits still pinning the replacement's table, which is destroyed first.
  });
  while (step.load() != 1) std::this_thread::yield();
  engine.reset();
  engine = std::make_unique<PermissionEngine>();
  engine->install(kApp, tpDstOnlyManifest(443));
  current.store(engine.get());
  step.store(2);
  while (step.load() != 3) std::this_thread::yield();
  engine.reset();
  step.store(4);
  reader.join();

  EXPECT_TRUE(pinnedAllowed);
  EXPECT_FALSE(replacementAllowed80) << "served from the destroyed engine";
  EXPECT_TRUE(replacementAllowed443);
}

// Apps 1..8 always hold the same grant; one installAll flips them all.
// Checks bracketed by equal epoch() reads run in one epoch, so they must
// agree — a reader that saw one app's old grant beside another's new one
// would have observed a mixed epoch.
TEST(EngineConcurrencyTest, GrantsFlippedTogetherAreNeverSeenMixed) {
  PermissionEngine engine;
  constexpr of::AppId kApps = 8;
  auto grantAll = [&](std::uint16_t port) {
    std::vector<std::pair<of::AppId, perm::PermissionSet>> grants;
    for (of::AppId app = 1; app <= kApps; ++app) {
      grants.emplace_back(app, tpDstOnlyManifest(port));
    }
    engine.installAll(grants);
  };
  grantAll(80);

  std::atomic<bool> stop{false};
  std::atomic<bool> mixed{false};
  std::atomic<std::uint64_t> bracketed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<bool> allowed(kApps);
      std::vector<std::shared_ptr<const CompiledPermissions>> sets(kApps);
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t before = engine.epoch();
        // Each reader starts at a different app so every app leads.
        for (of::AppId i = 0; i < kApps; ++i) {
          of::AppId app = 1 + (i + static_cast<of::AppId>(t)) % kApps;
          allowed[app - 1] = engine.check(insertCall(app, 80)).allowed;
          sets[app - 1] = engine.compiled(app);
        }
        if (engine.epoch() != before) continue;
        bracketed.fetch_add(1, std::memory_order_relaxed);
        for (of::AppId i = 1; i < kApps; ++i) {
          if (allowed[i] != allowed[0] || sets[i] != sets[0]) mixed.store(true);
        }
      }
    });
  }
  std::thread writer([&] {
    std::uint16_t port = 443;
    while (!stop.load(std::memory_order_relaxed)) {
      grantAll(port);
      port = port == 80 ? 443 : 80;
    }
  });

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bracketed.load(std::memory_order_relaxed) < 20'000 &&
         std::chrono::steady_clock::now() < deadline && !mixed.load()) {
    std::this_thread::yield();
  }
  stop.store(true);
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(mixed.load()) << "a reader saw a mixed permission epoch";
  EXPECT_GE(bracketed.load(), 1u) << "no reader completed a bracketed pass";
}

}  // namespace
}  // namespace sdnshield::engine
