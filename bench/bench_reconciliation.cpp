// §IX-A — reconciliation engine pressure test. Reconciliation happens at app
// installation time only; the paper reports that its processing time "never
// exceeds one second during our pressure tests". This harness reconciles
// increasingly large manifests against increasingly large policy programs
// and reports wall-clock time per reconciliation.
//
// --live adds the app-market live-update rows: N installed apps are
// re-reconciled against a new policy and their grants swapped in ONE atomic
// permission epoch (PermissionEngine::installAll), while reader threads
// hammer check() the whole time — the row reports the policy-update wall
// time and the readers' p99 check latency DURING the swaps. Each N runs
// twice: path "cold" re-reconciles every app and recompiles every grant on
// every push (the PR 5 updatePolicy loop, emulated by disabling the
// compiled-program cache), path "cached" groups apps into reconcile units
// keyed by (policy, manifest, context) hashes — the market's
// ReconcileCache — and lets the CompiledProgramCache dedupe compilation,
// so a repeated push touches no reconciler at all (DESIGN.md §14). Output
// is JSONL (one live_update_row per N×path), schema-checked by CI.
// `--apps 8,64,4096` overrides the default population list.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine/permission_engine.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"
#include "core/reconcile/reconciler.h"
#include "market/reconcile_cache.h"

namespace {

using namespace sdnshield;

/// A manifest exercising every token with layered filters and two stubs.
std::string makeManifestText(int filterClauses) {
  std::ostringstream out;
  out << "APP pressure\n";
  out << "PERM visible_topology LIMITING LocalTopo\n";
  out << "PERM network_access LIMITING AdminRange\n";
  out << "PERM read_statistics LIMITING PORT_LEVEL OR SWITCH_LEVEL\n";
  out << "PERM send_pkt_out LIMITING FROM_PKT_IN\n";
  out << "PERM delete_flow LIMITING OWN_FLOWS\n";
  out << "PERM insert_flow LIMITING ";
  for (int i = 0; i < filterClauses; ++i) {
    if (i > 0) out << " OR ";
    out << "(IP_DST 10." << (i % 250) << ".0.0 MASK 255.255.0.0 AND "
        << "MAX_PRIORITY 100 AND OWN_FLOWS)";
  }
  out << "\n";
  return out.str();
}

/// A policy with stub bindings, a boundary template and exclusions.
std::string makePolicyText(int boundaryClauses) {
  std::ostringstream out;
  out << "LET LocalTopo = {SWITCH 1,2,3,4 LINK {(1,2),(2,3),(3,4)}}\n";
  // The admin range tracks the boundary width so differently-sized policy
  // texts also grant differently: a push from one to the other really
  // changes every app's network_access filter (and its compiled program).
  out << "LET AdminRange = {IP_DST 10." << boundaryClauses
      << ".0.0 MASK 255.255.0.0}\n";
  out << "LET bound = {\n";
  out << "PERM visible_topology\nPERM network_access\n"
         "PERM read_statistics\nPERM send_pkt_out\nPERM delete_flow\n";
  out << "PERM insert_flow LIMITING ";
  for (int i = 0; i < boundaryClauses; ++i) {
    if (i > 0) out << " OR ";
    out << "IP_DST 10." << (i % 250) << ".0.0 MASK 255.255.0.0";
  }
  out << "\n}\n";
  out << "LET appPerm = APP pressure\n";
  out << "ASSERT appPerm <= bound\n";
  out << "ASSERT EITHER { PERM network_access } OR { PERM insert_flow }\n";
  return out.str();
}

/// One live-update measurement: N installed apps, alternating policy pushes,
/// readers checking concurrently. @p cached selects the incremental path
/// (reconcile-unit memo + compiled-program cache) vs the PR 5 full-recompile
/// loop. The process-wide inclusion memo stays warm in both paths, so the
/// cold row is a conservative (faster-than-PR-5) baseline.
void runLiveUpdate(int apps, bool cached) {
  using Clock = std::chrono::steady_clock;
  engine::PermissionEngine engine;
  auto& programCache = engine::CompiledProgramCache::global();
  programCache.clear();
  programCache.setEnabled(cached);

  // Apps ship one of kGroups distinct pressure manifests (real markets
  // cluster on a handful of manifest shapes); `APP pressure` in the policy
  // resolves to the manifest under reconciliation, so the reconcile result
  // is a pure function of (policy, manifest) and the unit key needs no
  // foreign-grant context.
  const int kGroups = std::min(apps, 16);
  std::vector<lang::PermissionManifest> manifests;
  std::vector<std::uint64_t> manifestHashes;
  for (int g = 0; g < kGroups; ++g) {
    std::string text = makeManifestText(3 + g % 4);
    text += "# group " + std::to_string(g) + "\n";
    manifests.push_back(sdnshield::lang::parseManifest(text));
    manifestHashes.push_back(market::fnv1aHash(text));
  }
  const std::string policyTextA = makePolicyText(4);
  const std::string policyTextB = makePolicyText(8);
  reconcile::Reconciler policyA(sdnshield::lang::parsePolicy(policyTextA));
  reconcile::Reconciler policyB(sdnshield::lang::parsePolicy(policyTextB));
  const std::uint64_t policyHashA = market::fnv1aHash(policyTextA);
  const std::uint64_t policyHashB = market::fnv1aHash(policyTextB);
  const std::uint64_t selfContext = market::fnv1aHash("self");

  // Initial install under policy A (one atomic epoch; setup, not measured —
  // reconciled once per group either way).
  std::vector<perm::PermissionSet> initialGrants;
  for (int g = 0; g < kGroups; ++g) {
    initialGrants.push_back(policyA.reconcile(manifests[g]).finalPermissions);
  }
  std::vector<std::pair<of::AppId, perm::PermissionSet>> grants;
  for (int i = 0; i < apps; ++i) {
    grants.emplace_back(static_cast<of::AppId>(i + 1),
                        initialGrants[i % kGroups]);
  }
  engine.installAll(grants);
  const auto compilesBefore = programCache.stats().misses;

  // Readers hammer check() across all apps for the whole run; each sample
  // is one check's wall time. Two gates keep the reader columns meaningful
  // even when the pushes are fast: pushes start only once every reader has
  // completed a check (so the swaps really race the readers), and each
  // reader keeps sampling until it holds kMinSamples checks.
  constexpr int kReaders = 4;
  constexpr std::size_t kMinSamples = 1000;
  std::atomic<bool> stop{false};
  std::atomic<int> readersStarted{0};
  std::vector<std::vector<std::int64_t>> samples(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed) ||
             samples[r].size() < kMinSamples) {
        of::AppId app = static_cast<of::AppId>(1 + (n++ % apps));
        perm::ApiCall call;
        call.type = perm::ApiCallType::kReadStatistics;
        call.app = app;
        call.statsLevel = of::StatsLevel::kSwitch;
        auto start = Clock::now();
        (void)engine.check(call);
        samples[r].push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 start)
                .count());
        if (samples[r].size() == 1) readersStarted.fetch_add(1);
      }
    });
  }
  while (readersStarted.load() < kReaders) std::this_thread::yield();

  // Alternating live policy updates, each published with ONE installAll
  // (one epoch bump). Cold path: every app is re-reconciled and recompiled
  // on every push (the PR 5 loop). Cached path: apps collapse into
  // reconcile units keyed by (policy, manifest, context) — at most kGroups
  // reconciles on a first-seen policy, zero on a repeat — and installAll
  // reuses compiled programs through the enabled CompiledProgramCache.
  constexpr int kUpdates = 6;
  market::ReconcileCache unitCache;
  std::uint64_t reconciles = 0;
  double totalUpdateMs = 0.0;
  std::uint64_t epochBefore = engine.epoch();
  for (int u = 0; u < kUpdates; ++u) {
    const reconcile::Reconciler& policy = (u % 2 == 0) ? policyB : policyA;
    const std::uint64_t policyHash = (u % 2 == 0) ? policyHashB : policyHashA;
    auto start = Clock::now();
    if (cached) {
      // The market's updatePolicy shape: reconcile per unit (memo first),
      // compile once per unit, publish shared programs — per-app cost is
      // one map insert in the epoch swap.
      std::vector<
          std::shared_ptr<const sdnshield::engine::CompiledPermissions>>
          unitPrograms(kGroups);
      for (int g = 0; g < kGroups; ++g) {
        market::ReconcileKey key{policyHash, manifestHashes[g], selfContext};
        perm::PermissionSet grant;
        if (auto hit = unitCache.lookup(key)) {
          grant = std::move(*hit);
        } else {
          grant = policy.reconcile(manifests[g]).finalPermissions;
          ++reconciles;
          unitCache.insert(key, grant);
        }
        unitPrograms[g] = programCache.obtain(grant);
      }
      std::vector<std::pair<
          of::AppId, std::shared_ptr<const sdnshield::engine::CompiledPermissions>>>
          next;
      next.reserve(apps);
      for (int i = 0; i < apps; ++i) {
        next.emplace_back(static_cast<of::AppId>(i + 1),
                          unitPrograms[i % kGroups]);
      }
      engine.installAll(std::move(next));
    } else {
      // The PR 5 loop: every app re-reconciled, every grant recompiled
      // (the program cache is disabled on this path).
      std::vector<std::pair<of::AppId, perm::PermissionSet>> next;
      next.reserve(apps);
      for (int i = 0; i < apps; ++i) {
        auto result = policy.reconcile(manifests[i % kGroups]);
        ++reconciles;
        next.emplace_back(static_cast<of::AppId>(i + 1),
                          std::move(result.finalPermissions));
      }
      engine.installAll(next);
    }
    totalUpdateMs +=
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
  }
  std::uint64_t epochs = engine.epoch() - epochBefore;
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  const std::uint64_t compiles = programCache.stats().misses - compilesBefore;
  programCache.setEnabled(true);
  programCache.clear();

  std::vector<std::int64_t> all;
  for (auto& perReader : samples) {
    all.insert(all.end(), perReader.begin(), perReader.end());
  }
  std::sort(all.begin(), all.end());
  std::int64_t p99 =
      all.empty() ? 0 : all[static_cast<std::size_t>(all.size() * 99 / 100)];

  std::printf(
      "{\"bench\":\"bench_reconciliation\",\"mode\":\"live_update\","
      "\"path\":\"%s\",\"apps\":%d,\"manifest_groups\":%d,\"updates\":%d,"
      "\"update_ms\":%.3f,\"reconciles\":%llu,\"compiles\":%llu,"
      "\"reader_p99_ns\":%lld,\"reader_checks\":%zu,\"epochs\":%llu}\n",
      cached ? "cached" : "cold", apps, kGroups, kUpdates,
      totalUpdateMs / kUpdates, static_cast<unsigned long long>(reconciles),
      static_cast<unsigned long long>(compiles),
      static_cast<long long>(p99), all.size(),
      static_cast<unsigned long long>(epochs));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--live") == 0) {
    // CI smoke keeps the default list small; artifact generation passes
    // --apps 8,64,256,1024,4096,10240 (BENCH_reconciliation_live.json).
    std::vector<int> populations{8, 64, 256};
    if (argc > 3 && std::strcmp(argv[2], "--apps") == 0) {
      populations.clear();
      for (const char* cursor = argv[3]; *cursor != '\0';) {
        char* end = nullptr;
        long value = std::strtol(cursor, &end, 10);
        if (end == cursor || value <= 0) {
          std::fprintf(stderr, "bad --apps list: %s\n", argv[3]);
          return 2;
        }
        populations.push_back(static_cast<int>(value));
        cursor = (*end == ',') ? end + 1 : end;
      }
    }
    for (int apps : populations) {
      runLiveUpdate(apps, /*cached=*/false);
      runLiveUpdate(apps, /*cached=*/true);
    }
    return 0;
  }
  std::printf("=== Reconciliation engine pressure test (install-time) ===\n");
  std::printf("%-16s %-16s %14s %12s\n", "manifest-clauses",
              "boundary-clauses", "time(ms)", "violations");
  for (int size : {4, 8, 16, 32, 64}) {
    auto manifest = sdnshield::lang::parseManifest(makeManifestText(size));
    reconcile::Reconciler reconciler(
        sdnshield::lang::parsePolicy(makePolicyText(size)));
    auto start = std::chrono::steady_clock::now();
    auto result = reconciler.reconcile(manifest);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    std::printf("%-16d %-16d %14.2f %12zu\n", size, size, ms,
                result.violations.size());
  }
  std::printf(
      "\nExpected shape (paper): reconciliation completes well under one "
      "second even\nunder pressure; it runs once per app installation, off "
      "the critical path.\n");
  return 0;
}
