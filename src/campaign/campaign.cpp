#include "campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "apps/malicious/flow_tunneler.h"
#include "apps/malicious/info_leaker.h"
#include "apps/malicious/route_hijacker.h"
#include "apps/malicious/rst_injector.h"
#include "campaign/apps.h"
#include "campaign/topo_gen.h"
#include "cbench/generator.h"
#include "controller/controller.h"
#include "core/lang/policy_parser.h"
#include "core/perm/api_call.h"
#include "isolation/fault_injector.h"
#include "market/app_market.h"
#include "net/virtual_topology.h"
#include "obs/metrics.h"
#include "shard/shard_runtime.h"
#include "switchsim/sim_network.h"

namespace sdnshield::campaign {

namespace {

constexpr const char* kAttackerNames[] = {"rst_injector", "info_leaker",
                                          "route_hijacker", "flow_tunneler"};

/// The two alternating market policies. Both confine the sentinel's
/// insert_flow to a priority band (disjoint between the variants — the
/// epoch oracle's probe priorities 50 and 250 get opposite answers) and
/// bound every attacker and mutant to the paper's Scenario 1 read-mostly
/// grant; tenants and the routing service pass through untouched.
std::string policyText(std::size_t mutants, std::size_t variant) {
  std::ostringstream out;
  out << "LET sentinelBound = {\n"
      << "PERM insert_flow LIMITING "
      << (variant == 0 ? "MAX_PRIORITY 100" : "MIN_PRIORITY 200") << "\n"
      << "}\n"
      << "LET sentinelPerm = APP epoch_sentinel\n"
      << "ASSERT sentinelPerm <= sentinelBound\n"
      // The attacker bound keeps pod 0 of the live fat-tree visible (its
      // dpid layout is fixed: aggregation 1000x, edge 2000x) so the Table I
      // attack payloads run far enough to fire their write calls — which the
      // bound denies, which the audit log records, which the operator
      // revokes on. A blind attacker that bails at "no topology" would never
      // leave the forensic trail the containment loop keys off.
      << "LET attackerBound = {\n"
      << "PERM visible_topology LIMITING SWITCH {10000,10001,20000,20001}\n"
      << "PERM read_statistics\n"
      << "PERM network_access LIMITING IP_DST 10.99.0.0 MASK 255.255.0.0\n"
      << "}\n";
  std::size_t n = 0;
  for (const char* name : kAttackerNames) {
    out << "LET b" << n << " = APP " << name << "\n"
        << "ASSERT b" << n << " <= attackerBound\n";
    ++n;
  }
  for (std::size_t i = 0; i < mutants; ++i) {
    out << "LET m" << i << " = APP mutant_" << i << "\n"
        << "ASSERT m" << i << " <= attackerBound\n";
  }
  return out.str();
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

std::string jsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Retries a market operation through injected market.* aborts. The storm
/// is probabilistic, so a handful of retries drains essentially every
/// transient abort; a final failure is reported to the caller.
template <typename Fn>
ctrl::ApiResult marketRetry(Fn&& fn, int attempts = 8) {
  ctrl::ApiResult result;
  for (int i = 0; i < attempts; ++i) {
    try {
      result = fn();
    } catch (const std::exception&) {
      result = ctrl::ApiResult::failure(ctrl::ApiErrc::kTransactionAborted);
    }
    if (result.ok() || result.code() != ctrl::ApiErrc::kTransactionAborted) {
      return result;
    }
  }
  return result;
}

struct LiveOutcome {
  std::vector<InvariantResult> invariants;
  std::vector<AttackerOutcome> attackers;
  // Measured extras.
  double baselineResponsesPerSec = 0;
  double campaignResponsesPerSec = 0;
  std::uint64_t auditDropped = 0;
  std::uint64_t quarantinedTotal = 0;
  std::string healthTimeline;
};

}  // namespace

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

bool Scorecard::allInvariantsPass() const {
  return std::all_of(invariants.begin(), invariants.end(),
                     [](const InvariantResult& r) { return r.pass; });
}

std::string Scorecard::toJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema\": \"campaign_scorecard_v1\",\n"
      << "  \"seed\": " << config.seed << ",\n"
      << "  \"config\": {"
      << "\"live_fat_tree_k\": " << config.liveFatTreeK
      << ", \"tenants\": " << config.tenants
      << ", \"extra_tenants\": " << config.extraTenants
      << ", \"mutants\": " << config.mutants
      << ", \"attackers\": " << (config.attackers ? "true" : "false")
      << ", \"steps\": " << config.steps << ", \"fault_probability_ppm\": "
      << static_cast<std::uint64_t>(config.faultProbability * 1e6)
      << ", \"audit_capacity\": " << config.auditCapacity
      << ", \"degradation_floor_pct\": "
      << static_cast<std::uint64_t>(config.degradationFloor * 100)
      << ", \"mega_fat_tree_k\": " << config.megaFatTreeK
      << ", \"mega_spines\": " << config.megaSpines
      << ", \"mega_leaves\": " << config.megaLeaves << "},\n"
      << "  \"plan_digest\": \"" << planDigest << "\",\n"
      << "  \"mega_topology\": {"
      << "\"fat_tree_switches\": " << fatTreeSwitches
      << ", \"leaf_spine_switches\": " << leafSpineSwitches
      << ", \"flap_events\": " << flapEvents
      << ", \"path_queries\": " << pathQueries
      << ", \"disconnected_paths\": " << disconnectedPaths
      << ", \"translations\": " << translations
      << ", \"rejected_translations\": " << rejectedTranslations
      << ", \"containment_violations\": 0},\n"
      << "  \"invariants\": [\n";
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    const InvariantResult& inv = invariants[i];
    out << "    {\"name\": \"" << jsonEscape(inv.name) << "\", \"pass\": "
        << (inv.pass ? "true" : "false")
        << ", \"violations\": " << inv.violations << ", \"detail\": \""
        << jsonEscape(inv.detail) << "\"}"
        << (i + 1 < invariants.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"attackers\": [\n";
  for (std::size_t i = 0; i < attackers.size(); ++i) {
    out << "    {\"name\": \"" << jsonEscape(attackers[i].name)
        << "\", \"contained\": " << (attackers[i].contained ? "true" : "false")
        << "}" << (i + 1 < attackers.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (!measuredJson.empty()) {
    out << ",\n  \"measured\": " << measuredJson;
  }
  out << "\n}\n";
  return out.str();
}

namespace {

// --- Phase A: mega-topology churn oracles (pure computation) ---------------------

void runMegaPhase(const CampaignConfig& config, Scorecard& card,
                  std::uint64_t& digest) {
  struct MegaFabric {
    Fabric fabric;
    std::vector<FlapEvent> schedule;
  };
  MegaFabric fat{buildFatTree(config.megaFatTreeK), {}};
  MegaFabric leaf{buildLeafSpine(config.megaSpines, config.megaLeaves), {}};
  attachHosts(fat.fabric, 1);
  attachHosts(leaf.fabric, 1);
  card.fatTreeSwitches = fat.fabric.topology.switchCount();
  card.leafSpineSwitches = leaf.fabric.topology.switchCount();

  std::uint64_t scheduleSeed = config.seed ^ 0x51ab9ef2d03c7e64ULL;
  fat.schedule = buildFlapSchedule(fat.fabric, scheduleSeed, config.megaSteps,
                                   config.megaFlaps, config.megaDisconnects);
  leaf.schedule =
      buildFlapSchedule(leaf.fabric, scheduleSeed + 1, config.megaSteps,
                        config.megaFlaps, config.megaDisconnects);
  card.flapEvents = fat.schedule.size() + leaf.schedule.size();
  for (const FlapEvent& event : fat.schedule) {
    digest = fnv1a(digest, event.toString());
  }
  for (const FlapEvent& event : leaf.schedule) {
    digest = fnv1a(digest, event.toString());
  }

  // Virtual tenants: each fat-tree pod is one tenant whose big switch is
  // built over the pod-RESTRICTED physical view — the construction that
  // makes cross-tenant leakage structurally impossible, which the oracle
  // re-verifies on every translated rule.
  std::uint64_t containment = 0;
  std::uint64_t rng = config.seed ^ 0x1c69b3f74ad02e85ULL;
  for (std::size_t step = 0; step < config.megaSteps; ++step) {
    applyFlapStep(fat.fabric, fat.schedule, step);
    applyFlapStep(leaf.fabric, leaf.schedule, step);

    for (MegaFabric* mega : {&fat, &leaf}) {
      const std::vector<net::DatapathId>& edges = mega->fabric.edge;
      for (std::size_t q = 0; q < config.megaQueriesPerStep; ++q) {
        net::DatapathId from = edges[nextRandom(rng) % edges.size()];
        net::DatapathId to = edges[nextRandom(rng) % edges.size()];
        ++card.pathQueries;
        if (!mega->fabric.topology.shortestPath(from, to)) {
          ++card.disconnectedPaths;
        }
      }
    }

    for (const std::vector<net::DatapathId>& pod : fat.fabric.pods) {
      // Tenant slice: the pod's edge switches plus their in-pod aggregation
      // layer (derivable from the dpid layout: same pod block).
      std::set<net::DatapathId> members(pod.begin(), pod.end());
      for (net::DatapathId edge : pod) {
        members.insert(edge - 10000);  // Matching aggregation dpid.
      }
      std::set<net::DatapathId> present;
      for (net::DatapathId dpid : members) {
        if (fat.fabric.topology.hasSwitch(dpid)) present.insert(dpid);
      }
      net::Topology slice = fat.fabric.topology.restrictTo(present);
      if (slice.hosts().size() < 2) continue;
      net::VirtualTopology vtopo =
          net::VirtualTopology::bigSwitch(slice, present, 1);
      const auto& vports = vtopo.virtualSwitch().ports;
      if (vports.size() < 2) continue;
      of::FlowMod vmod;
      vmod.command = of::FlowModCommand::kAdd;
      vmod.match.ethType = static_cast<std::uint16_t>(of::EtherType::kIpv4);
      vmod.match.inPort = vports[nextRandom(rng) % vports.size()].virtualPort;
      vmod.match.ipDst = of::MaskedIpv4{of::Ipv4Address(
          10, static_cast<std::uint8_t>(nextRandom(rng)),
          static_cast<std::uint8_t>(nextRandom(rng)), 1)};
      vmod.priority = 100;
      vmod.actions.push_back(of::OutputAction{
          vports[nextRandom(rng) % vports.size()].virtualPort});
      ++card.translations;
      try {
        auto pmods = vtopo.translateFlowMod(vmod);
        for (const auto& [dpid, mod] : pmods) {
          if (present.count(dpid) == 0) ++containment;
        }
      } catch (const std::invalid_argument&) {
        // Partitioned slice (the flap scheduler's doing): translation is
        // expected to refuse, never to route around through another tenant.
        ++card.rejectedTranslations;
      }
    }
  }

  card.invariants.push_back(
      {"mega_tenant_containment", containment == 0, containment,
       "every translated physical rule lands inside its tenant slice"});
}

// --- Phase B: live market under storm --------------------------------------------

struct Member {
  of::AppId id = 0;
  std::string name;
  enum class Kind { kService, kSentinel, kTenant, kAttacker, kMutant } kind;
  std::shared_ptr<ctrl::App> app;
  std::vector<of::DatapathId> scope;  ///< Tenants only.
};

LiveOutcome runLivePhase(const CampaignConfig& config, const CampaignPlan& plan,
                         std::uint64_t& digest) {
  LiveOutcome outcome;

  Fabric live = buildFatTree(config.liveFatTreeK);
  ctrl::Controller controller;
  controller.audit().setCapacity(config.auditCapacity);
  // The sharded substrate, when asked for: packet-in dispatch and memo
  // domains split across config.shards loops. The scorecard carries no
  // shard field on purpose — any shard count must reproduce it byte for
  // byte (CI cmp's shards=1 against shards=4).
  shard::ShardRuntime shardRuntime([&] {
    shard::ShardOptions shardOptions;
    shardOptions.shards = config.shards;
    return shardOptions;
  }());
  shardRuntime.start();
  shardRuntime.attach(controller);
  sim::SimNetwork net(controller);
  for (net::DatapathId dpid : live.topology.switches()) {
    net.addSwitch(dpid);
    // Registration goes through the canonical attachSwitch seam; the
    // descriptor must be queryable and name the in-process transport.
    auto info = controller.connectionInfo(dpid);
    if (!info || info->transport != "sim") {
      throw std::logic_error("campaign: switch attached without sim descriptor");
    }
  }
  for (const net::Link& link : live.topology.links()) {
    net.link(link.a.dpid, link.a.port, link.b.dpid, link.b.port);
  }
  // One measurable host (port 1) per edge switch; cbench adds its probe
  // hosts (port 4) in setup().
  std::size_t hostIndex = 1;
  for (net::DatapathId dpid : live.edge) {
    net.addHost(dpid, 1, of::MacAddress::fromUint64(0x0100000000ULL + hostIndex),
                of::Ipv4Address(10, 0, static_cast<std::uint8_t>(hostIndex >> 8),
                                static_cast<std::uint8_t>(hostIndex & 0xff)));
    ++hostIndex;
  }

  iso::ShieldOptions options;
  options.ksdThreads = 4;
  // The storm is the supervisor's nightmare diet: every app (including the
  // benign ones) eats injected faults. The campaign's containment story is
  // the market operator revoking on audited DENIALS, so the watchdog is
  // parked far out of the way rather than disabled (its health/timeline
  // stays observable in --measured runs).
  options.supervisor.faultSuspectThreshold = 1u << 30;
  options.supervisor.faultQuarantineThreshold = 1u << 30;
  options.supervisor.dropQuarantineThreshold = 1u << 30;
  options.supervisor.taskDeadline = std::chrono::milliseconds(60000);
  options.supervisor.taskHangDeadline = std::chrono::milliseconds(120000);
  iso::ShieldRuntime shield(controller, options);
  shardRuntime.attachEngine(shield.engine());

  lang::PolicyProgram initialPolicy =
      lang::parsePolicy(policyText(config.mutants, 0));
  market::AppMarket market(shield, initialPolicy);

  // --- population ---------------------------------------------------------
  std::vector<Member> members;
  auto install = [&](std::shared_ptr<ctrl::App> app, Member::Kind kind,
                     std::vector<of::DatapathId> scope = {}) -> of::AppId {
    auto response = market.installApp(app, 1);
    if (!response.ok()) return 0;
    members.push_back(Member{response.value(), app->name(), kind,
                             std::move(app), std::move(scope)});
    return members.back().id;
  };

  std::size_t tenantSlots = config.tenants + config.extraTenants;
  auto tenantScope = [&](std::size_t index) {
    std::vector<of::DatapathId> scope;
    for (std::size_t j = index; j < live.edge.size(); j += tenantSlots) {
      scope.push_back(live.edge[j]);
    }
    if (scope.empty()) scope.push_back(live.edge[index % live.edge.size()]);
    return scope;
  };
  auto makeTenant = [&](std::size_t index) {
    return std::make_shared<TenantApp>(
        "tenant_" + std::to_string(index), tenantScope(index),
        static_cast<std::uint8_t>(index & 0x3f));
  };
  auto makeMutant = [&](std::size_t index) {
    return std::make_shared<MutantApp>("mutant_" + std::to_string(index),
                                       plan.mutantSeeds[index], live.edge);
  };
  auto makeAttacker = [&](const std::string& name) -> std::shared_ptr<ctrl::App> {
    if (name == "rst_injector") {
      return std::make_shared<apps::RstInjectorApp>(80);
    }
    if (name == "info_leaker") {
      return std::make_shared<apps::InfoLeakerApp>(of::Ipv4Address(10, 66, 6, 6),
                                                   4444);
    }
    if (name == "route_hijacker") {
      // Victim and "attacker-controlled" host are both real pod-0 hosts, so
      // the hijack proceeds to its (denied, audited) flow inserts.
      return std::make_shared<apps::RouteHijackerApp>(
          of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2));
    }
    return std::make_shared<apps::FlowTunnelerApp>(23, 80);
  };

  of::AppId serviceId = install(std::make_shared<DcRoutingApp>(),
                                Member::Kind::kService);
  of::AppId sentinelId = install(std::make_shared<EpochSentinelApp>(),
                                 Member::Kind::kSentinel);
  for (std::size_t i = 0; i < config.tenants; ++i) {
    install(makeTenant(i), Member::Kind::kTenant, tenantScope(i));
  }
  if (config.attackers) {
    for (const char* name : kAttackerNames) {
      install(makeAttacker(name), Member::Kind::kAttacker);
    }
  }
  for (std::size_t i = 0; i < config.mutants; ++i) {
    install(makeMutant(i), Member::Kind::kMutant);
  }
  for (const Member& member : members) {
    digest = fnv1a(digest, member.name + "#" + std::to_string(member.id));
  }

  // Operator: watches the audit log for permission denials and revokes the
  // offender through the market — the paper's containment loop, driven by
  // forensics instead of supervisor heuristics.
  std::map<of::AppId, std::uint64_t> denialTally;
  std::uint64_t lastAuditSeq = 0;
  auto operatorSweep = [&] {
    lastAuditSeq = controller.audit().visitSince(
        lastAuditSeq, [&](const engine::AuditRecord& record) {
          if (record.kind == engine::AuditKind::kApiCall && !record.allowed) {
            ++denialTally[record.app];
          }
        });
    for (const auto& [app, denials] : denialTally) {
      if (denials < config.denialThreshold) continue;
      if (app == serviceId || app == sentinelId) continue;
      auto entry = market.entry(app);
      if (!entry || entry->state == market::AppState::kRevoked) continue;
      marketRetry([&] {
        return market.revokeApp(app, "campaign operator: audited denials");
      });
    }
  };
  // Install-time denials (an attacker probing a subscription it was never
  // granted) must be swept before load floods the bounded audit ring and
  // evicts them.
  operatorSweep();

  // --- baseline throughput (no storm, attackers dormant) ------------------
  cbench::Generator generator(net);
  generator.setup();
  generator.setRoundRetry(
      {.maxRetries = 2,
       .initialBackoff = std::chrono::milliseconds(1),
       .backoffMultiplier = 2.0});
  // A storm-faulted round should cost one short deadline plus a retried
  // round, not the 200ms default — otherwise measured "degradation" is
  // mostly the harness waiting, not the stack degrading.
  generator.setRoundTimeout(std::chrono::milliseconds(10));
  auto baseline =
      generator.runThroughput(std::chrono::milliseconds(config.measureMs));
  outcome.baselineResponsesPerSec = baseline.responsesPerSec;

  // --- arm the storm ------------------------------------------------------
  iso::FaultInjector& injector = iso::FaultInjector::instance();
  injector.reset();
  if (config.faultProbability > 0) {
    using Fault = iso::FaultInjector::Fault;
    for (std::string_view site :
         {iso::sites::kContainerTask, iso::sites::kContainerPost,
          iso::sites::kKsdCall, iso::sites::kKsdTask,
          iso::sites::kMarketReconcile, iso::sites::kMarketSwap,
          iso::sites::kMarketJournal}) {
      injector.armProbabilistic(site, Fault::kThrow, config.faultProbability,
                                config.seed);
    }
    injector.armProbabilistic(iso::sites::kKsdQueue, Fault::kQueueFull,
                              config.faultProbability, config.seed);
  }

  // --- concurrent machinery ----------------------------------------------
  std::atomic<bool> stop{false};

  // Load: continuous cbench pressure; total responses during the campaign
  // give the degradation measurement.
  std::atomic<std::uint64_t> campaignResponses{0};
  std::atomic<std::uint64_t> campaignMillis{0};
  std::thread loadThread([&] {
    while (!stop.load()) {
      auto stats =
          generator.runThroughput(std::chrono::milliseconds(100));
      campaignResponses.fetch_add(stats.totalResponses);
      campaignMillis.fetch_add(
          static_cast<std::uint64_t>(stats.durationSec * 1000));
    }
  });

  // Epoch-consistency prober: under ANY single policy epoch the sentinel's
  // insert_flow band answers exactly one of (allow,deny)/(deny,allow) for
  // priorities 50/250 — (allow,allow) and (deny,deny) both mean a torn
  // grant set was observed.
  std::atomic<std::uint64_t> epochProbes{0};
  std::atomic<std::uint64_t> epochViolations{0};
  std::thread proberThread([&] {
    of::FlowMod lowMod;
    lowMod.command = of::FlowModCommand::kAdd;
    lowMod.priority = 50;
    lowMod.actions.push_back(of::OutputAction{1});
    of::FlowMod highMod = lowMod;
    highMod.priority = 250;
    of::DatapathId probeDpid = live.edge.front();
    while (!stop.load()) {
      std::uint64_t before = shield.engine().epoch();
      bool low = shield.engine()
                     .check(perm::ApiCall::insertFlow(sentinelId, probeDpid,
                                                      lowMod))
                     .allowed;
      bool high = shield.engine()
                      .check(perm::ApiCall::insertFlow(sentinelId, probeDpid,
                                                       highMod))
                      .allowed;
      if (shield.engine().epoch() == before) {
        epochProbes.fetch_add(1);
        if (low == high) epochViolations.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::mutex operatorMutex;
  std::thread operatorThread([&] {
    while (!stop.load()) {
      {
        std::lock_guard lock(operatorMutex);
        operatorSweep();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // --- churn loop (this thread) -------------------------------------------
  // Every drive call runs INSIDE the member's thread container (postAndWait),
  // so host-system calls carry the right app identity and injected
  // container faults land on the app, exactly as production tasks would. A
  // revoked/quarantined member simply has no container any more.
  auto tickAll = [&] {
    for (Member& member : members) {
      auto container = shield.container(member.id);
      if (!container || container->quarantined()) continue;
      std::function<void()> drive;
      switch (member.kind) {
        case Member::Kind::kTenant: {
          auto tenant = std::static_pointer_cast<TenantApp>(member.app);
          drive = [tenant] { tenant->tick(); };
          break;
        }
        case Member::Kind::kMutant: {
          auto mutant = std::static_pointer_cast<MutantApp>(member.app);
          drive = [mutant] { mutant->tick(); };
          break;
        }
        case Member::Kind::kAttacker:
          if (member.name == "info_leaker") {
            auto app = std::static_pointer_cast<apps::InfoLeakerApp>(member.app);
            drive = [app] { app->leak(); };
          } else if (member.name == "route_hijacker") {
            auto app =
                std::static_pointer_cast<apps::RouteHijackerApp>(member.app);
            drive = [app] { app->hijack(); };
          } else if (member.name == "flow_tunneler") {
            auto app =
                std::static_pointer_cast<apps::FlowTunnelerApp>(member.app);
            drive = [app] {
              app->establishTunnel(of::Ipv4Address(10, 0, 0, 1),
                                   of::Ipv4Address(10, 0, 0, 2));
            };
          }
          break;
        default:
          break;
      }
      if (drive) container->postAndWait(std::move(drive));
    }
  };

  std::map<std::size_t, of::AppId> tenantIds;  // initial tenant index -> id
  for (const Member& member : members) {
    if (member.kind != Member::Kind::kTenant) continue;
    for (std::size_t i = 0; i < config.tenants; ++i) {
      if (member.name == "tenant_" + std::to_string(i)) tenantIds[i] = member.id;
    }
  }

  of::AppId revokedTenantId = tenantIds[plan.revokedTenant];
  std::size_t planCursor = 0;
  for (std::size_t step = 0; step < config.steps; ++step) {
    while (planCursor < plan.ops.size() && plan.ops[planCursor].step <= step) {
      const MarketOp& op = plan.ops[planCursor++];
      switch (op.kind) {
        case MarketOp::Kind::kUpdatePolicy:
          marketRetry([&] {
            return market.updatePolicy(
                policyText(config.mutants, op.index));
          });
          break;
        case MarketOp::Kind::kInstallTenant: {
          std::size_t index = config.tenants + op.index;
          auto tenant = std::make_shared<TenantApp>(
              "tenant_" + std::to_string(index), tenantScope(index),
              static_cast<std::uint8_t>(index & 0x3f));
          marketRetry([&]() -> ctrl::ApiResult {
            auto response = market.installApp(tenant, 1);
            if (response.ok()) {
              members.push_back(Member{response.value(), tenant->name(),
                                       Member::Kind::kTenant, tenant,
                                       tenantScope(index)});
              return ctrl::ApiResult::success();
            }
            return ctrl::ApiResult::failure(response.error());
          });
          break;
        }
        case MarketOp::Kind::kUpgradeTenant: {
          of::AppId id = tenantIds[op.index];
          auto next = makeTenant(op.index);
          marketRetry([&]() -> ctrl::ApiResult {
            ctrl::ApiResult result = market.upgradeApp(id, next, 2);
            if (result.ok()) {
              for (Member& member : members) {
                if (member.id == id) member.app = next;
              }
            }
            return result;
          });
          break;
        }
        case MarketOp::Kind::kUninstallTenant:
          marketRetry([&] { return market.uninstallApp(tenantIds[op.index]); });
          break;
        case MarketOp::Kind::kRevokeTenant:
          marketRetry([&] {
            return market.revokeApp(revokedTenantId,
                                    "campaign plan: scheduled revocation");
          });
          break;
      }
    }
    tickAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(config.stepMs));
  }

  // --- quiesce ------------------------------------------------------------
  stop.store(true);
  loadThread.join();
  proberThread.join();
  operatorThread.join();
  injector.reset();
  // Final sweep with the storm gone: any denial evidence accrued in the
  // last scan interval still gets its revocation.
  {
    std::lock_guard lock(operatorMutex);
    operatorSweep();
  }

  double campaignSeconds =
      static_cast<double>(campaignMillis.load()) / 1000.0;
  outcome.campaignResponsesPerSec =
      campaignSeconds > 0
          ? static_cast<double>(campaignResponses.load()) / campaignSeconds
          : 0;

  // --- revoked-app silence oracle -----------------------------------------
  auto ownedRules = [&](of::AppId app) {
    std::uint64_t total = 0;
    for (net::DatapathId dpid : live.topology.switches()) {
      total += controller.ownership().countFor(app, dpid);
    }
    return total;
  };
  std::map<of::AppId, std::uint64_t> revokedSnapshot;
  for (const Member& member : members) {
    auto entry = market.entry(member.id);
    if (entry && entry->state == market::AppState::kRevoked) {
      revokedSnapshot[member.id] = ownedRules(member.id);
    }
  }
  // Poke every revoked app hard, post-revocation: none of these calls may
  // add a rule.
  for (int i = 0; i < 5; ++i) tickAll();
  std::uint64_t silenceViolations = 0;
  for (const auto& [app, rulesBefore] : revokedSnapshot) {
    if (ownedRules(app) > rulesBefore) ++silenceViolations;
  }
  outcome.invariants.push_back(
      {"revoked_app_silence", silenceViolations == 0, silenceViolations,
       "no flow-mod from a revoked app reaches a switch"});

  // --- cross-tenant leakage oracle ----------------------------------------
  std::uint64_t leakViolations = 0;
  for (const Member& member : members) {
    if (member.kind != Member::Kind::kTenant) continue;
    std::set<net::DatapathId> scope(member.scope.begin(), member.scope.end());
    for (net::DatapathId dpid : live.topology.switches()) {
      if (scope.count(dpid) != 0) continue;
      leakViolations += controller.ownership().countFor(member.id, dpid);
    }
  }
  outcome.invariants.push_back(
      {"cross_tenant_leakage", leakViolations == 0, leakViolations,
       "every tenant-owned rule sits on that tenant's switches"});

  // --- epoch-consistency oracle -------------------------------------------
  std::uint64_t torn = epochViolations.load();
  outcome.invariants.push_back(
      {"epoch_consistency", torn == 0, torn,
       "every observed grant set belongs to exactly one epoch"});
  digest = fnv1a(digest, "epoch_probes_ran");
  (void)epochProbes;

  // --- attacker containment -----------------------------------------------
  std::uint64_t uncontained = 0;
  for (const Member& member : members) {
    if (member.kind != Member::Kind::kAttacker &&
        member.kind != Member::Kind::kMutant) {
      continue;
    }
    auto entry = market.entry(member.id);
    bool contained = !entry || entry->state == market::AppState::kRevoked ||
                     shield.isQuarantined(member.id);
    if (!contained) ++uncontained;
    outcome.attackers.push_back({member.name, contained});
  }
  if (config.attackers || config.mutants > 0) {
    outcome.invariants.push_back(
        {"attacker_containment", uncontained == 0, uncontained,
         "every attacker and mutant ends revoked or quarantined"});
  }

  // --- graceful degradation -----------------------------------------------
  bool degradationOk =
      outcome.campaignResponsesPerSec >=
      config.degradationFloor * outcome.baselineResponsesPerSec;
  outcome.invariants.push_back(
      {"graceful_degradation", degradationOk,
       degradationOk ? 0ULL : 1ULL,
       "healthy-app throughput stays above the documented floor"});

  // --- journal recovery oracle --------------------------------------------
  std::string liveDigest = market.digest();
  std::uint64_t recoveryViolations = 0;
  {
    market::AppFactory factory = [&](const std::string& name,
                                     std::uint32_t version)
        -> std::shared_ptr<ctrl::App> {
      (void)version;
      if (name == "dc_routing") return std::make_shared<DcRoutingApp>();
      if (name == "epoch_sentinel") return std::make_shared<EpochSentinelApp>();
      if (name.rfind("tenant_", 0) == 0) {
        std::size_t index = std::stoul(name.substr(7));
        return std::make_shared<TenantApp>(
            name, tenantScope(index), static_cast<std::uint8_t>(index & 0x3f));
      }
      if (name.rfind("mutant_", 0) == 0) {
        std::size_t index = std::stoul(name.substr(7));
        return std::make_shared<MutantApp>(name, plan.mutantSeeds[index],
                                           live.edge);
      }
      return makeAttacker(name);
    };
    ctrl::Controller recoveredController;
    iso::ShieldOptions recoveredOptions;
    recoveredOptions.supervise = false;
    iso::ShieldRuntime recoveredShield(recoveredController, recoveredOptions);
    auto recovered = market::AppMarket::recover(recoveredShield, initialPolicy,
                                                factory, market.journal());
    if (recovered->digest() != liveDigest) recoveryViolations = 1;
  }
  outcome.invariants.push_back(
      {"journal_recovery", recoveryViolations == 0, recoveryViolations,
       "post-campaign journal replay reproduces the live market digest"});

  // --- measured extras ----------------------------------------------------
  outcome.auditDropped = controller.audit().droppedCount();
  outcome.quarantinedTotal = shield.supervisor().quarantinedTotal();
  {
    std::ostringstream health;
    bool first = true;
    for (const Member& member : members) {
      if (!first) health << ", ";
      first = false;
      health << member.name << "="
             << iso::toString(shield.supervisor().health(member.id));
    }
    outcome.healthTimeline = health.str();
  }
  // Detach before the shield/market destructors run so their teardown
  // traffic takes the inline path and nothing references the runtime after
  // it stops.
  shardRuntime.detachEngine(shield.engine());
  shardRuntime.detach(controller);
  shardRuntime.stop();
  return outcome;
}

}  // namespace

Scorecard Campaign::run() {
  Scorecard card;
  card.config = config_;

  CampaignPlan plan = buildPlan(config_);
  std::uint64_t digest = fnv1a(kFnvOffset, plan.toString());
  digest = fnv1a(digest, std::to_string(config_.seed));

  runMegaPhase(config_, card, digest);
  LiveOutcome live = runLivePhase(config_, plan, digest);

  card.invariants.insert(card.invariants.end(), live.invariants.begin(),
                         live.invariants.end());
  card.attackers = live.attackers;
  card.planDigest = hex64(digest);

  if (config_.measured) {
    std::ostringstream measured;
    auto counter = [&](const char* name) {
      return obs::Registry::global().counter(name).value();
    };
    measured << "{\"baseline_responses_per_sec\": "
             << static_cast<std::uint64_t>(live.baselineResponsesPerSec)
             << ", \"campaign_responses_per_sec\": "
             << static_cast<std::uint64_t>(live.campaignResponsesPerSec)
             << ", \"cbench_retry_attempts\": "
             << counter("cbench.retry.attempts")
             << ", \"cbench_retry_rounds\": " << counter("cbench.retry.rounds")
             << ", \"audit_dropped\": " << live.auditDropped
             << ", \"supervisor_quarantined\": " << live.quarantinedTotal
             << ", \"health\": \"" << jsonEscape(live.healthTimeline) << "\"}";
    card.measuredJson = measured.str();
  }
  return card;
}

}  // namespace sdnshield::campaign
