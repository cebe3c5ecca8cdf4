// Quickstart: the full SDNShield workflow in one file.
//
//  1. an app developer ships a permission manifest with the app;
//  2. the administrator writes local security policies (stub values,
//     mutual exclusions, boundaries);
//  3. the reconciliation engine merges the two and reports violations;
//  4. the app is loaded into the SDNShield runtime under the reconciled
//     permissions — every API call it makes is mediated.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "apps/l2_learning.h"
#include "core/lang/perm_parser.h"
#include "core/lang/policy_parser.h"
#include "core/lang/printer.h"
#include "core/reconcile/reconciler.h"
#include "isolation/api_proxy.h"
#include "switchsim/sim_network.h"

using namespace sdnshield;

int main() {
  // --- 1. the app and its requested permissions --------------------------
  auto app = std::make_shared<apps::L2LearningSwitch>();
  std::printf("== App '%s' requests ==\n%s\n", app->name().c_str(),
              app->requestedManifest().c_str());
  lang::PermissionManifest manifest =
      lang::parseManifest(app->requestedManifest());

  // --- 2. the administrator's local security policy -----------------------
  const char* policyText =
      "ASSERT EITHER { PERM network_access } OR { PERM send_pkt_out }\n"
      "LET l2Bound = {\n"
      "PERM pkt_in_event\n"
      "PERM send_pkt_out LIMITING FROM_PKT_IN\n"
      "PERM insert_flow LIMITING ACTION FORWARD AND MAX_PRIORITY 100\n"
      "}\n"
      "LET appPerm = APP l2_learning\n"
      "ASSERT appPerm <= l2Bound\n";
  std::printf("== Administrator policy ==\n%s\n", policyText);

  // --- 3. reconciliation ---------------------------------------------------
  reconcile::Reconciler reconciler(lang::parsePolicy(policyText));
  reconcile::ReconcileResult result = reconciler.reconcile(manifest);
  for (const auto& violation : result.violations) {
    std::printf("violation: %s\n", violation.toString().c_str());
  }
  std::printf("== Reconciled permissions ==\n%s\n",
              lang::formatPermissions(result.finalPermissions).c_str());

  // --- 4. deploy under SDNShield ------------------------------------------
  ctrl::Controller controller;
  sim::SimNetwork network(controller);
  network.buildLinear(2);
  // Every transport (sim, wire, tcp) registers through the one seam,
  // Controller::attachSwitch(conn, ConnectionInfo); the descriptor is
  // queryable afterwards. A real deployment would show transport "tcp"
  // and the peer's address here (see `sdnshield serve`).
  if (auto info = controller.connectionInfo(1)) {
    std::printf("switch 1 attached via transport '%s' (peer %s)\n",
                info->transport.c_str(), info->peer.c_str());
  }
  iso::ShieldRuntime shield(controller);
  shield.loadApp(app, result.finalPermissions);

  // Drive a little traffic: h1 -> h2 across the two switches.
  auto h1 = network.hostByIp(of::Ipv4Address(10, 0, 0, 1));
  auto h2 = network.hostByIp(of::Ipv4Address(10, 0, 0, 2));
  h1->send(of::Packet::makeTcp(h1->mac(), h2->mac(), h1->ip(), h2->ip(), 40000,
                               80, of::tcpflags::kSyn));
  h2->waitForPackets(1, std::chrono::milliseconds(1000));
  h2->send(of::Packet::makeTcp(h2->mac(), h1->mac(), h2->ip(), h1->ip(), 80,
                               40000, of::tcpflags::kSyn | of::tcpflags::kAck));
  h1->waitForPackets(1, std::chrono::milliseconds(1000));
  app->drainPending();  // The app pipelines its calls; settle them first.

  std::printf("h2 received %zu packet(s); app installed %llu rule(s)\n",
              h2->receivedCount(),
              static_cast<unsigned long long>(app->rulesInstalled()));
  std::printf("audit log recorded %llu mediated call(s), %llu denied\n",
              static_cast<unsigned long long>(
                  controller.audit().totalRecorded()),
              static_cast<unsigned long long>(controller.audit().deniedCount()));
  return 0;
}
