// Permission engine: compiled checking, token gating, filter programs,
// topology-projection extraction, kernel bypass and concurrent checking.
#include "core/engine/permission_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "core/lang/perm_parser.h"

namespace sdnshield::engine {
namespace {

using lang::parsePermissions;
using perm::ApiCall;
using perm::Token;

of::FlowMod modTo(const char* ipDst, std::uint16_t priority = 10) {
  of::FlowMod mod;
  mod.match.ethType = 0x0800;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address::parse(ipDst)};
  mod.priority = priority;
  mod.actions.push_back(of::OutputAction{1});
  return mod;
}

TEST(CompiledPermissions, MissingTokenIsDenied) {
  CompiledPermissions compiled(parsePermissions("PERM read_statistics\n"));
  Decision decision = compiled.check(ApiCall::insertFlow(1, 1, modTo("10.0.0.1")));
  EXPECT_FALSE(decision.allowed);
  EXPECT_NE(decision.reason.find("insert_flow"), std::string::npos);
}

TEST(CompiledPermissions, UnrestrictedGrantAllows) {
  CompiledPermissions compiled(parsePermissions("PERM insert_flow\n"));
  EXPECT_TRUE(compiled.check(ApiCall::insertFlow(1, 1, modTo("10.0.0.1"))).allowed);
}

TEST(CompiledPermissions, FilterProgramEnforcesPredicates) {
  CompiledPermissions compiled(parsePermissions(
      "PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0 "
      "AND MAX_PRIORITY 100\n"));
  EXPECT_TRUE(
      compiled.check(ApiCall::insertFlow(1, 1, modTo("10.13.2.3", 50))).allowed);
  EXPECT_FALSE(
      compiled.check(ApiCall::insertFlow(1, 1, modTo("10.14.2.3", 50))).allowed);
  Decision denied =
      compiled.check(ApiCall::insertFlow(1, 1, modTo("10.13.2.3", 200)));
  EXPECT_FALSE(denied.allowed);
  EXPECT_NE(denied.reason.find("filter"), std::string::npos);
}

TEST(CompiledPermissions, DisjunctionAndNegationPrograms) {
  CompiledPermissions compiled(parsePermissions(
      "PERM insert_flow LIMITING NOT OWN_FLOWS OR MAX_PRIORITY 10\n"));
  ApiCall lowPriority = ApiCall::insertFlow(1, 1, modTo("10.0.0.1", 5));
  lowPriority.ownFlow = true;
  EXPECT_TRUE(compiled.check(lowPriority).allowed);
  ApiCall highOwned = ApiCall::insertFlow(1, 1, modTo("10.0.0.1", 50));
  highOwned.ownFlow = true;
  EXPECT_FALSE(compiled.check(highOwned).allowed);
  ApiCall highForeign = ApiCall::insertFlow(1, 1, modTo("10.0.0.1", 50));
  highForeign.ownFlow = false;
  EXPECT_TRUE(compiled.check(highForeign).allowed);
}

TEST(CompiledPermissions, HasTokenReflectsGrants) {
  CompiledPermissions compiled(
      parsePermissions("PERM pkt_in_event\nPERM read_payload\n"));
  EXPECT_TRUE(compiled.hasToken(Token::kPktInEvent));
  EXPECT_TRUE(compiled.hasToken(Token::kReadPayload));
  EXPECT_FALSE(compiled.hasToken(Token::kSendPktOut));
}

TEST(CompiledPermissions, ExtractsTopologyProjection) {
  CompiledPermissions compiled(parsePermissions(
      "PERM visible_topology LIMITING SWITCH {1,2} LINK {(1,2)}\n"));
  ASSERT_NE(compiled.topologyProjection(), nullptr);
  EXPECT_EQ(compiled.topologyProjection()->switches().size(), 2u);
  EXPECT_FALSE(compiled.virtualTopology().has_value());
}

TEST(CompiledPermissions, ExtractsVirtualTopologyMarker) {
  CompiledPermissions compiled(parsePermissions(
      "PERM visible_topology LIMITING VIRTUAL SINGLE_BIG_SWITCH\n"));
  ASSERT_TRUE(compiled.virtualTopology().has_value());
  EXPECT_TRUE(compiled.virtualTopology()->empty());  // Whole network.
}

TEST(CompiledPermissions, EventSubscriptionGatedByEventTokens) {
  CompiledPermissions compiled(parsePermissions("PERM pkt_in_event\n"));
  EXPECT_TRUE(
      compiled
          .check(ApiCall::subscribe(1, perm::ApiCallType::kSubscribePacketIn))
          .allowed);
  EXPECT_FALSE(
      compiled
          .check(ApiCall::subscribe(1, perm::ApiCallType::kSubscribeFlowEvent))
          .allowed);
}

TEST(CompiledPermissions, HostCallsGatedByHostTokens) {
  CompiledPermissions compiled(parsePermissions(
      "PERM network_access LIMITING IP_DST 10.1.0.0 MASK 255.255.0.0\n"));
  EXPECT_TRUE(
      compiled.check(ApiCall::hostNetwork(1, of::Ipv4Address(10, 1, 5, 5), 80))
          .allowed);
  EXPECT_FALSE(
      compiled.check(ApiCall::hostNetwork(1, of::Ipv4Address(8, 8, 8, 8), 80))
          .allowed);
  EXPECT_FALSE(compiled.check(ApiCall::fileSystem(1, "/etc/passwd")).allowed);
}

TEST(PermissionEngine, KernelAppBypassesChecks) {
  PermissionEngine engine;
  ApiCall call = ApiCall::insertFlow(of::kKernelAppId, 1, modTo("10.0.0.1"));
  EXPECT_TRUE(engine.check(call).allowed);
}

TEST(PermissionEngine, UnknownAppIsDeniedEverything) {
  PermissionEngine engine;
  EXPECT_FALSE(engine.check(ApiCall::readTopology(7)).allowed);
}

TEST(PermissionEngine, InstallUninstallLifecycle) {
  PermissionEngine engine;
  engine.install(3, parsePermissions("PERM visible_topology\n"));
  EXPECT_TRUE(engine.check(ApiCall::readTopology(3)).allowed);
  ASSERT_NE(engine.compiled(3), nullptr);
  engine.uninstall(3);
  EXPECT_FALSE(engine.check(ApiCall::readTopology(3)).allowed);
  EXPECT_EQ(engine.compiled(3), nullptr);
}

TEST(PermissionEngine, ReinstallReplacesPermissions) {
  PermissionEngine engine;
  engine.install(3, parsePermissions("PERM visible_topology\n"));
  engine.install(3, parsePermissions("PERM read_statistics\n"));
  EXPECT_FALSE(engine.check(ApiCall::readTopology(3)).allowed);
  of::StatsRequest request;
  EXPECT_TRUE(engine.check(ApiCall::readStatistics(3, request)).allowed);
}

TEST(PermissionEngine, PerAppIsolationOfGrants) {
  PermissionEngine engine;
  engine.install(1, parsePermissions("PERM insert_flow\n"));
  engine.install(2, parsePermissions("PERM read_statistics\n"));
  EXPECT_TRUE(engine.check(ApiCall::insertFlow(1, 1, modTo("10.0.0.1"))).allowed);
  EXPECT_FALSE(engine.check(ApiCall::insertFlow(2, 1, modTo("10.0.0.1"))).allowed);
}

TEST(PermissionEngine, ConcurrentChecksAreSafe) {
  PermissionEngine engine;
  engine.install(1, parsePermissions(
                        "PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK "
                        "255.255.0.0\n"));
  std::atomic<int> denials{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&engine, &denials, t] {
      for (int i = 0; i < 2000; ++i) {
        const char* ip = (t % 2 == 0) ? "10.13.0.5" : "10.99.0.5";
        Decision decision =
            engine.check(ApiCall::insertFlow(1, 1, modTo(ip)));
        if (!decision.allowed) denials.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(denials.load(), 4 * 2000);  // Odd threads always denied.
}

// A warm allowed check allocates nothing: 1,000 distinct allowed calls, each
// run through the compiled filter program, make no heap allocation on the
// checking thread.
TEST(PermissionEngine, WarmAllowedCheckAllocatesNothing) {
  PermissionEngine engine;
  engine.install(1, parsePermissions(
                        "PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK "
                        "255.255.0.0\n"));
  std::vector<ApiCall> calls;
  for (int i = 0; i < 1000; ++i) {
    std::string ip = "10.13." + std::to_string(i / 250) + "." +
                     std::to_string(i % 250 + 1);
    calls.push_back(ApiCall::insertFlow(1, 1, modTo(ip.c_str())));
  }
  // Warm-up on a call outside the set: pins the table and touches every
  // per-thread counter shard the check path writes.
  ASSERT_TRUE(engine.check(ApiCall::insertFlow(1, 1, modTo("10.13.9.9")))
                  .allowed);

  std::size_t allowed = 0;
  t_allocations = 0;
  t_countAllocations = true;
  for (const ApiCall& call : calls) allowed += engine.check(call).allowed;
  t_countAllocations = false;
  EXPECT_EQ(allowed, calls.size());
  EXPECT_EQ(t_allocations, 0u);
}

TEST(PermissionEngine, SourcePermissionsAreIntrospectable) {
  PermissionEngine engine;
  auto perms = parsePermissions("PERM insert_flow\nPERM read_statistics\n");
  engine.install(9, perms);
  EXPECT_TRUE(engine.compiled(9)->source().equivalent(perms));
}

// --- depth bounds (regression for the former unchecked stack[64]) ----------

perm::FilterExprPtr tpDstLeaf(std::uint16_t port) {
  return perm::FilterExpr::singleton(perm::FilterPtr{
      new perm::FieldPredicateFilter(of::MatchField::kTpDst, port)});
}

TEST(CompiledPermissions, AlternatingDepth70ExpressionIsRejectedNotOverflowed) {
  // Alternating AND/OR with distinct leaves cannot be flattened, so the
  // program would need ~70 nesting levels — beyond kMaxProgramDepth. The
  // seed engine indexed past its fixed stack[64] here (UB); now the
  // constructor must refuse cleanly.
  perm::FilterExprPtr expr = tpDstLeaf(0);
  for (std::uint16_t i = 1; i <= 70; ++i) {
    expr = i % 2 == 0 ? perm::FilterExpr::conj(tpDstLeaf(i), expr)
                      : perm::FilterExpr::disj(tpDstLeaf(i), expr);
  }
  perm::PermissionSet set;
  set.grant(perm::Token::kInsertFlow, expr);
  EXPECT_THROW(CompiledPermissions{set}, std::length_error);
}

TEST(CompiledPermissions, SameOpDepth70ChainFlattensAndEvaluates) {
  // A right-leaning 70-deep OR chain (what repeated FilterExpr::disj in a
  // loop builds) also overflowed the seed's stack. The optimizer flattens
  // and rebalances it, so it must compile and answer correctly.
  perm::FilterExprPtr expr = tpDstLeaf(0);
  for (std::uint16_t i = 1; i <= 70; ++i) {
    expr = perm::FilterExpr::disj(tpDstLeaf(i), expr);
  }
  perm::PermissionSet set;
  set.grant(perm::Token::kInsertFlow, expr);
  CompiledPermissions compiled(set);

  auto callWithTpDst = [](std::uint16_t port) {
    ApiCall call;
    call.type = perm::ApiCallType::kInsertFlow;
    call.app = 1;
    of::FlowMatch match;
    match.tpDst = port;
    call.match = match;
    return call;
  };
  EXPECT_TRUE(compiled.check(callWithTpDst(0)).allowed);
  EXPECT_TRUE(compiled.check(callWithTpDst(35)).allowed);
  EXPECT_TRUE(compiled.check(callWithTpDst(70)).allowed);
  EXPECT_FALSE(compiled.check(callWithTpDst(71)).allowed);
}

TEST(CompiledPermissions, AbsurdlyDeepExpressionIsRejectedBeforeRecursing) {
  // 5000 stacked NOTs exceed kMaxExpressionDepth; the guard must fire from
  // an iterative scan, before any recursive optimizer pass can blow the
  // real call stack.
  perm::FilterExprPtr expr = tpDstLeaf(80);
  for (int i = 0; i < 5000; ++i) expr = perm::FilterExpr::negate(expr);
  perm::PermissionSet set;
  set.grant(perm::Token::kInsertFlow, expr);
  EXPECT_THROW(CompiledPermissions{set}, std::length_error);
}

TEST(CompiledPermissions, OptimizerFoldsConstantsAndDuplicates) {
  // STUB literals are constant-false, duplicated literals collapse: the
  // whole program folds to a single constant instruction.
  perm::FilterExprPtr stub = perm::FilterExpr::singleton(
      perm::FilterPtr{new perm::StubFilter("X")});
  perm::PermissionSet set;
  set.grant(perm::Token::kInsertFlow,
            perm::FilterExpr::conj(tpDstLeaf(80),
                                   perm::FilterExpr::conj(stub, tpDstLeaf(80))));
  CompiledPermissions compiled(set);
  EXPECT_EQ(compiled.programLength(perm::Token::kInsertFlow), 1u);
  EXPECT_FALSE(compiled.check(ApiCall::insertFlow(1, 1, modTo("10.0.0.1"))).allowed);
}

}  // namespace
}  // namespace sdnshield::engine
