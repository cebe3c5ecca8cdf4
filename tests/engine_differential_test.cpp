// Randomized differential harness for the filter algebra and the optimized
// permission engine: pins CompiledPermissions' optimizer + branch VM and
// PermissionEngine::check (table pin + program) to the naive tree-walk
// reference (FilterExpr::evaluate), pins CNF/DNF against the same reference,
// and checks Algorithm 1's soundness property over expressions that span
// every filter kind.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/permission_engine.h"
#include "core/perm/interner.h"
#include "core/perm/normal_form.h"
#include "core/perm/permission.h"

namespace sdnshield::engine {
namespace {

using perm::ApiCall;
using perm::ApiCallType;
using perm::CallbackOp;
using perm::FilterExpr;
using perm::FilterExprPtr;
using perm::FilterPtr;
using perm::Token;

using Rng = std::mt19937;

// --- random filters: every singleton kind ------------------------------------

FilterPtr randomFilter(Rng& rng) {
  switch (rng() % 12) {
    case 0: {  // Field predicate, IP form: a /8, /16 or /24 window.
      of::MatchField field =
          rng() % 2 == 0 ? of::MatchField::kIpDst : of::MatchField::kIpSrc;
      int prefix = 8 * static_cast<int>(1 + rng() % 3);
      of::Ipv4Address base(10, static_cast<std::uint8_t>(rng() % 4),
                           static_cast<std::uint8_t>(rng() % 4), 0);
      return FilterPtr{new perm::FieldPredicateFilter(
          field, of::MaskedIpv4{base, of::Ipv4Address::prefixMask(prefix)})};
    }
    case 1: {  // Field predicate, exact-integer form.
      of::MatchField field =
          rng() % 2 == 0 ? of::MatchField::kTpDst : of::MatchField::kEthType;
      std::uint64_t value = field == of::MatchField::kEthType
                                ? (rng() % 2 == 0 ? 0x0800 : 0x0806)
                                : 20 + rng() % 5;
      return FilterPtr{new perm::FieldPredicateFilter(field, value)};
    }
    case 2: {  // Wildcard.
      if (rng() % 2 == 0) {
        return FilterPtr{new perm::WildcardFilter(
            of::MatchField::kIpDst,
            of::Ipv4Address(0, 0, 0, static_cast<std::uint8_t>(rng() % 256)))};
      }
      return FilterPtr{new perm::WildcardFilter(of::MatchField::kTpSrc)};
    }
    case 3:
      switch (rng() % 3) {
        case 0:
          return perm::ActionFilter::drop();
        case 1:
          return perm::ActionFilter::forward();
        default:
          return perm::ActionFilter::modify(of::MatchField::kIpDst);
      }
    case 4:
      return FilterPtr{new perm::OwnershipFilter(rng() % 2 == 0)};
    case 5:
      return FilterPtr{new perm::PriorityFilter(
          rng() % 2 == 0, static_cast<std::uint16_t>((rng() % 5) * 50))};
    case 6:
      return FilterPtr{new perm::TableSizeFilter(rng() % 8)};
    case 7:
      return FilterPtr{new perm::PktOutFilter(rng() % 2 == 0)};
    case 8: {  // Physical topology over a 4-switch universe.
      std::set<of::DatapathId> switches;
      for (of::DatapathId dpid = 1; dpid <= 4; ++dpid) {
        if (rng() % 2 == 0) switches.insert(dpid);
      }
      std::set<perm::PhysicalTopologyFilter::LinkPair> links;
      if (switches.size() >= 2) {
        auto it = switches.begin();
        of::DatapathId a = *it++;
        links.emplace(a, *it);
      }
      return FilterPtr{
          new perm::PhysicalTopologyFilter(std::move(switches), std::move(links))};
    }
    case 9:  // Virtual topology (constant-true marker for the optimizer).
      return FilterPtr{new perm::VirtualTopologyFilter(
          rng() % 2 == 0 ? std::set<of::DatapathId>{}
                         : std::set<of::DatapathId>{1, 2})};
    case 10:
      switch (rng() % 3) {
        case 0:
          return FilterPtr{new perm::CallbackFilter(
              perm::CallbackFilter::Capability::kInterception)};
        case 1:
          return FilterPtr{new perm::CallbackFilter(
              perm::CallbackFilter::Capability::kModifyOrder)};
        default:
          return FilterPtr{new perm::StatisticsFilter(
              static_cast<of::StatsLevel>(rng() % 3))};
      }
    default:  // Stub (constant-false customization macro).
      return FilterPtr{
          new perm::StubFilter("MACRO_" + std::to_string(rng() % 3))};
  }
}

FilterExprPtr randomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng() % 3 == 0) {
    return FilterExpr::singleton(randomFilter(rng));
  }
  switch (rng() % 4) {
    case 0:
    case 1:  // Bias toward conjunction, the common manifest shape.
      return FilterExpr::conj(randomExpr(rng, depth - 1),
                              randomExpr(rng, depth - 1));
    case 2:
      return FilterExpr::disj(randomExpr(rng, depth - 1),
                              randomExpr(rng, depth - 1));
    default:
      return FilterExpr::negate(randomExpr(rng, depth - 1));
  }
}

// --- random API calls: every call shape --------------------------------------

of::FlowMatch randomMatch(Rng& rng) {
  of::FlowMatch match;
  if (rng() % 2 == 0) match.ethType = rng() % 2 == 0 ? 0x0800 : 0x0806;
  if (rng() % 2 == 0) {
    match.ipDst = of::MaskedIpv4{
        of::Ipv4Address(10, static_cast<std::uint8_t>(rng() % 4),
                        static_cast<std::uint8_t>(rng() % 4),
                        static_cast<std::uint8_t>(rng() % 250 + 1)),
        of::Ipv4Address::prefixMask(8 * static_cast<int>(2 + rng() % 3))};
  }
  if (rng() % 3 == 0) {
    match.ipSrc = of::MaskedIpv4{
        of::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(rng() % 250 + 1))};
  }
  if (rng() % 3 == 0) match.tpDst = static_cast<std::uint16_t>(20 + rng() % 5);
  if (rng() % 4 == 0) match.tpSrc = static_cast<std::uint16_t>(rng() % 1024);
  if (rng() % 4 == 0) match.inPort = rng() % 8;
  return match;
}

of::ActionList randomActions(Rng& rng) {
  of::ActionList actions;
  switch (rng() % 4) {
    case 0:
      actions.push_back(of::DropAction{});
      break;
    case 1:
      actions.push_back(of::OutputAction{static_cast<of::PortNo>(rng() % 8)});
      break;
    case 2: {
      of::SetFieldAction set;
      set.field =
          rng() % 2 == 0 ? of::MatchField::kIpDst : of::MatchField::kIpSrc;
      set.ipValue = of::Ipv4Address(10, 0, 0, 1);
      actions.push_back(set);
      actions.push_back(of::OutputAction{1});
      break;
    }
    default:
      actions.push_back(of::OutputAction{1});
      actions.push_back(of::OutputAction{2});
      break;
  }
  return actions;
}

ApiCall randomCall(Rng& rng, of::AppId app) {
  static constexpr ApiCallType kTypes[] = {
      ApiCallType::kInsertFlow,       ApiCallType::kModifyFlow,
      ApiCallType::kDeleteFlow,       ApiCallType::kReadFlowTable,
      ApiCallType::kSubscribeFlowEvent, ApiCallType::kReadTopology,
      ApiCallType::kModifyTopology,   ApiCallType::kSubscribeTopologyEvent,
      ApiCallType::kReadStatistics,   ApiCallType::kSubscribeErrorEvent,
      ApiCallType::kReadPayload,      ApiCallType::kSendPacketOut,
      ApiCallType::kSubscribePacketIn, ApiCallType::kHostNetworkAccess,
      ApiCallType::kFileSystemAccess, ApiCallType::kProcessRuntimeAccess,
  };
  ApiCall call;
  call.type = kTypes[rng() % std::size(kTypes)];
  call.app = app;
  if (rng() % 2 == 0) call.dpid = 1 + rng() % 4;
  if (rng() % 4 != 0) call.match = randomMatch(rng);
  if (rng() % 2 == 0) call.actions = randomActions(rng);
  if (rng() % 2 == 0) call.priority = static_cast<std::uint16_t>(rng() % 250);
  call.ownFlow = rng() % 2 == 0;
  if (rng() % 3 == 0) call.ruleCountAfter = rng() % 10;
  if (rng() % 3 == 0) call.statsLevel = static_cast<of::StatsLevel>(rng() % 3);
  call.pktOutFromPacketIn = rng() % 2 == 0;
  if (rng() % 4 == 0) call.callbackOp = static_cast<CallbackOp>(rng() % 3);
  if (rng() % 3 == 0) {
    call.topoSwitches.push_back(1 + rng() % 4);
    if (rng() % 2 == 0) call.topoLinks.emplace_back(1 + rng() % 2, 3);
  }
  if (rng() % 4 == 0) {
    call.remoteIp = of::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng() % 4),
                                    static_cast<std::uint8_t>(rng() % 250 + 1));
    call.remotePort = static_cast<std::uint16_t>(20 + rng() % 5);
  }
  if (rng() % 5 == 0) call.path = "/tmp/app" + std::to_string(rng() % 3);
  return call;
}

/// The naive reference the engine must agree with: token gate + recursive
/// tree walk over the uncompiled, unoptimized expression.
Decision referenceCheck(const perm::PermissionSet& permissions,
                        const ApiCall& call) {
  Token token = perm::requiredToken(call.type);
  std::optional<FilterExprPtr> filter = permissions.filterFor(token);
  if (!filter) return Decision::deny("token missing");
  if (!*filter) return Decision::allow();  // Unrestricted grant.
  return (*filter)->evaluate(call) ? Decision::allow()
                                   : Decision::deny("filter rejected");
}

perm::PermissionSet randomPermissionSet(Rng& rng) {
  perm::PermissionSet set;
  std::size_t grants = 1 + rng() % 5;
  for (std::size_t i = 0; i < grants; ++i) {
    Token token = perm::kAllTokens[rng() % std::size(perm::kAllTokens)];
    // 1 in 8 grants is unrestricted; the rest carry a random filter tree.
    set.grant(token, rng() % 8 == 0 ? nullptr : randomExpr(rng, 5));
  }
  return set;
}

// --- differential: optimized engine vs naive reference -----------------------

class EngineDifferentialTest : public ::testing::TestWithParam<unsigned> {};

// ≥5,000 (permission set, call) pairs across the 10 seeds: 10 x 25 sets x
// 25 calls = 6,250 compiled-path comparisons, plus the same pairs again
// through PermissionEngine (each call issued twice).
TEST_P(EngineDifferentialTest, CompiledCheckMatchesNaiveTreeWalk) {
  Rng rng(GetParam());
  for (int setIdx = 0; setIdx < 25; ++setIdx) {
    perm::PermissionSet permissions = randomPermissionSet(rng);
    CompiledPermissions compiled(permissions);
    for (int callIdx = 0; callIdx < 25; ++callIdx) {
      ApiCall call = randomCall(rng, 1);
      Decision expected = referenceCheck(permissions, call);
      Decision actual = compiled.check(call);
      ASSERT_EQ(actual.allowed, expected.allowed)
          << "set=" << permissions.toString() << "\ncall=" << call.toString();
    }
  }
}

TEST_P(EngineDifferentialTest, EngineCheckMatchesNaiveTreeWalk) {
  Rng rng(GetParam() + 10'000);
  PermissionEngine engine;
  for (int setIdx = 0; setIdx < 25; ++setIdx) {
    perm::PermissionSet permissions = randomPermissionSet(rng);
    constexpr of::AppId kApp = 3;
    engine.install(kApp, permissions);
    for (int callIdx = 0; callIdx < 25; ++callIdx) {
      ApiCall call = randomCall(rng, kApp);
      Decision expected = referenceCheck(permissions, call);
      // Twice: the second check runs on the pin the first one took, and a
      // pin surviving the reinstall above would be caught here too.
      for (int repeat = 0; repeat < 2; ++repeat) {
        Decision actual = engine.check(call);
        ASSERT_EQ(actual.allowed, expected.allowed)
            << "repeat=" << repeat << " set=" << permissions.toString()
            << "\ncall=" << call.toString();
      }
    }
  }
}

// --- differential: normal forms vs naive reference ---------------------------

TEST_P(EngineDifferentialTest, NormalFormsMatchNaiveTreeWalk) {
  Rng rng(GetParam() + 20'000);
  for (int exprIdx = 0; exprIdx < 20; ++exprIdx) {
    FilterExprPtr expr = randomExpr(rng, 5);
    perm::Cnf cnf = perm::toCnf(expr);
    perm::Dnf dnf = perm::toDnf(expr);
    for (int callIdx = 0; callIdx < 25; ++callIdx) {
      ApiCall call = randomCall(rng, 1);
      bool expected = expr->evaluate(call);
      ASSERT_EQ(cnf.evaluate(call), expected) << "expr=" << expr->toString();
      ASSERT_EQ(dnf.evaluate(call), expected) << "expr=" << expr->toString();
    }
  }
}

/// Soundness property from normal_form.h: a positive inclusion verdict must
/// never be contradicted by a sampled call that @p sub allows and @p super
/// rejects.
void expectSoundInclusion(const FilterExprPtr& super, const FilterExprPtr& sub,
                          Rng& rng) {
  if (!perm::filterIncludes(super, sub)) return;
  for (int callIdx = 0; callIdx < 50; ++callIdx) {
    ApiCall call = randomCall(rng, 1);
    if (sub->evaluate(call)) {
      ASSERT_TRUE(super->evaluate(call))
          << "super=" << super->toString() << "\nsub=" << sub->toString()
          << "\ncall=" << call.toString();
    }
  }
}

// Pairs in relation by construction, over every filter kind: a ⊇ a AND g
// and a OR g ⊇ a, each in both operand orders. Algorithm 1 must find every
// pair, and a positive verdict in either direction must survive the
// sampled calls — the reverse direction is what catches a clause scan that
// skips a clause.
TEST_P(EngineDifferentialTest, InclusionVerdictIsSoundOverAllFilterKinds) {
  Rng rng(GetParam() + 30'000);
  for (int pairIdx = 0; pairIdx < 10; ++pairIdx) {
    FilterExprPtr a = randomExpr(rng, 3);
    FilterExprPtr g = randomExpr(rng, 3);
    const std::pair<FilterExprPtr, FilterExprPtr> pairs[] = {
        {a, FilterExpr::conj(a, g)},
        {a, FilterExpr::conj(g, a)},
        {FilterExpr::disj(a, g), a},
        {FilterExpr::disj(g, a), a},
    };
    for (const auto& [super, sub] : pairs) {
      EXPECT_TRUE(perm::filterIncludes(super, sub))
          << "super=" << super->toString() << "\nsub=" << sub->toString();
      expectSoundInclusion(super, sub, rng);
      expectSoundInclusion(sub, super, rng);
    }
  }
}

// The interner must never merge filters that differ semantically: two
// interned filters compare equal exactly when equals() says so.
TEST_P(EngineDifferentialTest, InternerPreservesSemantics) {
  Rng rng(GetParam() + 40'000);
  std::vector<FilterPtr> interned;
  for (int i = 0; i < 60; ++i) {
    interned.push_back(perm::FilterInterner::global().intern(randomFilter(rng)));
  }
  for (const FilterPtr& a : interned) {
    for (const FilterPtr& b : interned) {
      ASSERT_EQ(a.get() == b.get(), a->equals(*b))
          << "a=" << a->toString() << " b=" << b->toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Range(0u, 10u));

}  // namespace
}  // namespace sdnshield::engine
