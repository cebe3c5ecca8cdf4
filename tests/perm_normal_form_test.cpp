// CNF/DNF conversion and Algorithm 1 (filter inclusion): unit cases from the
// paper plus property tests — normal forms must preserve semantics on random
// expressions, and a positive inclusion verdict must never contradict
// observed evaluation (soundness).
#include "core/perm/normal_form.h"

#include <gtest/gtest.h>

#include <random>

namespace sdnshield::perm {
namespace {

FilterExprPtr ipDst(std::uint8_t b, int bits) {
  return FilterExpr::singleton(FilterPtr{new FieldPredicateFilter(
      of::MatchField::kIpDst,
      of::MaskedIpv4{of::Ipv4Address(10, b, 0, 0),
                     of::Ipv4Address::prefixMask(bits)})});
}

FilterExprPtr maxPriority(std::uint16_t bound) {
  return FilterExpr::singleton(FilterPtr{new PriorityFilter(true, bound)});
}

FilterExprPtr ownFlows() {
  return FilterExpr::singleton(FilterPtr{new OwnershipFilter(true)});
}

ApiCall makeCall(std::uint8_t subnet, std::uint8_t host,
                 std::uint16_t priority, bool own) {
  of::FlowMod mod;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address(10, subnet, 0, host)};
  mod.priority = priority;
  mod.actions.push_back(of::OutputAction{1});
  ApiCall call = ApiCall::insertFlow(1, 1, mod);
  call.ownFlow = own;
  return call;
}

TEST(NormalForm, CnfOfSingletonIsOneUnitClause) {
  Cnf cnf = toCnf(ipDst(1, 16));
  ASSERT_EQ(cnf.clauses.size(), 1u);
  EXPECT_EQ(cnf.clauses[0].size(), 1u);
  EXPECT_FALSE(cnf.clauses[0][0].negated);
}

TEST(NormalForm, CnfDistributesOrOverAnd) {
  // (a AND b) OR c -> (a OR c) AND (b OR c).
  FilterExprPtr expr = FilterExpr::disj(
      FilterExpr::conj(ipDst(1, 16), maxPriority(10)), ownFlows());
  Cnf cnf = toCnf(expr);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0].size(), 2u);
  EXPECT_EQ(cnf.clauses[1].size(), 2u);
}

TEST(NormalForm, DnfDistributesAndOverOr) {
  // (a OR b) AND c -> (a AND c) OR (b AND c).
  FilterExprPtr expr = FilterExpr::conj(
      FilterExpr::disj(ipDst(1, 16), ipDst(2, 16)), maxPriority(10));
  Dnf dnf = toDnf(expr);
  ASSERT_EQ(dnf.clauses.size(), 2u);
  EXPECT_EQ(dnf.clauses[0].size(), 2u);
}

TEST(NormalForm, NegationPushesToLiterals) {
  // NOT (a AND b) -> (!a OR !b): one CNF clause of two negated literals.
  FilterExprPtr expr =
      FilterExpr::negate(FilterExpr::conj(ipDst(1, 16), maxPriority(10)));
  Cnf cnf = toCnf(expr);
  ASSERT_EQ(cnf.clauses.size(), 1u);
  ASSERT_EQ(cnf.clauses[0].size(), 2u);
  EXPECT_TRUE(cnf.clauses[0][0].negated);
  EXPECT_TRUE(cnf.clauses[0][1].negated);
}

TEST(NormalForm, DoubleNegationCancels) {
  FilterExprPtr expr = FilterExpr::negate(FilterExpr::negate(ipDst(1, 16)));
  Dnf dnf = toDnf(expr);
  ASSERT_EQ(dnf.clauses.size(), 1u);
  EXPECT_FALSE(dnf.clauses[0][0].negated);
}

TEST(NormalForm, ContradictoryDnfClauseIsPruned) {
  // a AND NOT a is unsatisfiable.
  FilterExprPtr a = ipDst(1, 16);
  FilterExprPtr expr = FilterExpr::conj(a, FilterExpr::negate(ipDst(1, 16)));
  Dnf dnf = toDnf(expr);
  EXPECT_TRUE(dnf.clauses.empty());
}

TEST(NormalForm, TautologicalCnfClauseIsPruned) {
  FilterExprPtr expr = FilterExpr::disj(ipDst(1, 16),
                                        FilterExpr::negate(ipDst(1, 16)));
  Cnf cnf = toCnf(expr);
  EXPECT_TRUE(cnf.clauses.empty());  // Empty CNF = true.
}

TEST(LiteralInclusion, PositivePairsUseFilterInclusion) {
  Literal wide{FilterPtr{new FieldPredicateFilter(
                   of::MatchField::kIpDst,
                   of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 0),
                                  of::Ipv4Address::prefixMask(8)})},
               false};
  Literal narrow{FilterPtr{new FieldPredicateFilter(
                     of::MatchField::kIpDst,
                     of::MaskedIpv4{of::Ipv4Address(10, 1, 0, 0),
                                    of::Ipv4Address::prefixMask(16)})},
                 false};
  EXPECT_TRUE(literalIncludes(wide, narrow));
  EXPECT_FALSE(literalIncludes(narrow, wide));
}

TEST(LiteralInclusion, NegatedPairsReverse) {
  Literal wide{FilterPtr{new FieldPredicateFilter(
                   of::MatchField::kIpDst,
                   of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 0),
                                  of::Ipv4Address::prefixMask(8)})},
               true};
  Literal narrow{FilterPtr{new FieldPredicateFilter(
                     of::MatchField::kIpDst,
                     of::MaskedIpv4{of::Ipv4Address(10, 1, 0, 0),
                                    of::Ipv4Address::prefixMask(16)})},
                 true};
  // ¬(10.0/8) ⊆ ¬(10.1/16), so inclusion holds with narrow as superset.
  EXPECT_TRUE(literalIncludes(narrow, wide));
  EXPECT_FALSE(literalIncludes(wide, narrow));
}

TEST(LiteralInclusion, MixedPolarityIsConservativelyFalse) {
  Literal pos{FilterPtr{new OwnershipFilter(false)}, false};
  Literal neg{FilterPtr{new OwnershipFilter(true)}, true};
  EXPECT_FALSE(literalIncludes(pos, neg));
  EXPECT_FALSE(literalIncludes(neg, pos));
}

TEST(FilterIncludes, PaperExampleSlash24InsideSlash16) {
  // An insert_flow on 10.13/16 includes the same permission on 10.13.1/24.
  FilterExprPtr wide = ipDst(13, 16);
  FilterExprPtr narrow = FilterExpr::singleton(
      FilterPtr{new FieldPredicateFilter(
          of::MatchField::kIpDst,
          of::MaskedIpv4{of::Ipv4Address(10, 13, 1, 0),
                         of::Ipv4Address::prefixMask(24)})});
  EXPECT_TRUE(filterIncludes(wide, narrow));
  EXPECT_FALSE(filterIncludes(narrow, wide));
}

TEST(FilterIncludes, NullSupersetIsUnrestricted) {
  EXPECT_TRUE(filterIncludes(nullptr, ipDst(1, 16)));
  EXPECT_TRUE(filterIncludes(nullptr, nullptr));
  EXPECT_FALSE(filterIncludes(ipDst(1, 16), nullptr));
}

TEST(FilterIncludes, DisjunctionWidensConjunctionNarrows) {
  FilterExprPtr base = ipDst(1, 16);
  FilterExprPtr wider = FilterExpr::disj(ipDst(1, 16), ipDst(2, 16));
  FilterExprPtr narrower = FilterExpr::conj(ipDst(1, 16), maxPriority(10));
  EXPECT_TRUE(filterIncludes(wider, base));
  EXPECT_TRUE(filterIncludes(base, narrower));
  EXPECT_TRUE(filterIncludes(wider, narrower));
  EXPECT_FALSE(filterIncludes(narrower, wider));
}

TEST(FilterIncludes, CrossDimensionIsIncomparable) {
  EXPECT_FALSE(filterIncludes(ipDst(1, 16), maxPriority(10)));
  EXPECT_FALSE(filterIncludes(maxPriority(10), ipDst(1, 16)));
}

TEST(FilterIncludes, MultiClauseCase) {
  // (A16 AND P100) OR (B16 AND P100)  includes  (A24 AND P50).
  auto a16 = ipDst(1, 16);
  auto b16 = ipDst(2, 16);
  FilterExprPtr super = FilterExpr::disj(
      FilterExpr::conj(a16, maxPriority(100)),
      FilterExpr::conj(b16, maxPriority(100)));
  FilterExprPtr a24 = FilterExpr::singleton(
      FilterPtr{new FieldPredicateFilter(
          of::MatchField::kIpDst,
          of::MaskedIpv4{of::Ipv4Address(10, 1, 5, 0),
                         of::Ipv4Address::prefixMask(24)})});
  FilterExprPtr sub = FilterExpr::conj(a24, maxPriority(50));
  EXPECT_TRUE(filterIncludes(super, sub));
  EXPECT_FALSE(filterIncludes(sub, super));
}

TEST(FilterEquivalent, CommutedOperandsAreEquivalent) {
  FilterExprPtr a = FilterExpr::conj(ipDst(1, 16), maxPriority(10));
  FilterExprPtr b = FilterExpr::conj(maxPriority(10), ipDst(1, 16));
  EXPECT_TRUE(filterEquivalent(a, b));
  EXPECT_TRUE(filterEquivalent(nullptr, nullptr));
  EXPECT_FALSE(filterEquivalent(a, nullptr));
}

// --- property tests ------------------------------------------------------------

class NormalFormPropertyTest : public ::testing::TestWithParam<unsigned> {};

FilterExprPtr randomExpr(std::mt19937& rng, int depth) {
  if (depth == 0 || rng() % 3 == 0) {
    switch (rng() % 3) {
      case 0:
        return ipDst(static_cast<std::uint8_t>(rng() % 3), 16);
      case 1:
        return maxPriority(static_cast<std::uint16_t>((rng() % 3) * 50));
      default:
        return ownFlows();
    }
  }
  switch (rng() % 3) {
    case 0:
      return FilterExpr::conj(randomExpr(rng, depth - 1),
                              randomExpr(rng, depth - 1));
    case 1:
      return FilterExpr::disj(randomExpr(rng, depth - 1),
                              randomExpr(rng, depth - 1));
    default:
      return FilterExpr::negate(randomExpr(rng, depth - 1));
  }
}

ApiCall randomCall(std::mt19937& rng) {
  return makeCall(static_cast<std::uint8_t>(rng() % 4),
                  static_cast<std::uint8_t>(rng() % 250 + 1),
                  static_cast<std::uint16_t>(rng() % 200), rng() % 2 == 0);
}

TEST_P(NormalFormPropertyTest, CnfPreservesSemantics) {
  std::mt19937 rng(GetParam());
  FilterExprPtr expr = randomExpr(rng, 4);
  Cnf cnf = toCnf(expr);
  for (int i = 0; i < 100; ++i) {
    ApiCall call = randomCall(rng);
    EXPECT_EQ(cnf.evaluate(call), expr->evaluate(call))
        << "expr=" << expr->toString() << " cnf=" << cnf.toString();
  }
}

TEST_P(NormalFormPropertyTest, DnfPreservesSemantics) {
  std::mt19937 rng(GetParam() + 500);
  FilterExprPtr expr = randomExpr(rng, 4);
  Dnf dnf = toDnf(expr);
  for (int i = 0; i < 100; ++i) {
    ApiCall call = randomCall(rng);
    EXPECT_EQ(dnf.evaluate(call), expr->evaluate(call))
        << "expr=" << expr->toString() << " dnf=" << dnf.toString();
  }
}

/// A positive inclusion verdict must never be contradicted by an observed
/// call that @p sub allows and @p super rejects.
void expectSoundInclusion(const FilterExprPtr& super, const FilterExprPtr& sub,
                          std::mt19937& rng) {
  if (!filterIncludes(super, sub)) return;
  for (int i = 0; i < 200; ++i) {
    ApiCall call = randomCall(rng);
    if (sub->evaluate(call)) {
      ASSERT_TRUE(super->evaluate(call))
          << "super=" << super->toString() << " sub=" << sub->toString();
    }
  }
}

TEST_P(NormalFormPropertyTest, InclusionVerdictIsSound) {
  // Pairs in relation by construction, sub = super AND g in both operand
  // orders: Algorithm 1 must find them, and a positive verdict in either
  // direction must survive the sampled calls — the reverse direction is
  // what catches a clause scan that skips a clause.
  std::mt19937 rng(GetParam() + 1000);
  FilterExprPtr super = randomExpr(rng, 3);
  FilterExprPtr g = randomExpr(rng, 3);
  for (const FilterExprPtr& sub :
       {FilterExpr::conj(super, g), FilterExpr::conj(g, super)}) {
    EXPECT_TRUE(filterIncludes(super, sub))
        << "super=" << super->toString() << " sub=" << sub->toString();
    expectSoundInclusion(super, sub, rng);
    expectSoundInclusion(sub, super, rng);
  }
}

TEST_P(NormalFormPropertyTest, InclusionIsReflexive) {
  std::mt19937 rng(GetParam() + 2000);
  FilterExprPtr expr = randomExpr(rng, 3);
  EXPECT_TRUE(filterIncludes(expr, expr)) << expr->toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormPropertyTest,
                         ::testing::Range(0u, 30u));

}  // namespace
}  // namespace sdnshield::perm
