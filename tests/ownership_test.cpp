#include "core/engine/ownership.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

namespace sdnshield::engine {
namespace {

// The linear tracker the index replaced, kept as the oracle for the
// differential test: one vector of records, every query a full scan.
class ReferenceTracker {
 public:
  struct Record {
    of::DatapathId dpid = 0;
    of::FlowMatch match;
    std::uint16_t priority = 0;
    of::AppId owner = 0;
  };

  void recordInsert(of::AppId app, of::DatapathId dpid,
                    const of::FlowMatch& match, std::uint16_t priority) {
    for (Record& record : records_) {
      if (record.dpid == dpid && record.priority == priority &&
          record.match == match) {
        record.owner = app;
        return;
      }
    }
    records_.push_back(Record{dpid, match, priority, app});
  }

  void recordDelete(of::DatapathId dpid, const of::FlowMatch& match,
                    std::optional<std::uint16_t> priority, bool strict) {
    std::erase_if(records_, [&](const Record& record) {
      if (record.dpid != dpid) return false;
      if (strict) {
        return priority && record.priority == *priority &&
               record.match == match;
      }
      return match.subsumes(record.match);
    });
  }

  std::optional<of::AppId> ownerOf(of::DatapathId dpid,
                                   const of::FlowMatch& match,
                                   std::uint16_t priority) const {
    for (const Record& record : records_) {
      if (record.dpid == dpid && record.priority == priority &&
          record.match == match) {
        return record.owner;
      }
    }
    return std::nullopt;
  }

  bool ownsAllMatching(of::AppId app, of::DatapathId dpid,
                       const of::FlowMatch& pattern) const {
    return std::all_of(records_.begin(), records_.end(),
                       [&](const Record& record) {
                         return record.dpid != dpid ||
                                !pattern.subsumes(record.match) ||
                                record.owner == app;
                       });
  }

  bool overridesForeignFlow(of::AppId app, of::DatapathId dpid,
                            const of::FlowMatch& match,
                            std::uint16_t priority) const {
    return std::any_of(records_.begin(), records_.end(),
                       [&](const Record& record) {
                         return record.dpid == dpid && record.owner != app &&
                                record.priority <= priority &&
                                record.match.overlaps(match);
                       });
  }

  std::size_t countFor(of::AppId app, of::DatapathId dpid) const {
    return static_cast<std::size_t>(
        std::count_if(records_.begin(), records_.end(),
                      [&](const Record& record) {
                        return record.owner == app && record.dpid == dpid;
                      }));
  }

  std::size_t totalTracked() const { return records_.size(); }
  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

of::FlowMatch dstMatch(const char* ip) {
  of::FlowMatch match;
  match.ipDst = of::MaskedIpv4{of::Ipv4Address::parse(ip)};
  return match;
}

TEST(OwnershipTracker, RecordsAndLooksUpOwner) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  EXPECT_EQ(tracker.ownerOf(1, dstMatch("10.0.0.1"), 10), 7u);
  EXPECT_FALSE(tracker.ownerOf(1, dstMatch("10.0.0.2"), 10).has_value());
  EXPECT_FALSE(tracker.ownerOf(2, dstMatch("10.0.0.1"), 10).has_value());
  EXPECT_FALSE(tracker.ownerOf(1, dstMatch("10.0.0.1"), 11).has_value());
}

TEST(OwnershipTracker, ReinsertTransfersOwnership) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  tracker.recordInsert(8, 1, dstMatch("10.0.0.1"), 10);
  EXPECT_EQ(tracker.ownerOf(1, dstMatch("10.0.0.1"), 10), 8u);
  EXPECT_EQ(tracker.totalTracked(), 1u);
}

TEST(OwnershipTracker, StrictDeleteRemovesExactEntry) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  tracker.recordDelete(1, dstMatch("10.0.0.1"), 11, /*strict=*/true);
  EXPECT_EQ(tracker.totalTracked(), 1u);  // Wrong priority: kept.
  tracker.recordDelete(1, dstMatch("10.0.0.1"), 10, /*strict=*/true);
  EXPECT_EQ(tracker.totalTracked(), 0u);
}

TEST(OwnershipTracker, NonStrictDeleteRemovesSubsumed) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  tracker.recordInsert(7, 1, dstMatch("10.0.0.2"), 20);
  tracker.recordInsert(7, 2, dstMatch("10.0.0.1"), 10);
  tracker.recordDelete(1, of::FlowMatch::any(), std::nullopt, false);
  EXPECT_EQ(tracker.totalTracked(), 1u);  // Only dpid 2 survives.
  EXPECT_EQ(tracker.countFor(7, 2), 1u);
}

TEST(OwnershipTracker, OwnsAllMatchingSemantics) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  tracker.recordInsert(8, 1, dstMatch("10.0.0.2"), 10);
  of::FlowMatch all = of::FlowMatch::any();
  EXPECT_FALSE(tracker.ownsAllMatching(7, 1, all));
  EXPECT_TRUE(tracker.ownsAllMatching(7, 1, dstMatch("10.0.0.1")));
  EXPECT_FALSE(tracker.ownsAllMatching(7, 1, dstMatch("10.0.0.2")));
  // Vacuously true when nothing matches.
  EXPECT_TRUE(tracker.ownsAllMatching(7, 1, dstMatch("10.0.0.9")));
  EXPECT_TRUE(tracker.ownsAllMatching(7, 9, all));
}

TEST(OwnershipTracker, OverridesForeignFlowDetection) {
  OwnershipTracker tracker;
  // Firewall (app 2) drops TCP:23 at priority 100.
  of::FlowMatch fw;
  fw.ipProto = 6;
  fw.tpDst = 23;
  tracker.recordInsert(2, 1, fw, 100);
  // A same-or-higher-priority overlapping insert by app 3 overrides it.
  of::FlowMatch overlap;
  overlap.tpDst = 23;
  EXPECT_TRUE(tracker.overridesForeignFlow(3, 1, overlap, 120));
  // Lower priority does not shadow the firewall rule.
  EXPECT_FALSE(tracker.overridesForeignFlow(3, 1, overlap, 50));
  // Disjoint traffic does not override.
  of::FlowMatch disjoint;
  disjoint.tpDst = 80;
  EXPECT_FALSE(tracker.overridesForeignFlow(3, 1, disjoint, 120));
  // The firewall app itself may refresh its own rule.
  EXPECT_FALSE(tracker.overridesForeignFlow(2, 1, overlap, 120));
  // Other switches are unaffected.
  EXPECT_FALSE(tracker.overridesForeignFlow(3, 2, overlap, 120));
}

TEST(OwnershipTracker, CountsPerAppPerSwitch) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  tracker.recordInsert(7, 1, dstMatch("10.0.0.2"), 10);
  tracker.recordInsert(7, 2, dstMatch("10.0.0.3"), 10);
  tracker.recordInsert(8, 1, dstMatch("10.0.0.4"), 10);
  EXPECT_EQ(tracker.countFor(7, 1), 2u);
  EXPECT_EQ(tracker.countFor(7, 2), 1u);
  EXPECT_EQ(tracker.countFor(8, 1), 1u);
  EXPECT_EQ(tracker.countFor(9, 1), 0u);
}

TEST(OwnershipTracker, ClearResets) {
  OwnershipTracker tracker;
  tracker.recordInsert(7, 1, dstMatch("10.0.0.1"), 10);
  tracker.clear();
  EXPECT_EQ(tracker.totalTracked(), 0u);
}

TEST(OwnershipTracker, MaskedIpKeysIgnoreDontCareBits) {
  OwnershipTracker tracker;
  of::FlowMatch a;
  a.ipDst = of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 1),
                           of::Ipv4Address(255, 255, 255, 0)};
  of::FlowMatch b = a;
  b.ipDst->value = of::Ipv4Address(10, 0, 0, 77);  // Same predicate.
  ASSERT_EQ(a, b);
  tracker.recordInsert(7, 1, a, 10);
  EXPECT_EQ(tracker.ownerOf(1, b, 10), 7u);
  tracker.recordInsert(8, 1, b, 10);  // Re-insert: transfers, adds nothing.
  EXPECT_EQ(tracker.totalTracked(), 1u);
  EXPECT_EQ(tracker.countFor(7, 1), 0u);
  EXPECT_EQ(tracker.countFor(8, 1), 1u);
  tracker.recordDelete(1, b, 10, /*strict=*/true);
  EXPECT_EQ(tracker.totalTracked(), 0u);
}

// Random operations over 4 apps and 3 switches, every query checked
// against the linear reference after each step.
TEST(OwnershipTracker, AgreesWithLinearReference) {
  std::mt19937 rng(20160628);
  auto pick = [&rng](auto&& values) {
    return values[std::uniform_int_distribution<std::size_t>(
        0, std::size(values) - 1)(rng)];
  };
  auto chance = [&rng](int percent) {
    return std::uniform_int_distribution<int>(0, 99)(rng) < percent;
  };
  const std::uint32_t kMasks[] = {0xffffffffu, 0xffffff00u, 0xffff0000u,
                                  0xff00ff00u, 0u};
  const std::uint16_t kPriorities[] = {0, 10, 10, 100, 65535};
  const of::AppId kApps[] = {1, 2, 3, 4};
  const of::DatapathId kDpids[] = {1, 2, 3};
  // Few distinct values so keys collide, nest and overlap. Value bits
  // outside the mask are random, so equal predicates differ in their bytes.
  auto randomIp = [&] {
    std::uint32_t mask = pick(kMasks);
    std::uint32_t base = 0x0a000000u | (pick(std::array{0u, 1u}) << 8) |
                         pick(std::array{1u, 2u, 3u});
    std::uint32_t noise = std::uniform_int_distribution<std::uint32_t>()(rng);
    return of::MaskedIpv4{of::Ipv4Address((base & mask) | (noise & ~mask)),
                          of::Ipv4Address(mask)};
  };
  auto randomMatch = [&] {
    of::FlowMatch match;
    if (chance(20)) return match;  // Wildcard-all.
    if (chance(40)) match.inPort = pick(std::array{1u, 2u});
    if (chance(30)) {
      match.ethDst = of::MacAddress::fromUint64(pick(std::array{1, 2}));
    }
    if (chance(50)) match.ethType = 0x0800;
    if (chance(30)) match.ipSrc = randomIp();
    if (chance(60)) match.ipDst = randomIp();
    if (chance(40)) match.ipProto = 6;
    if (chance(40)) match.tpDst = pick(std::array<std::uint16_t, 3>{22, 23, 80});
    return match;
  };
  // The same predicate as @p match with its don't-care IP bits re-rolled.
  auto reencode = [&](of::FlowMatch match) {
    for (auto* ip : {&match.ipSrc, &match.ipDst}) {
      if (!*ip) continue;
      std::uint32_t mask = (*ip)->mask.value();
      std::uint32_t noise = std::uniform_int_distribution<std::uint32_t>()(rng);
      (*ip)->value = of::Ipv4Address(((*ip)->value.value() & mask) |
                                     (noise & ~mask));
    }
    return match;
  };

  OwnershipTracker tracker;
  ReferenceTracker reference;
  auto insert = [&](auto... args) {
    tracker.recordInsert(args...);
    reference.recordInsert(args...);
  };
  auto remove = [&](auto... args) {
    tracker.recordDelete(args...);
    reference.recordDelete(args...);
  };
  auto installed = [&] {
    const auto& records = reference.records();
    return records[std::uniform_int_distribution<std::size_t>(
        0, records.size() - 1)(rng)];
  };
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(step);
    of::DatapathId dpid = pick(kDpids);
    bool any = reference.totalTracked() > 0;
    int op = std::uniform_int_distribution<int>(0, 99)(rng);
    if (op < 40) {
      insert(pick(kApps), dpid, randomMatch(), pick(kPriorities));
    } else if (op < 55 && any) {  // Re-insert: may transfer ownership.
      auto record = installed();
      insert(pick(kApps), record.dpid, reencode(record.match),
             record.priority);
    } else if (op < 70 && any) {
      auto record = installed();
      std::optional<std::uint16_t> priority = record.priority;
      if (chance(10)) priority = std::nullopt;
      if (chance(10)) priority = pick(kPriorities);
      remove(record.dpid, reencode(record.match), priority, true);
    } else if (op < 75) {
      remove(dpid, randomMatch(), std::optional(pick(kPriorities)), true);
    } else if (op < 85) {
      remove(dpid, randomMatch(), std::optional<std::uint16_t>(), false);
    }

    ASSERT_EQ(tracker.totalTracked(), reference.totalTracked());
    if (reference.totalTracked() > 0) {
      auto record = installed();
      of::FlowMatch match = reencode(record.match);
      ASSERT_EQ(tracker.ownerOf(record.dpid, match, record.priority),
                reference.ownerOf(record.dpid, match, record.priority));
    }
    of::FlowMatch probe = randomMatch();
    std::uint16_t priority = pick(kPriorities);
    for (of::DatapathId d : {of::DatapathId{1}, of::DatapathId{2},
                             of::DatapathId{3}, of::DatapathId{9}}) {
      ASSERT_EQ(tracker.ownerOf(d, probe, priority),
                reference.ownerOf(d, probe, priority));
      for (of::AppId app : {0u, 1u, 2u, 3u, 4u}) {
        ASSERT_EQ(tracker.countFor(app, d), reference.countFor(app, d));
        ASSERT_EQ(tracker.ownsAllMatching(app, d, probe),
                  reference.ownsAllMatching(app, d, probe));
        ASSERT_EQ(tracker.overridesForeignFlow(app, d, probe, priority),
                  reference.overridesForeignFlow(app, d, probe, priority));
      }
    }
  }
}

TEST(OwnershipTracker, ConcurrentInsertsAndQueries) {
  // Thread t owns tpDst keys t*1000 + [0, 500). It strict-deletes its keys
  // with i % 4 == 3 and re-inserts, as its own app, its neighbour's keys
  // with i % 4 == 0 (never deleted), racing ownership transfer against the
  // neighbour's inserts and the per-app counts against every query.
  OwnershipTracker tracker;
  auto key = [](int t, int i) {
    of::FlowMatch match;
    match.tpDst = static_cast<std::uint16_t>(t * 1000 + i);
    return match;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracker, &key, t] {
      auto app = static_cast<of::AppId>(t + 1);
      int neighbour = (t + 1) % 4;
      for (int i = 0; i < 500; ++i) {
        tracker.recordInsert(app, 1, key(t, i), 10);
        tracker.countFor(app, 1);
        tracker.overridesForeignFlow(app, 1, key(neighbour, i), 10);
        tracker.ownsAllMatching(app, 1, key(neighbour, i));
        if (i % 4 == 0) tracker.recordInsert(app, 1, key(neighbour, i), 10);
        if (i % 4 == 3) tracker.recordDelete(1, key(t, i), 10, true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracker.totalTracked(), 1500u);
  std::size_t counted = 0;
  for (of::AppId app = 1; app <= 4; ++app) counted += tracker.countFor(app, 1);
  EXPECT_EQ(counted, 1500u);
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 500; ++i) {
      auto owner = tracker.ownerOf(1, key(t, i), 10);
      if (i % 4 == 3) {
        EXPECT_FALSE(owner.has_value());
      } else if (i % 4 == 0) {
        ASSERT_TRUE(owner.has_value());
        EXPECT_TRUE(*owner == static_cast<of::AppId>(t + 1) ||
                    *owner == static_cast<of::AppId>((t + 3) % 4 + 1));
      } else {
        EXPECT_EQ(owner, static_cast<of::AppId>(t + 1));
      }
    }
  }
}

}  // namespace
}  // namespace sdnshield::engine
