#include "core/engine/audit.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <random>
#include <sstream>
#include <thread>

#include "alloc_counter.h"

namespace sdnshield::engine {
namespace {

using perm::ApiCall;

TEST(AuditLog, RecordsAllowAndDeny) {
  AuditLog log;
  log.record(ApiCall::readTopology(1), true);
  log.record(ApiCall::fileSystem(2, "/etc/shadow"), false, "missing token");
  auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].allowed);
  EXPECT_EQ(entries[0].app, 1u);
  EXPECT_FALSE(entries[1].allowed);
  EXPECT_EQ(entries[1].summary, "missing token");
  EXPECT_EQ(log.deniedCount(), 1u);
  EXPECT_EQ(log.totalRecorded(), 2u);
}

TEST(AuditLog, SequenceNumbersAreMonotonic) {
  AuditLog log;
  for (int i = 0; i < 5; ++i) log.record(ApiCall::readTopology(1), true);
  auto entries = log.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].sequence, entries[i - 1].sequence + 1);
  }
}

TEST(AuditLog, RingCapacityBoundsMemory) {
  AuditLog log(10);
  for (int i = 0; i < 25; ++i) log.record(ApiCall::readTopology(1), true);
  EXPECT_EQ(log.entries().size(), 10u);
  EXPECT_EQ(log.totalRecorded(), 25u);
  // The surviving entries are the most recent ones.
  EXPECT_EQ(log.entries().front().sequence, 15u);
}

TEST(AuditLog, FiltersByApp) {
  AuditLog log;
  log.record(ApiCall::readTopology(1), true);
  log.record(ApiCall::readTopology(2), true);
  log.record(ApiCall::readTopology(1), false, "x");
  EXPECT_EQ(log.entriesFor(1).size(), 2u);
  EXPECT_EQ(log.entriesFor(2).size(), 1u);
  EXPECT_EQ(log.entriesFor(3).size(), 0u);
}

TEST(AuditLog, ForensicToStringMentionsDecision) {
  AuditLog log;
  log.record(ApiCall::fileSystem(7, "/tmp/x"), false, "denied by policy");
  std::string text = log.entries()[0].toString();
  EXPECT_NE(text.find("DENY"), std::string::npos);
  EXPECT_NE(text.find("app=7"), std::string::npos);
}

TEST(AuditLog, ClearResetsCounters) {
  AuditLog log;
  log.record(ApiCall::readTopology(1), false, "x");
  log.clear();
  EXPECT_EQ(log.totalRecorded(), 0u);
  EXPECT_EQ(log.deniedCount(), 0u);
  EXPECT_TRUE(log.entries().empty());
}

TEST(AuditLog, DroppedCountTracksEviction) {
  AuditLog log(10);
  EXPECT_EQ(log.droppedCount(), 0u);
  for (int i = 0; i < 25; ++i) log.record(ApiCall::readTopology(1), true);
  EXPECT_EQ(log.droppedCount(), 15u);
  // The retention identity the forensics story depends on.
  EXPECT_EQ(log.totalRecorded() - log.droppedCount(), log.entries().size());
}

TEST(AuditLog, SetCapacityShrinksAndEvictsOldest) {
  AuditLog log;
  for (int i = 0; i < 20; ++i) log.record(ApiCall::readTopology(1), true);
  log.setCapacity(5);
  EXPECT_EQ(log.capacity(), 5u);
  auto entries = log.entries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries.front().sequence, 15u);
  EXPECT_EQ(log.droppedCount(), 15u);
}

TEST(AuditLog, QueriesAtCapacityStaySound) {
  AuditLog log(8);
  for (int i = 0; i < 40; ++i) {
    log.record(ApiCall::readTopology(i % 2 == 0 ? 1 : 2), i % 4 != 0);
  }
  // Per-app queries only see surviving entries, and those stay in sequence
  // order with no gaps beyond eviction.
  auto survivors = log.entries();
  ASSERT_EQ(survivors.size(), 8u);
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[i].sequence, survivors[i - 1].sequence + 1);
  }
  EXPECT_EQ(log.entriesFor(1).size() + log.entriesFor(2).size(), 8u);
  // All-time counters are immune to eviction.
  EXPECT_EQ(log.totalRecorded(), 40u);
  EXPECT_EQ(log.deniedCount(), 10u);
  EXPECT_EQ(log.droppedCount(), 32u);
}

// The cursor read sees the same headers entries() renders, resumes where
// it left off, skips what the ring evicted, and renders nothing: it makes
// no allocation even over entries whose summaries live in spills.
TEST(AuditLog, VisitSinceWalksHeadersFromACursor) {
  AuditLog log(16);
  of::FlowMod mod;
  mod.match.tpDst = 80;
  mod.actions = {of::OutputAction{2}};
  for (int i = 0; i < 10; ++i) {
    if (i % 3 == 0) {
      log.record(ApiCall::fileSystem(2, "/etc/shadow"), false, "no token");
    } else {
      log.record(ApiCall::insertFlow(1, 7, mod), true);
    }
  }
  log.recordFault(3, "handler threw");

  std::vector<AuditRecord> seen;
  auto collect = [&](const AuditRecord& record) { seen.push_back(record); };
  std::uint64_t cursor = log.visitSince(0, collect);
  EXPECT_EQ(cursor, log.totalRecorded());
  std::vector<AuditEntry> rendered = log.entries();
  ASSERT_EQ(seen.size(), rendered.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].sequence, rendered[i].sequence);
    EXPECT_EQ(seen[i].kind, rendered[i].kind);
    EXPECT_EQ(seen[i].app, rendered[i].app);
    EXPECT_EQ(seen[i].callType, rendered[i].callType);
    EXPECT_EQ(seen[i].allowed, rendered[i].allowed);
  }

  seen.clear();
  EXPECT_EQ(log.visitSince(cursor, collect), cursor);
  EXPECT_TRUE(seen.empty());

  // 20 more records wrap the 16-entry ring past the cursor's successors:
  // the visit starts at the oldest survivor and sees the last 16 of them,
  // every other one a denial.
  for (int i = 0; i < 20; ++i) log.record(ApiCall::readTopology(4), i % 2 == 0);
  std::uint64_t denials = 0;
  std::uint64_t first = UINT64_MAX;
  t_allocations = 0;
  t_countAllocations = true;
  cursor = log.visitSince(cursor, [&](const AuditRecord& record) {
    first = std::min(first, record.sequence);
    denials += record.kind == AuditKind::kApiCall && !record.allowed;
  });
  t_countAllocations = false;
  EXPECT_EQ(t_allocations, 0u);
  EXPECT_EQ(first, log.droppedCount());
  EXPECT_EQ(denials, 8u);
  EXPECT_EQ(cursor, log.totalRecorded());
}

TEST(AuditLog, ClearResetsDroppedCount) {
  AuditLog log(2);
  for (int i = 0; i < 6; ++i) log.record(ApiCall::readTopology(1), true);
  EXPECT_EQ(log.droppedCount(), 4u);
  log.clear();
  EXPECT_EQ(log.droppedCount(), 0u);
}

TEST(AuditLog, ConcurrentRecordingIsSafe) {
  AuditLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < 1000; ++i) {
        log.record(ApiCall::readTopology(1), i % 2 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(log.totalRecorded(), 4000u);
  EXPECT_EQ(log.deniedCount(), 2000u);
}

// --- format-on-read differential ---------------------------------------------

/// AuditEntry::toString as it was when every entry stored its text at
/// record time; the expected summary is the call's own rendering (allowed)
/// or the reason (denied).
std::string referenceToString(const AuditEntry& entry) {
  std::ostringstream out;
  out << "#" << entry.sequence << " app=" << entry.app << " ";
  switch (entry.kind) {
    case AuditKind::kApiCall:
      out << perm::toString(entry.callType) << " "
          << (entry.allowed ? "ALLOW" : "DENY");
      break;
    case AuditKind::kFault:
      out << "FAULT";
      break;
    case AuditKind::kSupervision:
      out << "SUPERVISION";
      break;
    case AuditKind::kLifecycle:
      out << "LIFECYCLE";
      break;
  }
  if (!entry.summary.empty()) out << " " << entry.summary;
  if (!entry.spanTrail.empty()) out << " trail=[" << entry.spanTrail << "]";
  return out.str();
}

class CallGenerator {
 public:
  explicit CallGenerator(std::uint64_t seed) : rng_(seed) {}

  bool coin(std::uint64_t percent) { return pick(100) < percent; }
  std::uint64_t pick(std::uint64_t bound) { return rng_() % bound; }
  std::uint64_t any() { return rng_(); }

  of::MaskedIpv4 maskedIp() {
    of::MaskedIpv4 ip{of::Ipv4Address{static_cast<std::uint32_t>(any())}};
    switch (pick(3)) {
      case 0:
        break;  // /32
      case 1:
        ip.mask = of::Ipv4Address::prefixMask(static_cast<int>(pick(33)));
        break;
      default:  // Non-prefix mask; the unmasked value bits still render.
        ip.mask = of::Ipv4Address{0x00ff00ffu ^
                                  static_cast<std::uint32_t>(pick(256))};
        break;
    }
    return ip;
  }

  of::FlowMatch match() {
    of::FlowMatch m;
    if (coin(50)) {
      m.inPort = static_cast<of::PortNo>(coin(20) ? any() : pick(64));
    }
    if (coin(50)) m.ethSrc = of::MacAddress::fromUint64(any());
    if (coin(60)) m.ethDst = of::MacAddress::fromUint64(any());
    if (coin(50)) m.ethType = static_cast<std::uint16_t>(any());
    if (coin(30)) m.vlanId = static_cast<std::uint16_t>(pick(4096));
    if (coin(50)) m.ipSrc = maskedIp();
    if (coin(50)) m.ipDst = maskedIp();
    if (coin(40)) m.ipProto = static_cast<std::uint8_t>(any());
    if (coin(40)) m.tpSrc = static_cast<std::uint16_t>(any());
    if (coin(40)) m.tpDst = static_cast<std::uint16_t>(any());
    return m;
  }

  of::Action action() {
    switch (pick(4)) {
      case 0: {
        static constexpr of::PortNo kReserved[] = {
            of::ports::kFlood, of::ports::kController, of::ports::kLocal,
            of::ports::kNone};
        return of::OutputAction{coin(30) ? kReserved[pick(4)]
                                         : static_cast<of::PortNo>(any())};
      }
      case 1:
      case 2: {
        of::SetFieldAction set;
        set.field = static_cast<of::MatchField>(pick(10));
        // Every member is random: only the field's own value may render.
        set.intValue = coin(50) ? any() : pick(65536);
        set.macValue = of::MacAddress::fromUint64(any());
        set.ipValue = of::Ipv4Address{static_cast<std::uint32_t>(any())};
        return set;
      }
      default:
        return of::DropAction{};
    }
  }

  std::string text(std::size_t maxLength) {
    std::string out(pick(maxLength + 1), ' ');
    for (char& c : out) c = static_cast<char>(' ' + pick(95));
    return out;
  }

  ApiCall call() {
    ApiCall call;
    call.type = static_cast<perm::ApiCallType>(
        pick(static_cast<std::uint64_t>(perm::ApiCallType::kMarketAdmin) + 1));
    call.app = static_cast<of::AppId>(1 + pick(5));
    if (coin(70)) call.dpid = coin(20) ? any() : pick(16);
    if (coin(60)) call.match = match();
    if (coin(60)) {
      call.actions.emplace();
      std::uint64_t count = coin(70) ? 1 : pick(5);
      for (std::uint64_t i = 0; i < count; ++i) {
        call.actions->push_back(action());
      }
    }
    if (coin(50)) call.priority = static_cast<std::uint16_t>(any());
    call.ownFlow = coin(50);
    if (coin(20)) call.ruleCountAfter = pick(1000);
    if (coin(20)) call.statsLevel = static_cast<of::StatsLevel>(pick(3));
    call.pktOutFromPacketIn = coin(50);
    if (coin(10)) call.callbackOp = static_cast<perm::CallbackOp>(pick(3));
    if (coin(8)) {
      for (std::uint64_t i = pick(4); i > 0; --i) {
        call.topoSwitches.push_back(any());
      }
      for (std::uint64_t i = pick(3); i > 0; --i) {
        call.topoLinks.emplace_back(pick(16), pick(16));
      }
    }
    if (coin(8)) {
      call.remoteIp = of::Ipv4Address{static_cast<std::uint32_t>(any())};
    }
    if (coin(8)) call.remotePort = static_cast<std::uint16_t>(any());
    if (coin(8)) call.path = text(60);
    return call;
  }

 private:
  std::mt19937_64 rng_;
};

/// Records one random entry into @p log and returns what the log rendered
/// when it kept text: the same kind, decision, summary and trail.
AuditEntry recordRandom(AuditLog& log, CallGenerator& gen) {
  AuditEntry expected;
  expected.app = static_cast<of::AppId>(1 + gen.pick(5));
  std::uint64_t shape = gen.pick(20);
  if (shape < 14) {
    ApiCall call = gen.call();
    expected.app = call.app;
    expected.callType = call.type;
    expected.allowed = gen.coin(70);
    std::string reason = gen.coin(50) ? gen.text(16) : gen.text(400);
    expected.summary = expected.allowed ? call.toString() : reason;
    log.record(call, expected.allowed, reason);
  } else if (shape < 16) {
    expected.kind = AuditKind::kFault;
    expected.summary = gen.text(120);
    log.recordFault(expected.app, expected.summary);
  } else if (shape < 18) {
    expected.kind = AuditKind::kSupervision;
    expected.summary = gen.text(80);
    expected.spanTrail = gen.coin(70) ? gen.text(300) : "";
    log.recordSupervision(expected.app, expected.summary, expected.spanTrail);
  } else {
    expected.kind = AuditKind::kLifecycle;
    expected.summary = gen.text(200);
    log.recordLifecycle(expected.app, expected.summary);
  }
  return expected;
}

void expectSameEntries(const std::vector<AuditEntry>& actual,
                       const std::vector<AuditEntry>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const AuditEntry& got = actual[i];
    const AuditEntry& want = expected[i];
    ASSERT_EQ(got.sequence, want.sequence);
    ASSERT_EQ(got.kind, want.kind) << "#" << want.sequence;
    ASSERT_EQ(got.app, want.app) << "#" << want.sequence;
    ASSERT_EQ(got.callType, want.callType) << "#" << want.sequence;
    ASSERT_EQ(got.allowed, want.allowed) << "#" << want.sequence;
    ASSERT_EQ(got.summary, want.summary);
    ASSERT_EQ(got.spanTrail, want.spanTrail);
    ASSERT_EQ(got.toString(), referenceToString(want));
  }
}

TEST(AuditLogFormat, RenderingOnReadMatchesRecordTimeText) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    CallGenerator gen(seed);
    AuditLog log(300);
    std::deque<AuditEntry> retained;
    std::uint64_t sequence = 0;
    // Wrap several times, shrink below the live size, then grow again.
    for (std::size_t capacity : {300u, 97u, 1u, 0u, 530u, 256u}) {
      log.setCapacity(capacity);
      while (retained.size() > capacity) retained.pop_front();
      for (int i = 0; i < 900; ++i) {
        AuditEntry expected = recordRandom(log, gen);
        expected.sequence = sequence++;
        retained.push_back(std::move(expected));
        if (retained.size() > capacity) retained.pop_front();
      }
      std::vector<AuditEntry> expected(retained.begin(), retained.end());
      expectSameEntries(log.entries(), expected);
      for (of::AppId app = 1; app <= 5; ++app) {
        std::vector<AuditEntry> forApp;
        for (const AuditEntry& entry : expected) {
          if (entry.app == app) forApp.push_back(entry);
        }
        expectSameEntries(log.entriesFor(app), forApp);
      }
      EXPECT_EQ(log.totalRecorded() - log.droppedCount(), log.entries().size());
    }
  }
}

// The differentials above compare read-time against record-time text, both
// from the same renderer; this pins the renderer's bytes themselves.
TEST(AuditLogFormat, RenderedCallTextIsPinned) {
  of::FlowMatch full;
  full.inPort = 0xfffffffeu;
  full.ethSrc = of::MacAddress::fromUint64(0x0123456789abULL);
  full.ethDst = of::MacAddress::fromUint64(0xffffffffffffULL);
  full.ethType = 0x0800;
  full.vlanId = 4095;
  full.ipSrc = of::MaskedIpv4{of::Ipv4Address(10, 1, 2, 3),
                              of::Ipv4Address(255, 0, 255, 0)};
  full.ipDst = of::MaskedIpv4{of::Ipv4Address(192, 168, 0, 1)};
  full.ipProto = 255;
  full.tpSrc = 65535;
  full.tpDst = 0;
  ApiCall call;
  call.type = perm::ApiCallType::kInsertFlow;
  call.app = 9;
  call.dpid = 0xbf00000000000001ULL;
  call.priority = 65535;
  call.match = full;
  call.actions = of::ActionList{
      of::SetFieldAction{of::MatchField::kIpSrc, 1, {},
                         of::Ipv4Address(9, 9, 9, 9)},
      of::OutputAction{3},
      of::DropAction{},
      of::OutputAction{of::ports::kFlood},
      of::OutputAction{of::ports::kController},
      of::SetFieldAction{of::MatchField::kEthSrc, 7,
                         of::MacAddress::fromUint64(0xa1b2c3d4e5f6ULL), {}},
      of::SetFieldAction{of::MatchField::kTpDst, ~0ULL, {}, {}}};
  call.statsLevel = of::StatsLevel::kPort;
  EXPECT_EQ(call.toString(),
            "insert_flow app=9 dpid=13763000461244235777 match={in_port="
            "4294967294, eth_src=01:23:45:67:89:ab, eth_dst=ff:ff:ff:ff:ff:ff, "
            "eth_type=2048, vlan=4095, ip_src=10.1.2.3 MASK 255.0.255.0, "
            "ip_dst=192.168.0.1, ip_proto=255, tp_src=65535, tp_dst=0} "
            "actions=[set(IP_SRC=9.9.9.9), output(3), drop, output(FLOOD), "
            "output(CONTROLLER), set(ETH_SRC=a1:b2:c3:d4:e5:f6), "
            "set(TP_DST=18446744073709551615)] prio=65535 level=PORT_LEVEL");
  ApiCall bare;
  bare.type = perm::ApiCallType::kDeleteFlow;
  bare.match = of::FlowMatch::any();
  bare.actions = of::ActionList{};
  EXPECT_EQ(bare.toString(), "delete_flow app=0 match={*} actions=[]");
  EXPECT_EQ(
      ApiCall::hostNetwork(4, of::Ipv4Address(8, 8, 4, 4), 53).toString(),
      "host_network_access app=4 remote=8.8.4.4:53");
  EXPECT_EQ(ApiCall::processRuntime(4, "rm -rf /").toString(),
            "process_runtime_access app=4 path=rm -rf /");
}

TEST(AuditLogFormat, EveryCallTypeAndActionShapeRoundTrips) {
  AuditLog log;
  of::FlowMatch full;
  full.inPort = 0xfffffffeu;
  full.ethSrc = of::MacAddress::fromUint64(0x0123456789abULL);
  full.ethDst = of::MacAddress::fromUint64(0xffffffffffffULL);
  full.ethType = 0x0800;
  full.vlanId = 4095;
  full.ipSrc = of::MaskedIpv4{of::Ipv4Address(10, 1, 2, 3),
                              of::Ipv4Address(255, 0, 255, 0)};
  full.ipDst = of::MaskedIpv4{of::Ipv4Address(192, 168, 0, 1)};
  full.ipProto = 255;
  full.tpSrc = 65535;
  full.tpDst = 0;
  std::vector<of::ActionList> actionLists = {
      {},
      {of::OutputAction{of::ports::kFlood}},
      {of::OutputAction{of::ports::kController}},
      {of::DropAction{}},
      {of::SetFieldAction{of::MatchField::kIpDst, 0, {},
                          of::Ipv4Address(1, 2, 3, 4)}},
      {of::SetFieldAction{of::MatchField::kTpDst, ~0ULL, {}, {}}},
      {of::SetFieldAction{of::MatchField::kEthSrc, 7,
                          of::MacAddress::fromUint64(0xa1b2c3d4e5f6ULL), {}}},
      {of::SetFieldAction{of::MatchField::kIpSrc, 1, {},
                          of::Ipv4Address(9, 9, 9, 9)},
       of::OutputAction{3}, of::DropAction{}},
  };
  std::vector<std::string> want;
  for (int type = 0; type <= static_cast<int>(perm::ApiCallType::kMarketAdmin);
       ++type) {
    for (const of::ActionList& actions : actionLists) {
      ApiCall call;
      call.type = static_cast<perm::ApiCallType>(type);
      call.app = 9;
      call.dpid = 0xbf00000000000001ULL;
      call.priority = 65535;
      call.match = full;
      call.actions = actions;
      call.statsLevel = of::StatsLevel::kPort;
      log.record(call, true);
      want.push_back(call.toString());
      ApiCall bare;
      bare.type = call.type;
      bare.app = 9;
      bare.match = of::FlowMatch::any();
      log.record(bare, true);
      want.push_back(bare.toString());
    }
  }
  for (const ApiCall& host :
       {ApiCall::hostNetwork(4, of::Ipv4Address(8, 8, 4, 4), 53),
        ApiCall::processRuntime(4, "rm -rf /")}) {
    log.record(host, true);
    want.push_back(host.toString());
  }
  std::vector<AuditEntry> entries = log.entries();
  ASSERT_EQ(entries.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(entries[i].summary, want[i]) << i;
  }
}

// --- record-path allocation --------------------------------------------------

TEST(AuditLogStorage, WrappedRingRecordsL2CallsWithoutAllocating) {
  AuditLog log(1024);
  of::FlowMod mod;
  mod.match.ethDst = of::MacAddress::fromUint64(0x0000000000a2ULL);
  mod.priority = 100;
  mod.actions.push_back(of::OutputAction{2});
  const ApiCall insert = ApiCall::insertFlow(1, 3, mod);
  of::PacketOut packetOut;
  packetOut.dpid = 3;
  packetOut.actions.push_back(of::OutputAction{2});
  packetOut.fromPacketIn = true;
  const ApiCall send = ApiCall::sendPacketOut(1, packetOut);
  for (int i = 0; i < 4096; ++i) log.record(i % 2 == 0 ? insert : send, true);

  t_allocations = 0;
  t_countAllocations = true;
  for (int i = 0; i < 10000; ++i) log.record(i % 2 == 0 ? insert : send, true);
  t_countAllocations = false;
  EXPECT_EQ(t_allocations, 0u);

  std::vector<AuditEntry> entries = log.entries();
  ASSERT_EQ(entries.size(), 1024u);
  EXPECT_EQ(entries.front().summary, insert.toString());
  EXPECT_EQ(entries.back().summary, send.toString());
  EXPECT_EQ(log.droppedCount(), 14096u - 1024u);
}

// --- concurrency -------------------------------------------------------------

TEST(AuditLog, ConcurrentRecordersAndReaders) {
  AuditLog log(512);
  constexpr int kRecorders = 4;
  constexpr int kPerRecorder = 3000;
  std::atomic<int> running{kRecorders};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&log, &running, t] {
      CallGenerator gen(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerRecorder; ++i) recordRandom(log, gen);
      running.fetch_sub(1);
    });
  }
  auto strictlyIncreasing = [](const std::vector<AuditEntry>& entries) {
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].sequence <= entries[i - 1].sequence) return false;
    }
    return true;
  };
  std::thread reader([&] {
    static constexpr std::size_t kCapacities[] = {512, 100, 1500, 7};
    for (std::size_t round = 0; running.load() > 0; ++round) {
      std::vector<AuditEntry> all = log.entries();
      EXPECT_TRUE(strictlyIncreasing(all));
      for (std::size_t i = 1; i < all.size(); ++i) {
        // No gaps: the retained entries are one contiguous window.
        EXPECT_EQ(all[i].sequence, all[i - 1].sequence + 1);
      }
      EXPECT_TRUE(strictlyIncreasing(log.entriesFor(1 + round % 5)));
      log.setCapacity(kCapacities[round % 4]);
    }
  });
  for (std::thread& thread : recorders) thread.join();
  reader.join();
  EXPECT_EQ(log.totalRecorded(),
            static_cast<std::uint64_t>(kRecorders) * kPerRecorder);
  EXPECT_EQ(log.totalRecorded() - log.droppedCount(), log.entries().size());
  EXPECT_LE(log.entries().size(), log.capacity());
}

}  // namespace
}  // namespace sdnshield::engine
