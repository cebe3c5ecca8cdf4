// Wire-vs-sim differential (ISSUE acceptance): the same cbench workload
// driven over TCP loopback against net::OfServer and driven in-process
// through Controller::onPacketIn must produce byte-identical flow-mod
// frames and identical decision/audit totals — and the wire frontend must
// sustain >= 1,024 concurrent switch connections doing it. Kernel flow-mods
// sent over a TcpSwitchConn keep their issuer cookie, and a rule the codec
// cannot express fails as a typed kFramingError before any byte is written.
// The server hands each reactor wakeup's packet-ins to the controller in one
// batch; the batching must keep a switch's messages in wire order and must
// not lose packet-ins that arrive just before the peer closes.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/l2_learning.h"
#include "controller/controller.h"
#include "core/lang/perm_parser.h"
#include "isolation/api_proxy.h"
#include "net/cbench_client.h"
#include "net/of_server.h"
#include "net/reactor.h"
#include "of/wire.h"

namespace sdnshield {
namespace {

namespace wire = of::wire;

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

/// In-process stand-in for the TCP peer: records exactly the bytes the wire
/// would carry (of::wire's encode, xid 0 — the same default TcpSwitchConn
/// uses for unsolicited sends).
class RecordingConn final : public ctrl::SwitchConn {
 public:
  ctrl::ApiResult applyFlowMod(const of::FlowMod& mod) override {
    std::lock_guard lock(mutex_);
    flowModFrames_.push_back(wire::encodeFlowMod(mod));
    return ctrl::ApiResult::success();
  }
  ctrl::ApiResult transmitPacket(const of::PacketOut&) override {
    packetOuts_.fetch_add(1);
    return ctrl::ApiResult::success();
  }
  ctrl::ApiResponse<std::vector<of::FlowEntry>> dumpFlows() const override {
    return ctrl::ApiResponse<std::vector<of::FlowEntry>>::success({});
  }
  ctrl::ApiResponse<of::StatsReply> queryStats(
      const of::StatsRequest&) const override {
    return ctrl::ApiResponse<of::StatsReply>::success({});
  }

  std::vector<of::Bytes> flowModFrames() const {
    std::lock_guard lock(mutex_);
    return flowModFrames_;
  }
  std::size_t flowModCount() const {
    std::lock_guard lock(mutex_);
    return flowModFrames_.size();
  }
  std::uint64_t packetOutCount() const { return packetOuts_.load(); }

 private:
  mutable std::mutex mutex_;
  std::vector<of::Bytes> flowModFrames_;
  std::atomic<std::uint64_t> packetOuts_{0};
};

/// One emulated switch's workload, exactly as net::runCbenchClient derives
/// it from the connection index: MACs/IPs from the serial, announcements on
/// ports 1 and 4, then identical TCP SYN probes from port 4.
struct Workload {
  of::DatapathId dpid;
  of::PacketIn announceTarget;
  of::PacketIn announceProbe;
  of::PacketIn probe;
};

Workload workloadFor(std::size_t index, of::DatapathId firstDpid) {
  std::uint64_t serial = index + 1;
  Workload w;
  w.dpid = firstDpid + index;
  of::MacAddress targetMac =
      of::MacAddress::fromUint64(0x020000000000ULL + serial);
  of::MacAddress probeMac =
      of::MacAddress::fromUint64(0x040000000000ULL + serial);
  of::Ipv4Address targetIp(10, 0, static_cast<std::uint8_t>(serial >> 8),
                           static_cast<std::uint8_t>(serial & 0xff));
  of::Ipv4Address probeIp(10, 9, static_cast<std::uint8_t>(serial >> 8),
                          static_cast<std::uint8_t>(serial & 0xff));

  w.announceTarget.dpid = w.dpid;
  w.announceTarget.inPort = 1;
  w.announceTarget.packet = of::Packet::makeArpRequest(
      targetMac, targetIp, of::Ipv4Address(10, 255, 255, 254));

  w.announceProbe.dpid = w.dpid;
  w.announceProbe.inPort = 4;
  w.announceProbe.packet = of::Packet::makeArpRequest(
      probeMac, probeIp, of::Ipv4Address(10, 255, 255, 254));

  w.probe.dpid = w.dpid;
  w.probe.inPort = 4;
  w.probe.reason = of::PacketInReason::kNoMatch;
  w.probe.packet = of::Packet::makeTcp(probeMac, targetMac, probeIp, targetIp,
                                       12345, 80, of::tcpflags::kSyn);
  return w;
}

/// The in-process half of the differential: the same controller + shield +
/// L2 app stack `sdnshield serve` runs, driven directly via onPacketIn.
struct SimMirror {
  ctrl::Controller controller;
  iso::ShieldRuntime shield{controller};
  std::vector<std::shared_ptr<RecordingConn>> conns;

  SimMirror() {
    auto app = std::make_shared<apps::L2LearningSwitch>();
    shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));
  }
  ~SimMirror() { shield.shutdown(); }

  void run(std::size_t connections, std::size_t rounds,
           of::DatapathId firstDpid) {
    for (std::size_t i = 0; i < connections; ++i) {
      auto conn = std::make_shared<RecordingConn>();
      ASSERT_TRUE(static_cast<bool>(controller.attachSwitch(
          conn, ctrl::ConnectionInfo{firstDpid + i, "sim", "in-process", 0})));
      conns.push_back(conn);
    }
    for (std::size_t i = 0; i < connections; ++i) {
      Workload w = workloadFor(i, firstDpid);
      controller.onPacketIn(w.announceTarget);
      controller.onPacketIn(w.announceProbe);
      for (std::size_t round = 0; round < rounds; ++round) {
        controller.onPacketIn(w.probe);
      }
    }
    // The shield posts events to the app thread; wait for every probe's
    // flow-mod and every packet-out (two announcement floods, then one per
    // probe) to land on its recording conn, so the audit totals are final.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (auto& conn : conns) {
      while ((conn->flowModCount() < rounds ||
              conn->packetOutCount() < rounds + 2) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ASSERT_EQ(conn->flowModCount(), rounds);
      ASSERT_EQ(conn->packetOutCount(), rounds + 2);
    }
  }
};

/// The wire half: `sdnshield serve`'s stack behind the epoll frontend.
struct WireStack {
  ctrl::Controller controller;
  iso::ShieldRuntime shield{controller};
  net::OfServer server;

  explicit WireStack(net::OfServerConfig config = {})
      : server(controller, config) {
    auto app = std::make_shared<apps::L2LearningSwitch>();
    shield.loadApp(app, lang::parsePermissions(app->requestedManifest()));
  }
  ~WireStack() {
    server.stop();
    shield.shutdown();
  }
};

TEST(WireSimDifferential, FlowModFramesAreByteIdenticalToInProcessPath) {
  constexpr std::size_t kConnections = 32;
  constexpr std::size_t kRounds = 4;
  constexpr of::DatapathId kFirstDpid = 1;

  WireStack wireStack;
  std::string error;
  ASSERT_TRUE(wireStack.server.start(&error)) << error;

  net::CbenchClientConfig config;
  config.port = wireStack.server.port();
  config.connections = kConnections;
  config.rounds = kRounds;
  config.roundTimeout = std::chrono::milliseconds(5000);
  config.captureFlowModFrames = true;
  net::CbenchClientResult wireResult = net::runCbenchClient(config);
  ASSERT_TRUE(wireResult.ok) << wireResult.error;
  ASSERT_EQ(wireResult.timeouts, 0u) << "timeouts would skew the audit totals";
  ASSERT_EQ(wireResult.roundsCompleted, kConnections * kRounds);
  ASSERT_EQ(wireResult.flowModFrames.size(), kConnections);

  SimMirror mirror;
  mirror.run(kConnections, kRounds, kFirstDpid);

  // Byte identity, per connection, in arrival order: the TCP transport must
  // be a transparent pipe around the same decisions.
  for (std::size_t i = 0; i < kConnections; ++i) {
    std::vector<of::Bytes> simFrames = mirror.conns[i]->flowModFrames();
    ASSERT_EQ(wireResult.flowModFrames[i].size(), simFrames.size())
        << "connection " << i;
    for (std::size_t f = 0; f < simFrames.size(); ++f) {
      ASSERT_EQ(wireResult.flowModFrames[i][f], simFrames[f])
          << "connection " << i << " frame " << f;
    }
  }

  // Decision/audit behavior: both stacks mediated the same app activity.
  EXPECT_EQ(wireStack.controller.audit().totalRecorded(),
            mirror.controller.audit().totalRecorded());
  EXPECT_EQ(wireStack.controller.audit().deniedCount(),
            mirror.controller.audit().deniedCount());
  EXPECT_EQ(wireStack.controller.dispatchFaultCount(), 0u);
  EXPECT_EQ(mirror.controller.dispatchFaultCount(), 0u);
  EXPECT_EQ(wireStack.server.framingErrors(), 0u);

  // Every wire switch attached under the "tcp" transport through the one
  // attachSwitch seam.
  for (std::size_t i = 0; i < kConnections; ++i) {
    auto info = wireStack.controller.connectionInfo(kFirstDpid + i);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->transport, "tcp");
    EXPECT_EQ(info->ofVersion, 0x01);
  }
}

TEST(WireSimDifferential, Sustains1024ConcurrentSwitchConnections) {
  // Both endpoints live in this process: every loopback connection costs two
  // fds, plus epoll/eventfd/test overhead. Raise the soft fd limit first.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  rlim_t wanted = 4096;
  if (limit.rlim_cur < wanted) {
    rlimit raised = limit;
    raised.rlim_cur = std::min<rlim_t>(wanted, limit.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &raised);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  }

  // TSan instruments every one of the ~2k sockets' happens-before edges;
  // scale the fleet down so the interleaving coverage stays, the wall-clock
  // cost does not (same pattern as the mck scenario suites).
  std::size_t connections = kTsan ? 128 : 1024;
  if (limit.rlim_cur < 2 * connections + 64) {
    connections = (static_cast<std::size_t>(limit.rlim_cur) - 64) / 2;
  }
  ASSERT_GE(connections, 64u) << "fd limit too low to exercise concurrency";

  WireStack wireStack;
  std::string error;
  ASSERT_TRUE(wireStack.server.start(&error)) << error;

  net::CbenchClientConfig config;
  config.port = wireStack.server.port();
  config.connections = connections;
  config.rounds = 1;  // Every switch still gets a real flow-mod decision.
  config.connectTimeout = std::chrono::milliseconds(20000);
  config.roundTimeout = std::chrono::milliseconds(20000);

  // The client keeps every connection open until the whole campaign settles,
  // so observing attachedCount() from here while it runs captures true
  // concurrency (after runCbenchClient returns the sessions drain and the
  // gauges drop back).
  net::CbenchClientResult result;
  std::thread client([&] { result = net::runCbenchClient(config); });
  EXPECT_TRUE(
      wireStack.server.waitForSwitches(connections, std::chrono::seconds(60)));
  std::size_t peakAttached = wireStack.server.attachedCount();
  std::size_t peakConnections = wireStack.server.connectionCount();
  client.join();

  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.handshaked, connections);
  EXPECT_EQ(result.roundsCompleted + result.timeouts, connections);
  EXPECT_EQ(wireStack.server.framingErrors(), 0u);
  // All concurrent: the server held every switch simultaneously.
  EXPECT_GE(peakAttached, connections);
  EXPECT_GE(peakConnections, connections);
}

TEST(WireSimDifferential, MalformedPeerDoesNotDisturbNeighbours) {
  WireStack wireStack;
  std::string error;
  ASSERT_TRUE(wireStack.server.start(&error)) << error;

  // A healthy fleet runs while a raw socket speaks garbage at the server.
  net::CbenchClientConfig config;
  config.port = wireStack.server.port();
  config.connections = 8;
  config.rounds = 2;
  config.roundTimeout = std::chrono::milliseconds(5000);

  std::thread saboteur([port = wireStack.server.port()] {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      std::uint8_t garbage[32];
      for (std::size_t i = 0; i < sizeof(garbage); ++i) {
        garbage[i] = static_cast<std::uint8_t>(0xc0 + i);
      }
      (void)::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::close(fd);
  });

  net::CbenchClientResult result;
  std::thread client([&] { result = net::runCbenchClient(config); });
  // All 8 healthy switches attach and stay attached while the saboteur's
  // garbage stream is rejected.
  EXPECT_TRUE(wireStack.server.waitForSwitches(8, std::chrono::seconds(30)));
  client.join();
  saboteur.join();

  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.handshaked, 8u);
  EXPECT_EQ(result.roundsCompleted, 16u);
  // The garbage connection was counted, rejected, and torn down alone.
  EXPECT_GE(wireStack.server.framingErrors(), 1u);
}

/// A controller with one switch attached over a TcpSwitchConn on one end of
/// a socketpair; the test reads what the controller wrote from the other.
struct SocketpairSwitch {
  net::Reactor reactor;  // Never started: sends go straight to the socket.
  ctrl::Controller controller;
  int peer = -1;

  SocketpairSwitch() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0) {
      return;
    }
    peer = fds[1];
    auto conn = std::make_shared<net::TcpSwitchConn>(reactor, fds[0],
                                                     "socketpair", 1u << 20);
    controller.attachSwitch(conn,
                            ctrl::ConnectionInfo{1, "tcp", "socketpair", 0x01});
  }
  ~SocketpairSwitch() {
    if (peer >= 0) ::close(peer);
  }

  /// Everything the controller has written so far (non-blocking read).
  of::Bytes drain() const {
    of::Bytes out;
    std::uint8_t buffer[4096];
    ssize_t n = 0;
    while ((n = ::recv(peer, buffer, sizeof(buffer), 0)) > 0) {
      out.insert(out.end(), buffer, buffer + n);
    }
    return out;
  }
};

TEST(WireSimDifferential, InstalledRuleSurvivesTheFlowModRoundTrip) {
  SocketpairSwitch sw;
  ASSERT_GE(sw.peer, 0);
  of::FlowMod mod;
  mod.match.ethType = 0x0800;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 2),
                                   of::Ipv4Address::prefixMask(24)};
  mod.priority = 33;
  mod.idleTimeout = 60;
  mod.actions.push_back(of::OutputAction{2});
  ASSERT_TRUE(sw.controller.kernelInsertFlow(7, 1, mod).ok());

  of::Bytes frame = sw.drain();
  auto decoded = std::get<of::FlowMod>(wire::decode(frame));
  EXPECT_EQ(decoded.match, mod.match);
  EXPECT_EQ(decoded.priority, 33);
  EXPECT_EQ(decoded.idleTimeout, 60u);
  EXPECT_EQ(decoded.cookie, 7u);  // The issuer stamp survives framing.
}

TEST(WireSimDifferential, NonPrefixMaskRuleIsRejectedAtTheWire) {
  SocketpairSwitch sw;
  ASSERT_GE(sw.peer, 0);
  of::FlowMod mod;
  mod.match.ipDst = of::MaskedIpv4{of::Ipv4Address(10, 0, 0, 0),
                                   of::Ipv4Address::parse("255.0.255.0")};
  mod.actions.push_back(of::OutputAction{2});
  // OF 1.0 cannot express the mask: the rejection surfaces as a typed
  // kFramingError rather than silently widening the rule, and never as an
  // exception.
  ctrl::ApiResult result = sw.controller.kernelInsertFlow(7, 1, mod);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ctrl::ApiErrc::kFramingError);
  EXPECT_TRUE(sw.drain().empty()) << "no frame may reach the switch";
  EXPECT_EQ(sw.controller.ownership().totalTracked(), 0u);
}

/// A raw switch peer: connects, completes the handshake as @p dpid and then
/// writes whatever frames the test hands it.
class RawSwitch {
 public:
  RawSwitch(std::uint16_t port, of::DatapathId dpid) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    wire::FeaturesReply features;
    features.xid = 2;
    features.dpid = dpid;
    of::Bytes hello = wire::encodeHello(1);
    of::Bytes reply = wire::encodeFeaturesReply(features);
    hello.insert(hello.end(), reply.begin(), reply.end());
    send(hello);
  }
  ~RawSwitch() { close(); }

  bool connected() const { return fd_ >= 0; }
  void send(const of::Bytes& bytes) {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + offset, bytes.size() - offset,
                         MSG_NOSIGNAL);
      if (n <= 0) return;
      offset += static_cast<std::size_t>(n);
    }
  }
  /// Sends FIN. (A close() with the server's handshake frames still unread
  /// would send RST instead.)
  void finish() { ::shutdown(fd_, SHUT_WR); }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

of::PacketIn packetInOn(of::PortNo inPort) {
  of::PacketIn packetIn;
  packetIn.inPort = inPort;
  packetIn.packet = of::Packet::makeTcp(
      of::MacAddress::fromUint64(0xa), of::MacAddress::fromUint64(0xb),
      of::Ipv4Address(10, 0, 0, 1), of::Ipv4Address(10, 0, 0, 2), 1234, 80,
      of::tcpflags::kSyn);
  return packetIn;
}

/// A bare controller behind the wire frontend, recording the order in which
/// packet-ins (by ingress port), flow-removed and error events arrive.
struct OrderProbe {
  ctrl::Controller controller;
  net::OfServer server{controller};
  mutable std::mutex mutex;
  std::vector<std::string> seen;

  OrderProbe() {
    auto record = [this](std::string what) {
      std::lock_guard lock(mutex);
      seen.push_back(std::move(what));
    };
    controller.addPacketInSubscriber(1, [record](const ctrl::Event& event) {
      if (const auto* in = std::get_if<ctrl::PacketInEvent>(&event)) {
        record("packet_in " + std::to_string(in->packetIn.inPort));
      }
    });
    controller.addFlowSubscriber(1, [record](const ctrl::Event& event) {
      if (std::holds_alternative<ctrl::FlowEvent>(event)) {
        record("flow_removed");
      }
    });
    controller.addErrorSubscriber(1, [record](const ctrl::Event& event) {
      if (std::holds_alternative<ctrl::ErrorEvent>(event)) record("error");
    });
  }
  ~OrderProbe() { server.stop(); }

  /// Parks the server's reactor in a posted task until the returned
  /// function is called, so what a peer writes meanwhile — frames and FIN
  /// alike — is read in the reactor's next single wakeup.
  std::function<void()> holdReactor() {
    struct Hold {
      std::mutex mutex;
      std::condition_variable cv;
      bool entered = false;
      bool released = false;
    };
    auto hold = std::make_shared<Hold>();
    server.reactor().post([hold] {
      std::unique_lock lock(hold->mutex);
      hold->entered = true;
      hold->cv.notify_all();
      hold->cv.wait(lock, [&] { return hold->released; });
    });
    std::unique_lock lock(hold->mutex);
    hold->cv.wait(lock, [&] { return hold->entered; });
    return [hold] {
      // Loopback delivers synchronously; the pause only makes sure.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::lock_guard lock(hold->mutex);
      hold->released = true;
      hold->cv.notify_all();
    };
  }

  std::vector<std::string> waitForEvents(std::size_t n) const {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard lock(mutex);
        if (seen.size() >= n) return seen;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard lock(mutex);
    return seen;
  }
};

TEST(WireBatching, PacketInsAroundFlowRemovedAndErrorKeepWireOrder) {
  OrderProbe probe;
  std::string error;
  ASSERT_TRUE(probe.server.start(&error)) << error;
  RawSwitch sw(probe.server.port(), 7);
  ASSERT_TRUE(sw.connected());
  ASSERT_TRUE(probe.server.waitForSwitches(1, std::chrono::seconds(5)));

  // Every frame is read in one wakeup: each flow-removed and error must
  // still reach the controller after the packet-ins before it and before
  // the packet-ins after it.
  of::FlowRemoved removed;
  removed.priority = 5;
  of::ErrorMsg switchError;
  switchError.detail = "table full";
  of::Bytes stream;
  for (const of::Bytes& frame :
       {wire::encodePacketIn(packetInOn(1)), wire::encodeFlowRemoved(removed),
        wire::encodePacketIn(packetInOn(2)), wire::encodeError(switchError),
        wire::encodePacketIn(packetInOn(3))}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::function<void()> release = probe.holdReactor();
  sw.send(stream);
  release();

  std::vector<std::string> expected = {"packet_in 1", "flow_removed",
                                       "packet_in 2", "error", "packet_in 3"};
  EXPECT_EQ(probe.waitForEvents(expected.size()), expected);
  EXPECT_EQ(probe.server.framingErrors(), 0u);
}

TEST(WireBatching, PacketInsReadJustBeforeEofAreDelivered) {
  OrderProbe probe;
  std::string error;
  ASSERT_TRUE(probe.server.start(&error)) << error;
  RawSwitch sw(probe.server.port(), 9);
  ASSERT_TRUE(sw.connected());
  ASSERT_TRUE(probe.server.waitForSwitches(1, std::chrono::seconds(5)));

  // The reactor reads the last frames and the EOF in one wakeup.
  of::Bytes stream;
  for (of::PortNo port = 1; port <= 3; ++port) {
    of::Bytes frame = wire::encodePacketIn(packetInOn(port));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::function<void()> release = probe.holdReactor();
  sw.send(stream);
  sw.finish();
  release();

  std::vector<std::string> expected = {"packet_in 1", "packet_in 2",
                                       "packet_in 3"};
  EXPECT_EQ(probe.waitForEvents(expected.size()), expected);
}

}  // namespace
}  // namespace sdnshield
