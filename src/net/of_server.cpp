#include "net/of_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace sdnshield::net {

namespace wire = of::wire;

namespace {

const obs::Counter g_accepted =
    obs::Registry::global().counter("net.server.accepted");
const obs::Counter g_closed =
    obs::Registry::global().counter("net.server.closed");
const obs::Counter g_framingErrors =
    obs::Registry::global().counter("net.server.framing_errors");
const obs::Counter g_packetIns =
    obs::Registry::global().counter("net.server.packet_ins");
const obs::Counter g_framesSent =
    obs::Registry::global().counter("net.server.frames_sent");
const obs::Gauge g_connections =
    obs::Registry::global().gauge("net.server.connections");
const obs::Histogram g_frameNs =
    obs::Registry::global().histogram("net.server.frame_ns");

std::string peerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

// --- TcpSwitchConn ----------------------------------------------------------

TcpSwitchConn::TcpSwitchConn(Reactor& reactor, int fd, std::string peer,
                             std::size_t maxTxBuffer)
    : reactor_(reactor),
      fd_(fd),
      peer_(std::move(peer)),
      maxTxBuffer_(maxTxBuffer) {}

TcpSwitchConn::~TcpSwitchConn() { closeConn("destroyed"); }

ctrl::ApiResult TcpSwitchConn::applyFlowMod(const of::FlowMod& mod) {
  of::Bytes frame;
  try {
    frame = wire::encodeFlowMod(mod);
  } catch (const wire::EncodeError& error) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kFramingError,
                                    error.what());
  }
  return sendFrame(frame);
}

ctrl::ApiResult TcpSwitchConn::transmitPacket(const of::PacketOut& packetOut) {
  of::Bytes frame;
  try {
    frame = wire::encodePacketOut(packetOut);
  } catch (const wire::EncodeError& error) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kFramingError,
                                    error.what());
  }
  return sendFrame(frame);
}

ctrl::ApiResponse<std::vector<of::FlowEntry>> TcpSwitchConn::dumpFlows()
    const {
  of::StatsRequest request;
  request.level = of::StatsLevel::kFlow;
  request.match = of::FlowMatch::any();
  auto response = statsRpc(request);
  if (!response.ok()) {
    return ctrl::ApiResponse<std::vector<of::FlowEntry>>::failure(
        response.error());
  }
  std::vector<of::FlowEntry> entries;
  entries.reserve(response.value().flows.size());
  for (const of::FlowStatsEntry& flowStats : response.value().flows) {
    of::FlowEntry entry;
    entry.match = flowStats.match;
    entry.priority = flowStats.priority;
    entry.cookie = flowStats.cookie;
    entry.packetCount = flowStats.packetCount;
    entry.byteCount = flowStats.byteCount;
    entries.push_back(std::move(entry));
  }
  return ctrl::ApiResponse<std::vector<of::FlowEntry>>::success(
      std::move(entries));
}

ctrl::ApiResponse<of::StatsReply> TcpSwitchConn::queryStats(
    const of::StatsRequest& request) const {
  return statsRpc(request);
}

ctrl::ApiResponse<of::StatsReply> TcpSwitchConn::statsRpc(
    const of::StatsRequest& request) const {
  if (closed_.load()) {
    return ctrl::ApiResponse<of::StatsReply>::failure(
        ctrl::ApiErrc::kConnClosed, "connection to " + peer_ + " is closed");
  }
  of::Bytes frame;
  std::uint32_t xid = 0;
  {
    std::lock_guard lock(rpcMutex_);
    xid = nextXid_++;
    rpcWaiters_[xid] = StatsWaiter{};
  }
  try {
    frame = wire::encodeStatsRequest(request, xid);
  } catch (const wire::EncodeError& error) {
    std::lock_guard lock(rpcMutex_);
    rpcWaiters_.erase(xid);
    return ctrl::ApiResponse<of::StatsReply>::failure(
        ctrl::ApiErrc::kFramingError, error.what());
  }
  // sendFrame is logically non-const; the RPC is a read of remote state.
  ctrl::ApiResult sent = const_cast<TcpSwitchConn*>(this)->sendFrame(frame);
  if (!sent.ok()) {
    std::lock_guard lock(rpcMutex_);
    rpcWaiters_.erase(xid);
    return ctrl::ApiResponse<of::StatsReply>::failure(sent.error());
  }
  std::unique_lock lock(rpcMutex_);
  bool answered = rpcCv_.wait_for(lock, rpcTimeout_, [&] {
    auto it = rpcWaiters_.find(xid);
    return it == rpcWaiters_.end() || it->second.done;
  });
  auto it = rpcWaiters_.find(xid);
  if (it == rpcWaiters_.end()) {
    // closeConn() swept the waiters: the connection died mid-RPC.
    return ctrl::ApiResponse<of::StatsReply>::failure(
        ctrl::ApiErrc::kConnClosed, "connection to " + peer_ + " closed");
  }
  if (!answered || !it->second.done) {
    rpcWaiters_.erase(it);
    return ctrl::ApiResponse<of::StatsReply>::failure(
        ctrl::ApiErrc::kDeadlineExceeded,
        "stats reply from " + peer_ + " timed out");
  }
  of::StatsReply reply = std::move(it->second.reply);
  rpcWaiters_.erase(it);
  // Datapath identity is connection state, not wire payload.
  reply.dpid = dpid_.load();
  reply.switchStats.dpid = dpid_.load();
  return ctrl::ApiResponse<of::StatsReply>::success(std::move(reply));
}

void TcpSwitchConn::deliverStatsReply(std::uint32_t xid, of::StatsReply reply) {
  std::lock_guard lock(rpcMutex_);
  auto it = rpcWaiters_.find(xid);
  if (it == rpcWaiters_.end()) return;  // Waiter timed out already.
  it->second.reply = std::move(reply);
  it->second.done = true;
  rpcCv_.notify_all();
}

ctrl::ApiResult TcpSwitchConn::sendFrame(const of::Bytes& frame) {
  std::lock_guard lock(txMutex_);
  if (closed_.load()) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kConnClosed,
                                    "connection to " + peer_ + " is closed");
  }
  std::size_t offset = 0;
  if (txBuffer_.empty()) {
    // Fast path: the socket usually has room for a whole frame.
    while (offset < frame.size()) {
      ssize_t n = ::send(fd_, frame.data() + offset, frame.size() - offset,
                         MSG_NOSIGNAL);
      if (n > 0) {
        offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      closed_.store(true);
      return ctrl::ApiResult::failure(
          ctrl::ApiErrc::kConnClosed,
          "send to " + peer_ + " failed: " + std::strerror(errno));
    }
    if (offset == frame.size()) {
      g_framesSent.increment();
      return ctrl::ApiResult::success();
    }
  }
  if (txBuffer_.size() + (frame.size() - offset) > maxTxBuffer_) {
    return ctrl::ApiResult::failure(
        ctrl::ApiErrc::kQueueFull,
        "transmit buffer to " + peer_ + " is full");
  }
  txBuffer_.insert(txBuffer_.end(), frame.begin() + offset, frame.end());
  if (!txArmed_) {
    txArmed_ = true;
    reactor_.rearm(fd_, EPOLLIN | EPOLLOUT);
  }
  g_framesSent.increment();
  return ctrl::ApiResult::success();
}

void TcpSwitchConn::onWritable() {
  std::lock_guard lock(txMutex_);
  if (closed_.load()) return;
  std::size_t offset = 0;
  while (offset < txBuffer_.size()) {
    ssize_t n = ::send(fd_, txBuffer_.data() + offset,
                       txBuffer_.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    closed_.store(true);
    return;  // The read side will observe the error and drop the session.
  }
  txBuffer_.erase(txBuffer_.begin(),
                  txBuffer_.begin() + static_cast<std::ptrdiff_t>(offset));
  if (txBuffer_.empty() && txArmed_) {
    txArmed_ = false;
    reactor_.rearm(fd_, EPOLLIN);
  }
}

void TcpSwitchConn::closeConn(const std::string& reason) {
  bool expected = false;
  if (!closed_.compare_exchange_strong(expected, true)) return;
  (void)reason;
  reactor_.remove(fd_);
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  // Fail in-flight RPCs: erase the waiters so blocked callers see closure.
  {
    std::lock_guard lock(rpcMutex_);
    rpcWaiters_.clear();
    rpcCv_.notify_all();
  }
  g_closed.increment();
  g_connections.sub();
}

// --- OfServer ---------------------------------------------------------------

OfServer::OfServer(ctrl::Controller& controller, OfServerConfig config)
    : controller_(controller), config_(std::move(config)) {
  std::size_t ioThreads = config_.ioThreads == 0 ? 1 : config_.ioThreads;
  ioShards_.reserve(ioThreads);
  for (std::size_t i = 0; i < ioThreads; ++i) {
    ioShards_.push_back(std::make_unique<IoShard>());
    IoShard* shard = ioShards_.back().get();
    shard->reactor.setWakeupHook([this, shard] { flushPacketIns(*shard); });
  }
}

OfServer::~OfServer() { stop(); }

bool OfServer::start(std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    if (listenFd_ >= 0) {
      ::close(listenFd_);
      listenFd_ = -1;
    }
    return false;
  };
  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) return fail(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bindAddress.c_str(), &addr.sin_addr) != 1) {
    return fail("bad bind address: " + config_.bindAddress);
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listenFd_, config_.backlog) < 0) {
    return fail(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t boundLen = sizeof(bound);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
  boundPort_ = ntohs(bound.sin_port);
  if (!ioShards_.front()->reactor.add(
          listenFd_, EPOLLIN,
          [this](std::uint32_t events) { onAccept(events); })) {
    return fail("epoll add(listener) failed");
  }
  for (auto& shard : ioShards_) shard->reactor.start();
  started_ = true;
  return true;
}

void OfServer::stop() {
  if (!started_) return;
  // Tear sessions down on their owning reactor threads, then stop the
  // loops. Each shard's sweep is posted to its own reactor (the only
  // thread allowed to touch its sessions map).
  std::mutex doneMutex;
  std::condition_variable doneCv;
  std::size_t pending = ioShards_.size();
  for (auto& shardPtr : ioShards_) {
    IoShard* shard = shardPtr.get();
    shard->reactor.post([this, shard, &doneMutex, &doneCv, &pending] {
      for (auto& [fd, session] : shard->sessions) {
        (void)fd;
        session.conn->closeConn("server stopping");
      }
      shard->sessions.clear();
      std::lock_guard lock(doneMutex);
      --pending;
      doneCv.notify_all();
    });
  }
  {
    std::unique_lock lock(doneMutex);
    doneCv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return pending == 0; });
  }
  for (auto& shard : ioShards_) shard->reactor.stop();
  if (listenFd_ >= 0) {
    ioShards_.front()->reactor.remove(listenFd_);
    ::close(listenFd_);
    listenFd_ = -1;
  }
  started_ = false;
}

bool OfServer::waitForSwitches(std::size_t n,
                               std::chrono::milliseconds timeout) {
  std::unique_lock lock(waitMutex_);
  return waitCv_.wait_for(lock, timeout,
                          [&] { return attached_.load() >= n; });
}

void OfServer::onAccept(std::uint32_t) {
  while (true) {
    sockaddr_in addr{};
    socklen_t addrLen = sizeof(addr);
    int fd = ::accept4(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                       &addrLen, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // EMFILE etc.: stop accepting this round, retry on next event.
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Round-robin across reactors; the cursor lives on the accept thread
    // only. With one reactor this always picks shard 0 — today's path.
    IoShard& target = *ioShards_[nextIoShard_];
    nextIoShard_ = (nextIoShard_ + 1) % ioShards_.size();
    Session session;
    session.conn = std::make_shared<TcpSwitchConn>(
        target.reactor, fd, peerName(addr), config_.maxTxBuffer);
    if (&target == ioShards_.front().get()) {
      // Accept thread IS the owning reactor thread: register in place.
      adoptSession(target, fd, std::move(session));
    } else {
      // Hand the session to its owning reactor; that thread registers the
      // fd and runs the handshake so the sessions map stays thread-local.
      auto handoff = std::make_shared<Session>(std::move(session));
      target.reactor.post([this, &target, fd, handoff] {
        adoptSession(target, fd, std::move(*handoff));
      });
    }
  }
}

void OfServer::adoptSession(IoShard& shard, int fd, Session session) {
  auto [it, inserted] = shard.sessions.emplace(fd, std::move(session));
  (void)inserted;
  if (!shard.reactor.add(fd, EPOLLIN,
                         [this, &shard, fd](std::uint32_t events) {
                           onSession(shard, fd, events);
                         })) {
    shard.sessions.erase(it);
    ::close(fd);
    return;
  }
  g_accepted.increment();
  g_connections.add();
  connections_.fetch_add(1);
  // Server-side handshake: identify yourself.
  it->second.conn->sendFrame(wire::encodeHello(1));
  it->second.conn->sendFrame(wire::encodeFeaturesRequest(2));
}

void OfServer::onSession(IoShard& shard, int fd, std::uint32_t events) {
  auto it = shard.sessions.find(fd);
  if (it == shard.sessions.end()) return;
  Session& session = it->second;
  if (events & EPOLLOUT) session.conn->onWritable();
  if (session.conn->closed()) {
    dropSession(shard, fd, "send error");
    return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) && !(events & EPOLLIN)) {
    dropSession(shard, fd, "hangup");
    return;
  }
  if (!(events & EPOLLIN)) return;

  // A closing peer's last frames are still handled: packet-ins read just
  // before EOF reach the controller before the session is dropped.
  const char* closeReason = nullptr;
  std::uint8_t chunk[64 * 1024];
  while (true) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      session.framer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      closeReason = "eof";
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeReason = "read error";
    break;
  }

  Framer::Frame frame;
  while (true) {
    Framer::Status status = session.framer.next(frame);
    if (status == Framer::Status::kNeedMore) break;
    if (status == Framer::Status::kCorrupt) {
      framingErrors_.fetch_add(1);
      g_framingErrors.increment();
      dropSession(shard, fd, "framing error");
      return;
    }
    auto frameStart = std::chrono::steady_clock::now();
    if (!handleFrame(shard, session, frame)) {
      framingErrors_.fetch_add(1);
      g_framingErrors.increment();
      dropSession(shard, fd, "bad message");
      return;
    }
    g_frameNs.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - frameStart)
                         .count());
    // dropSession may have run via handleFrame side effects.
    if (shard.sessions.find(fd) == shard.sessions.end()) return;
  }
  if (closeReason != nullptr) dropSession(shard, fd, closeReason);
}

bool OfServer::handleFrame(IoShard& shard, Session& session,
                           const Framer::Frame& frame) {
  wire::Message message;
  try {
    message = wire::decode(frame.data, frame.size);
  } catch (const wire::DecodeError&) {
    return false;
  }
  of::DatapathId dpid = session.conn->dpid();
  if (const auto* features = std::get_if<wire::FeaturesReply>(&message)) {
    if (session.attached) return true;  // Duplicate reply: ignore.
    flushPacketIns(shard);
    if (features->dpid == 0) return false;  // No identity, no attachment.
    session.conn->setDpid(features->dpid);
    ctrl::ConnectionInfo info;
    info.dpid = features->dpid;
    info.transport = "tcp";
    info.peer = session.conn->peer();
    info.ofVersion = wire::kVersion;
    ctrl::ApiResult attachResult =
        controller_.attachSwitch(session.conn, info);
    if (!attachResult.ok()) return false;
    session.attached = true;
    attached_.fetch_add(1);
    {
      std::lock_guard lock(waitMutex_);
      waitCv_.notify_all();
    }
    return true;
  }
  if (const auto* echo = std::get_if<wire::Echo>(&message)) {
    if (!echo->isReply) {
      wire::Echo reply{true, echo->xid, echo->payload};
      session.conn->sendFrame(wire::encodeEcho(reply));
    }
    return true;
  }
  if (std::holds_alternative<wire::Hello>(message)) return true;
  if (auto* packetIn = std::get_if<of::PacketIn>(&message)) {
    if (!session.attached) return true;  // Not a switch yet: drop quietly.
    packetIn->dpid = dpid;
    g_packetIns.increment();
    shard.packetIns.push_back(std::move(*packetIn));
    return true;
  }
  if (auto* statsReply = std::get_if<of::StatsReply>(&message)) {
    session.conn->deliverStatsReply(wire::transactionId(frame.data, frame.size),
                                    std::move(*statsReply));
    return true;
  }
  if (auto* removed = std::get_if<of::FlowRemoved>(&message)) {
    if (session.attached) {
      removed->dpid = dpid;
      flushPacketIns(shard);
      controller_.onFlowRemoved(*removed);
    }
    return true;
  }
  if (auto* errorMsg = std::get_if<of::ErrorMsg>(&message)) {
    if (session.attached) {
      errorMsg->dpid = dpid;
      flushPacketIns(shard);
      controller_.onSwitchError(*errorMsg);
    }
    return true;
  }
  // Controller-to-switch message types arriving from a switch are a
  // protocol breach; contain it to this connection.
  return false;
}

void OfServer::flushPacketIns(IoShard& shard) {
  if (shard.packetIns.empty()) return;
  // One blocking hop per shard: the reactor reads nothing more until the
  // batch is delivered, which keeps backpressure and per-switch order.
  controller_.onPacketIns(shard.packetIns);
  shard.packetIns.clear();
}

void OfServer::dropSession(IoShard& shard, int fd, const char* reason) {
  auto it = shard.sessions.find(fd);
  if (it == shard.sessions.end()) return;
  flushPacketIns(shard);
  bool wasAttached = it->second.attached;
  it->second.conn->closeConn(reason);
  shard.sessions.erase(it);
  connections_.fetch_sub(1);
  if (wasAttached) attached_.fetch_sub(1);
}

}  // namespace sdnshield::net
