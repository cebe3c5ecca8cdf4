// Epoll OpenFlow 1.0 wire frontend (DESIGN.md §15): accepts switch TCP
// connections on a non-blocking listener, frames the byte stream
// incrementally (net::Framer over of::wire's span decode), and registers
// every switch through the one transport-agnostic seam —
// Controller::attachSwitch(conn, ConnectionInfo) — exactly as the
// in-process SimSwitch does.
//
// Handshake (server side): on accept the server sends OFPT_HELLO and
// OFPT_FEATURES_REQUEST; the switch's OFPT_FEATURES_REPLY carries its
// datapath-id, at which point the connection is attached under transport
// "tcp". Echo requests are answered in place; packet-ins are decoded and
// collected per reactor, in arrival order, and handed to the controller in
// one Controller::onPacketIns batch at the end of each reactor wakeup — one
// blocking shard hop per wakeup instead of one per frame. A session's
// flow-removed, error or features frame, and its teardown, first flush the
// batch, so the controller sees each switch's messages in wire order.
// Flow-mods/packet-outs flow back through TcpSwitchConn with typed ApiResult
// errors (kConnClosed / kFramingError / kQueueFull) — never exceptions.
//
// Fault containment: a malformed frame poisons only its own connection —
// the framer reports status, the session is torn down, and every other
// connection on the reactor keeps streaming.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "net/framer.h"
#include "net/reactor.h"
#include "of/wire.h"

namespace sdnshield::net {

/// The TCP-backed SwitchConn: the controller's datapath calls become OF 1.0
/// frames on the socket. Unsolicited controller->switch messages use xid 0
/// (matching of::wire's encode defaults), which is what makes the wire path
/// byte-comparable with in-process encoding of the same flow-mods.
class TcpSwitchConn final : public ctrl::SwitchConn {
 public:
  TcpSwitchConn(Reactor& reactor, int fd, std::string peer,
                std::size_t maxTxBuffer);
  ~TcpSwitchConn() override;

  // --- ctrl::SwitchConn (any thread) ---------------------------------------
  ctrl::ApiResult applyFlowMod(const of::FlowMod& mod) override;
  ctrl::ApiResult transmitPacket(const of::PacketOut& packetOut) override;
  /// Synchronous flow-stats RPC over the wire; entries carry no actions
  /// (OF 1.0 flow-stats as modelled by the codec).
  ctrl::ApiResponse<std::vector<of::FlowEntry>> dumpFlows() const override;
  ctrl::ApiResponse<of::StatsReply> queryStats(
      const of::StatsRequest& request) const override;

  // --- transport side (OfServer / tests) -----------------------------------
  int fd() const { return fd_; }
  const std::string& peer() const { return peer_; }
  of::DatapathId dpid() const { return dpid_.load(); }
  void setDpid(of::DatapathId dpid) { dpid_.store(dpid); }

  /// Queues @p frame for transmission: direct non-blocking send first, the
  /// unsent tail buffered and drained under EPOLLOUT. Typed failures:
  /// kConnClosed when the peer is gone, kQueueFull when the transmit
  /// buffer limit would be exceeded.
  ctrl::ApiResult sendFrame(const of::Bytes& frame);

  /// Reactor-thread drain of the transmit backlog.
  void onWritable();

  /// Tears the connection down (idempotent): deregisters from the reactor,
  /// closes the socket, fails all stats waiters with kConnClosed.
  void closeConn(const std::string& reason);
  bool closed() const { return closed_.load(); }

  /// RPC timeout for dumpFlows/queryStats (default 1s).
  void setRpcTimeout(std::chrono::milliseconds timeout) {
    rpcTimeout_ = timeout;
  }

  /// Routes an OFPT_STATS_REPLY to the waiter that issued its xid.
  void deliverStatsReply(std::uint32_t xid, of::StatsReply reply);

 private:
  ctrl::ApiResponse<of::StatsReply> statsRpc(
      const of::StatsRequest& request) const;

  Reactor& reactor_;
  const int fd_;
  const std::string peer_;
  const std::size_t maxTxBuffer_;
  std::atomic<of::DatapathId> dpid_{0};
  std::atomic<bool> closed_{false};
  std::chrono::milliseconds rpcTimeout_{1000};

  mutable std::mutex txMutex_;
  of::Bytes txBuffer_;
  bool txArmed_ = false;  ///< EPOLLOUT currently in the interest set.

  // Stats RPC plumbing: xid-keyed waiters; replies arrive on the reactor
  // thread, callers block on their slot.
  struct StatsWaiter {
    bool done = false;
    of::StatsReply reply;
  };
  mutable std::mutex rpcMutex_;
  mutable std::condition_variable rpcCv_;
  mutable std::uint32_t nextXid_ = 0x100;  ///< Below is handshake space.
  mutable std::map<std::uint32_t, StatsWaiter> rpcWaiters_;
};

struct OfServerConfig {
  std::string bindAddress = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port().
  int backlog = 1024;
  std::size_t maxTxBuffer = 4u << 20;  ///< Per-connection transmit cap.
  /// Reactor (epoll loop) count — one per controller shard when serving a
  /// sharded runtime. The listener lives on reactor 0; accepted sessions
  /// round-robin across reactors, and all per-session state stays on its
  /// owning reactor thread. 1 (the default) is byte-identical to the
  /// pre-shard single-reactor server.
  std::size_t ioThreads = 1;
};

class OfServer {
 public:
  OfServer(ctrl::Controller& controller, OfServerConfig config = {});
  ~OfServer();

  OfServer(const OfServer&) = delete;
  OfServer& operator=(const OfServer&) = delete;

  /// Binds, listens and starts the reactor thread. On failure returns
  /// false and (optionally) the reason.
  bool start(std::string* error = nullptr);
  void stop();

  std::uint16_t port() const { return boundPort_; }

  /// Connections currently accepted (handshake state included).
  std::size_t connectionCount() const { return connections_.load(); }
  /// Switches that completed the features handshake and were attached.
  std::size_t attachedCount() const { return attached_.load(); }
  std::uint64_t framingErrors() const { return framingErrors_.load(); }

  bool waitForSwitches(std::size_t n, std::chrono::milliseconds timeout);

  /// Reactor 0 — the accept loop's reactor (and, with ioThreads=1, the only
  /// one).
  Reactor& reactor() { return ioShards_.front()->reactor; }
  std::size_t ioThreadCount() const { return ioShards_.size(); }

 private:
  struct Session {
    std::shared_ptr<TcpSwitchConn> conn;
    Framer framer;
    bool attached = false;
  };

  /// One epoll loop plus the sessions it owns. The sessions map is touched
  /// only from its own reactor thread (registration is posted there), so it
  /// needs no locking — the single-reactor invariant, per shard.
  struct IoShard {
    Reactor reactor;
    std::map<int, Session> sessions;
    /// Packet-ins decoded in this wakeup, in arrival order.
    std::vector<of::PacketIn> packetIns;
  };

  void onAccept(std::uint32_t events);
  /// Registers an accepted fd on @p shard (runs on that shard's reactor
  /// thread) and kicks off the server-side handshake.
  void adoptSession(IoShard& shard, int fd, Session session);
  void onSession(IoShard& shard, int fd, std::uint32_t events);
  /// False = session must be torn down (framing error, protocol breach).
  bool handleFrame(IoShard& shard, Session& session,
                   const Framer::Frame& frame);
  /// Hands the shard's collected packet-ins to the controller in one batch.
  void flushPacketIns(IoShard& shard);
  /// Flushes the batch first, so packet-ins read before the teardown are
  /// still delivered.
  void dropSession(IoShard& shard, int fd, const char* reason);

  ctrl::Controller& controller_;
  OfServerConfig config_;
  std::vector<std::unique_ptr<IoShard>> ioShards_;
  std::size_t nextIoShard_ = 0;  ///< Accept-thread-only round-robin cursor.
  int listenFd_ = -1;
  std::uint16_t boundPort_ = 0;
  bool started_ = false;

  // Cross-thread observability.
  std::atomic<std::size_t> connections_{0};
  std::atomic<std::size_t> attached_{0};
  std::atomic<std::uint64_t> framingErrors_{0};
  std::mutex waitMutex_;
  std::condition_variable waitCv_;
};

}  // namespace sdnshield::net
