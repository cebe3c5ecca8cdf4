// L2 learning switch (the paper's first evaluation scenario, §IX-A): learns
// host positions from packet-in source MACs and installs exact-match
// switching rules; unknown destinations are flooded.
//
// Two northbound styles, selected at construction:
//  * pipelineWindow > 0 (the default, kDefaultPipelineWindow) — asynchronous
//    pipelining: the handler issues insertFlowAsync and sendPacketOutAsync
//    and returns, keeping up to pipelineWindow responses outstanding and
//    reaping the oldest future once the window is full. The app thread
//    stays busy admitting packet-ins while the deputies work the backlog
//    (§VI: choke points are not serialized points). Both calls name the
//    packet-in's switch, so they share the deputy lane (app, dpid) and the
//    packet-out reaches the switch after its flow-mod. rulesInstalled()
//    counts reaped inserts: call drainPending() before reading it.
//  * pipelineWindow == 0 — classic synchronous calls: each packet-in blocks
//    the app thread for two deputy round trips (insertFlow, then
//    sendPacketOut). Kept for the sync row of bench_throughput --pressure.
#pragma once

#include <deque>
#include <map>
#include <mutex>

#include "controller/api.h"

namespace sdnshield::apps {

class L2LearningSwitch final : public ctrl::App {
 public:
  static constexpr std::size_t kDefaultPipelineWindow = 8;

  explicit L2LearningSwitch(
      std::uint16_t rulePriority = 10,
      std::size_t pipelineWindow = kDefaultPipelineWindow)
      : priority_(rulePriority), pipelineWindow_(pipelineWindow) {}

  std::string name() const override { return "l2_learning"; }
  std::string requestedManifest() const override;
  void init(ctrl::AppContext& context) override;

  std::uint64_t packetsSeen() const;
  std::uint64_t rulesInstalled() const;

  /// Blocks until every outstanding async call has resolved (no-op in
  /// synchronous mode). Call before reading rulesInstalled().
  void drainPending();

 private:
  struct Pending {
    ctrl::ApiFuture<ctrl::ApiResult> future;
    bool countsRule = false;
  };

  void onPacketIn(const ctrl::PacketInEvent& event);
  /// Enqueues an in-flight call, reaping the oldest when the window is full.
  void track(ctrl::ApiFuture<ctrl::ApiResult> future, bool countsRule);
  void reap(Pending pending);

  ctrl::AppContext* context_ = nullptr;
  std::uint16_t priority_;
  std::size_t pipelineWindow_;
  mutable std::mutex mutex_;
  // Per-switch MAC -> port learning table.
  std::map<of::DatapathId, std::map<of::MacAddress, of::PortNo>> learned_;
  std::deque<Pending> pending_;
  std::uint64_t packetsSeen_ = 0;
  std::uint64_t rulesInstalled_ = 0;
};

}  // namespace sdnshield::apps
