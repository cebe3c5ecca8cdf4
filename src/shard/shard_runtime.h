// The sharded controller substrate (DESIGN.md §16): N per-core event
// loops, each owning a lock-free MPSC ring + doorbell and (via
// thread-locality) its own permission-table pin. A deterministic Router
// maps dpid -> shard; cross-shard traffic exists only for topology-wide
// operations — policy epoch publishes (the engine publish fence), app
// quarantine and statsReport merges — which run as a fence: one task per
// shard, caller waits for all.
//
// shards=1 reproduces the pre-shard single pipeline bit-for-bit: every
// dpid routes to shard 0, packet-ins dispatch in arrival order on one
// loop, and the differential tests pin the equivalence.
//
// Under the deterministic interleaving explorer (src/mck) the loops are
// virtualized through the iso::VirtualExecutor seam exactly like
// ThreadContainer / KsdPool: no threads are spawned, each shard registers
// a task queue, and every dispatched task becomes one explorable step.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "controller/controller.h"
#include "obs/metrics.h"
#include "shard/ring.h"
#include "shard/router.h"

namespace sdnshield::engine {
class PermissionEngine;
}  // namespace sdnshield::engine

namespace sdnshield::shard {

struct ShardOptions {
  /// Event-loop count. 1 (the default) is the compatibility mode: a single
  /// loop owning everything.
  std::size_t shards = 1;
};

/// Aggregate runtime counters (merged across shards; see also the
/// per-shard "shard.s<N>.tasks" counters in the obs registry).
struct ShardStats {
  std::uint64_t tasks = 0;      ///< Tasks executed on shard loops.
  std::uint64_t calls = 0;      ///< Synchronous runOnShard/call round-trips.
  std::uint64_t inlineRuns = 0; ///< Tasks run on the caller (not running /
                                ///< same shard / cross-shard-from-loop).
  std::uint64_t fences = 0;     ///< Completed fence barriers.
};

class ShardRuntime final : public ctrl::ShardDispatch {
 public:
  using Task = std::function<void()>;

  explicit ShardRuntime(ShardOptions options = {});
  ~ShardRuntime() override;
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Spawns the shard loops (or registers virtual queues under mck).
  /// Idempotent.
  void start();
  /// Drains every ring, then joins/unregisters the loops. All producers
  /// must be quiesced first (detach the controller before stopping).
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- ctrl::ShardDispatch --------------------------------------------------
  std::size_t shardCount() const override { return router_.shards(); }
  std::size_t shardOf(of::DatapathId dpid) const override {
    return router_.shardOf(dpid);
  }
  void runOnShard(std::size_t shard, const std::function<void()>& fn) override;
  bool fenceShards() override { return fence({}); }

  // --- task submission ------------------------------------------------------
  /// Runs @p task to completion on @p shard and waits. Inline when the
  /// runtime is not running or the caller already is a shard loop (running
  /// it on the caller avoids loop-to-loop blocking cycles). Task exceptions
  /// propagate to the caller.
  void call(std::size_t shard, const Task& task);
  /// Barrier: runs @p perShard (may be empty) on every shard loop in index
  /// order, waiting for each — the cross-shard mailbox. Refused (returns
  /// false, runs nothing) from a shard loop, where blocking on siblings
  /// could cycle. Used for epoch publishes, quarantine and stats merges.
  bool fence(const std::function<void(std::size_t)>& perShard);

  /// Shard loop the calling thread belongs to, if any.
  std::optional<std::size_t> currentShard() const;

  // --- wiring convenience ---------------------------------------------------
  /// controller.setShardDispatch(this). Call after start().
  void attach(ctrl::Controller& controller);
  /// Clears the dispatch and fences so no in-flight task still references
  /// the controller when the caller proceeds to tear things down.
  void detach(ctrl::Controller& controller);
  /// Installs the engine's publish fence: every installAll epoch swap runs
  /// a barrier over all shard loops that drops each loop's thread-local
  /// permission-table pin — the per-shard epoch handover. The engine must
  /// outlive this runtime or be detached first.
  void attachEngine(engine::PermissionEngine& engine);
  void detachEngine(engine::PermissionEngine& engine);

  ShardStats stats() const;

 private:
  struct Shard;

  /// Enqueues onto the shard's ring (spin-yield on full) and rings the
  /// doorbell. False when the runtime is stopping — caller runs inline.
  bool enqueue(std::size_t shard, Task task);
  void runLoop(Shard& shard);
  void runTask(Shard& shard, Task& task);

  Router router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Producers in enqueue(); stop() waits for this to hit zero after
  /// setting stopping_, so no push can land after the final drain.
  std::atomic<std::int64_t> pushers_{0};
  bool virtualized_ = false;

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> inlineRuns_{0};
  std::atomic<std::uint64_t> fences_{0};
};

}  // namespace sdnshield::shard
