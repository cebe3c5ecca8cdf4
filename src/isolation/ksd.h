// Kernel Service Deputy pool (paper §VI-A): privileged threads that receive
// app API requests over the inter-thread channel, permission-check them and
// execute them on the app's behalf. Multiple deputies run in parallel —
// "the choke points do not mean serialized points".
//
// Ordered lanes: a call that names a switch runs on the lane keyed by
// (app, dpid), a strand on the shared queue. One lane's calls run FIFO, one
// at a time, so an app's pipelined flow-mod and packet-out to one switch
// reach it in submission order; different lanes run on different deputies
// in parallel, so a hung call stalls only its own lane. This is the
// per-(sender, receiver) FIFO channel of actor-model SDN checking. Lanes
// are created on a switch's first call and freed once drained, and under a
// VirtualExecutor each lane is an explorable queue of its own.
//
// Availability: call() carries a deadline so a hung or saturated deputy can
// only stall the calling app for a bounded time (DeadlineExceeded), never
// forever. Results travel through a shared-ownership promise: an abandoned
// timed call leaves nothing dangling for the deputy to scribble on. Deputy
// task faults are contained and counted instead of terminating the process.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "isolation/channel.h"
#include "isolation/executor.h"
#include "isolation/fault_injector.h"
#include "obs/trace.h"
#include "of/flow_mod.h"

namespace sdnshield::iso {

/// Deputy-pool metric recorders (defined in ksd.cpp so the header-inline
/// hot paths stay free of registry plumbing). Registry metrics:
///   ksd.queue_depth (gauge), ksd.call_ns (histogram), ksd.calls,
///   ksd.deadline_miss, ksd.queue_reject, ksd.fault, ksd.processed,
///   ksd.batch_size (histogram), ksd.inflight (gauge).
void recordKsdQueueDelta(std::int64_t delta);
void recordKsdCall(std::int64_t latencyNs);
void recordKsdDeadlineMiss();
void recordKsdQueueReject();
void recordKsdBatch(std::size_t size);
void recordKsdInFlightDelta(std::int64_t delta);

/// Thrown to the calling app thread when a deputy misses the call deadline.
struct DeadlineExceeded : std::runtime_error {
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown on calls issued after stop(): the runtime is gone, there is no
/// degraded mode to fall back to (distinct from transient saturation).
struct PoolStopped : std::runtime_error {
  explicit PoolStopped(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when the deputy channel stays saturated past the pool deadline
/// (transient back-pressure, distinct from PoolStopped).
struct QueueSaturated : std::runtime_error {
  explicit QueueSaturated(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown when a queued call was discarded before a deputy ran it (the
/// queue was torn down with work still pending — the broken-promise path).
struct CallDropped : std::runtime_error {
  explicit CallDropped(const std::string& what) : std::runtime_error(what) {}
};

/// Bounded per-app window of asynchronous calls in flight: an app may keep
/// up to `capacity` deputy calls pending before the next submission blocks
/// (up to a deadline) or is rejected. Slots are released by RAII guards
/// owned by the queued deputy tasks, so a task that is discarded without
/// running still frees its slot.
class InFlightWindow {
 public:
  explicit InFlightWindow(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks until a slot frees up, at most @p timeout. False on timeout.
  bool acquireFor(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    if (!cv_.wait_for(lock, timeout,
                      [this] { return inFlight_ < capacity_; })) {
      return false;
    }
    ++inFlight_;
    recordKsdInFlightDelta(1);
    return true;
  }

  bool tryAcquire() {
    std::lock_guard lock(mutex_);
    if (inFlight_ >= capacity_) return false;
    ++inFlight_;
    recordKsdInFlightDelta(1);
    return true;
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      if (inFlight_ > 0) --inFlight_;
    }
    recordKsdInFlightDelta(-1);
    cv_.notify_one();
  }

  std::size_t inFlight() const {
    std::lock_guard lock(mutex_);
    return inFlight_;
  }
  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t capacity_;
  std::size_t inFlight_ = 0;
};

/// Names a deputy lane: one app's calls to one switch.
struct LaneKey {
  of::AppId app = 0;
  of::DatapathId dpid = 0;
  friend bool operator==(const LaneKey&, const LaneKey&) = default;
};

class KsdPool {
 public:
  static constexpr std::chrono::milliseconds kDefaultCallTimeout{10000};
  /// Max calls a deputy runs per wakeup (one obs span, one batch-size
  /// sample), and per turn of one lane before the lane yields the deputy.
  static constexpr std::size_t kBatchMax = 16;
  /// Bound on queued calls, for the shared queue and for all lanes together.
  static constexpr std::size_t kQueueCapacity = 65536;

  explicit KsdPool(std::size_t threads = 2,
                   std::chrono::milliseconds callTimeout = kDefaultCallTimeout)
      : threadCount_(threads), callTimeout_(callTimeout) {}
  ~KsdPool() { stop(); }

  KsdPool(const KsdPool&) = delete;
  KsdPool& operator=(const KsdPool&) = delete;

  void start();
  void stop();

  /// Enqueues work for a deputy: on @p lane's FIFO when given, else on the
  /// shared queue. Returns false after stop() or when the channel stays
  /// saturated past the pool deadline (a lane over kQueueCapacity rejects
  /// at once).
  bool submit(std::function<void()> work,
              std::optional<LaneKey> lane = std::nullopt);

  /// Enqueues work and returns a std::future for its result — the
  /// asynchronous submission shape the in-flight pipeline builds on. Throws
  /// PoolStopped after stop() and QueueSaturated when the channel stays full
  /// past the pool deadline. The promise is shared with the queued task, so
  /// a caller that abandons the future leaves nothing dangling, and a task
  /// discarded without running breaks the promise (std::future_error) and
  /// wakes any waiter. @p onDone, if set, runs when the task completes or
  /// is destroyed unrun (in-flight slot release rides on it). @p lane as in
  /// submit().
  template <typename R>
  std::future<R> submitFuture(std::function<R()> work,
                              std::shared_ptr<void> onDone = nullptr,
                              std::optional<LaneKey> lane = std::nullopt) {
    FaultInjector::instance().inject(sites::kKsdCall);
    auto result = std::make_shared<std::promise<R>>();
    std::future<R> future = result->get_future();
    bool posted = submit(
        [work = std::move(work), result, onDone = std::move(onDone)] {
          try {
            result->set_value(work());
          } catch (...) {
            result->set_exception(std::current_exception());
          }
        },
        lane);
    if (!posted) {
      if (queue_.closed()) throw PoolStopped("KSD pool is stopped");
      throw QueueSaturated("KSD channel saturated past the deadline");
    }
    // The queued task is now the promise's only owner: a dropped task
    // (queue torn down with work still queued) breaks the promise and wakes
    // the wait instead of running out the deadline.
    return future;
  }

  /// The one wait on a deputy's result, shared by call() and the async
  /// ApiFuture: on a virtualized pool the caller parks as a scheduler step
  /// (labelled @p what) instead of burning the wall clock; otherwise it
  /// waits until @p deadline. Throws DeadlineExceeded on a miss, CallDropped
  /// when the deputy discarded the call (broken promise), and rethrows the
  /// work's own exception. @p startNs (submission time) feeds ksd.call_ns.
  template <typename R>
  R await(std::future<R>& future,
          std::chrono::steady_clock::time_point deadline, std::int64_t startNs,
          std::string_view what) {
    auto done = [&future] {
      return future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    };
    bool ready;
    if (virtualized_) {
      if (VirtualExecutor* executor = virtualExecutor()) {
        executor->await(done, what);
      }
      ready = done();
    } else {
      ready = future.wait_until(deadline) == std::future_status::ready;
    }
    if (!ready) {
      recordKsdDeadlineMiss();
      throw DeadlineExceeded("KSD call missed its deadline");
    }
    recordKsdCall(obs::Tracer::nowNs() - startNs);
    try {
      return future.get();
    } catch (const std::future_error&) {
      throw CallDropped("KSD deputy dropped the call");
    }
  }

  /// Enqueues work and blocks the calling (app) thread for the result —
  /// the synchronous API-call shape apps see through the wrappers. Throws
  /// DeadlineExceeded when the deputy misses @p timeout, PoolStopped /
  /// QueueSaturated when the submission fails, and CallDropped when the
  /// deputy discarded the queued call. On @p lane the call runs after every
  /// call already queued there.
  template <typename R>
  R call(std::function<R()> work, std::chrono::milliseconds timeout,
         std::optional<LaneKey> lane = std::nullopt) {
    OBS_SPAN("ksd.call");
    std::int64_t startNs = obs::Tracer::nowNs();
    auto deadline = std::chrono::steady_clock::now() + timeout;
    std::future<R> future = submitFuture<R>(std::move(work), nullptr, lane);
    return await(future, deadline, startNs, "ksd.call");
  }

  template <typename R>
  R call(std::function<R()> work) {
    return call<R>(std::move(work), callTimeout_);
  }

  /// Fans a batch of independent CPU-bound jobs across the deputies and
  /// blocks until every job finished (or was dropped). The submitting
  /// thread participates: jobs the channel rejects run inline, so the batch
  /// always makes progress even under saturation or after stop(). Job
  /// exceptions are captured (never contained-and-lost by the deputy loop);
  /// after the barrier the first one is rethrown. A job dropped unrun (an
  /// injected deputy fault destroyed the queued task) surfaces as
  /// std::runtime_error — callers treat the whole batch as failed.
  /// Not for virtualized pools: the caller would park forever waiting on
  /// steps the scheduler has not been asked to run — gate on
  /// iso::virtualExecutor() and fall back to running jobs inline.
  void invokeAll(std::vector<std::function<void()>> jobs);

  std::size_t threadCount() const { return threadCount_; }
  std::chrono::milliseconds callTimeout() const { return callTimeout_; }
  std::uint64_t processedCount() const { return processed_.load(); }
  /// Deputy tasks that threw (contained, not fatal).
  std::uint64_t faultCount() const { return faults_.load(); }
  std::size_t queueDepth() const { return queue_.size(); }
  /// Lanes currently holding queued or running calls.
  std::size_t laneCount() const {
    std::lock_guard lock(lanesMutex_);
    return lanes_.size();
  }

 private:
  struct LaneKeyHash {
    std::size_t operator()(const LaneKey& key) const {
      return std::hash<std::uint64_t>()(key.dpid * 0x9e3779b97f4a7c15ULL ^
                                        key.app);
    }
  };
  /// A lane exists while it holds calls; in threaded mode exactly one turn
  /// of it is then queued or running.
  struct Lane {
    LaneKey key;
    std::deque<std::function<void()>> calls;  ///< Threaded mode.
    std::size_t stepsQueued = 0;  ///< Virtual mode: calls the executor holds.
  };
  /// A shared-queue item: one call, or one turn of a lane.
  struct Work {
    std::function<void()> call;
    Lane* lane = nullptr;
  };

  void run();
  /// Runs one shared-queue item; returns the calls it ran.
  std::size_t runWork(Work& work);
  bool submitToLane(const LaneKey& key, std::function<void()> work);
  /// Runs up to kBatchMax of the lane's calls in order, then frees the lane
  /// if it drained or queues its next turn behind other work.
  std::size_t runLaneTurn(Lane* lane);
  /// Virtual mode: one lane call as a scheduler step; frees a drained lane.
  void runLaneStep(Lane* lane, std::function<void()>& task);
  /// One containment-wrapped deputy task under kernel identity — shared
  /// between the real deputy loop and the virtual scheduler's steps.
  void runDeputyTask(std::function<void()>& task);

  std::size_t threadCount_;
  std::chrono::milliseconds callTimeout_;
  BoundedMpmcQueue<Work> queue_{kQueueCapacity};
  /// Lock order: lanesMutex_ before the shared queue's and the executor's.
  mutable std::mutex lanesMutex_;
  std::unordered_map<LaneKey, Lane, LaneKeyHash> lanes_;
  std::size_t laneCalls_ = 0;  ///< Queued across lanes, under lanesMutex_.
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> faults_{0};
  bool started_ = false;
  /// True when a VirtualExecutor owned the pool at start() — no deputy
  /// threads; tasks run as virtual scheduler steps.
  bool virtualized_ = false;
};

}  // namespace sdnshield::iso
