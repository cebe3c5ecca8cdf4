#include "isolation/ksd.h"

#include "isolation/thread_container.h"
#include "obs/metrics.h"

namespace sdnshield::iso {

namespace {

/// Deputy-pool metrics. All KsdPool instances share these names — the pool
/// is a process-level resource (one per runtime in production; tests that
/// build several simply aggregate).
struct KsdMetrics {
  obs::Gauge queueDepth = obs::Registry::global().gauge("ksd.queue_depth");
  obs::Histogram callLatency =
      obs::Registry::global().histogram("ksd.call_ns");
  obs::Counter calls = obs::Registry::global().counter("ksd.calls");
  obs::Counter deadlineMisses =
      obs::Registry::global().counter("ksd.deadline_miss");
  obs::Counter queueRejects =
      obs::Registry::global().counter("ksd.queue_reject");
  obs::Counter faults = obs::Registry::global().counter("ksd.fault");
  obs::Counter processed = obs::Registry::global().counter("ksd.processed");
  obs::Histogram batchSize =
      obs::Registry::global().histogram("ksd.batch_size");
  obs::Gauge inFlight = obs::Registry::global().gauge("ksd.inflight");
};

const KsdMetrics& ksdMetrics() {
  static const KsdMetrics metrics;
  return metrics;
}

}  // namespace

void recordKsdQueueDelta(std::int64_t delta) {
  ksdMetrics().queueDepth.add(delta);
}

void recordKsdCall(std::int64_t latencyNs) {
  ksdMetrics().calls.increment();
  ksdMetrics().callLatency.record(latencyNs);
}

void recordKsdDeadlineMiss() { ksdMetrics().deadlineMisses.increment(); }

void recordKsdQueueReject() { ksdMetrics().queueRejects.increment(); }

void recordKsdBatch(std::size_t size) {
  ksdMetrics().batchSize.record(static_cast<std::int64_t>(size));
}

void recordKsdInFlightDelta(std::int64_t delta) {
  ksdMetrics().inFlight.add(delta);
}

void KsdPool::start() {
  if (started_) return;
  started_ = true;
  if (VirtualExecutor* executor = virtualExecutor()) {
    // Model-checking mode: no deputy threads. The channel lives in the
    // virtual scheduler; each queued request is one explorable step.
    virtualized_ = true;
    executor->registerQueue(this, "ksd");
    return;
  }
  threads_.reserve(threadCount_);
  for (std::size_t i = 0; i < threadCount_; ++i) {
    threads_.emplace_back([this] { run(); });
  }
}

void KsdPool::stop() {
  queue_.close();
  if (virtualized_) {
    if (VirtualExecutor* executor = virtualExecutor()) {
      executor->drainQueue(this);
      // Each lane's last step frees it, so draining empties lanes_.
      while (true) {
        std::vector<const void*> tags;
        {
          std::lock_guard lock(lanesMutex_);
          for (auto& [key, lane] : lanes_) tags.push_back(&lane);
        }
        if (tags.empty()) break;
        for (const void* tag : tags) executor->drainQueue(tag);
      }
      executor->unregisterQueue(this);
    }
    virtualized_ = false;
    return;
  }
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

bool KsdPool::submit(std::function<void()> work, std::optional<LaneKey> lane) {
  if (FaultInjector::instance().injectQueueFull(sites::kKsdQueue)) {
    recordKsdQueueReject();
    return false;
  }
  if (lane) return submitToLane(*lane, std::move(work));
  if (virtualized_) {
    if (queue_.closed()) return false;
    VirtualExecutor* executor = virtualExecutor();
    if (!executor) return false;
    return executor->enqueue(
        this, [this, work = std::move(work)]() mutable {
          runDeputyTask(work);
        });
  }
  if (!queue_.pushFor(Work{std::move(work)}, callTimeout_)) {
    recordKsdQueueReject();
    return false;
  }
  recordKsdQueueDelta(1);
  return true;
}

bool KsdPool::submitToLane(const LaneKey& key, std::function<void()> work) {
  std::lock_guard lock(lanesMutex_);
  if (queue_.closed()) return false;
  if (laneCalls_ >= kQueueCapacity) {
    recordKsdQueueReject();
    return false;
  }
  auto [it, created] = lanes_.try_emplace(key);
  Lane& lane = it->second;
  if (created) lane.key = key;
  if (virtualized_) {
    VirtualExecutor* executor = virtualExecutor();
    if (executor && created) {
      executor->registerQueue(&lane, "ksd.lane:" + std::to_string(key.app) +
                                         "/" + std::to_string(key.dpid));
    }
    // Each call is one explorable step of the lane's own queue.
    auto step = [this, lane = &lane, work = std::move(work)]() mutable {
      runLaneStep(lane, work);
    };
    bool queued = executor && executor->enqueue(&lane, std::move(step));
    if (!queued) {
      if (lane.stepsQueued == 0) {
        if (executor) executor->unregisterQueue(&lane);
        lanes_.erase(it);
      }
      return false;
    }
    ++lane.stepsQueued;
    return true;
  }
  if (created) {
    // The lane's one turn; later calls join the lane behind it.
    if (!queue_.tryPush(Work{nullptr, &lane})) {
      lanes_.erase(it);
      recordKsdQueueReject();
      return false;
    }
  }
  lane.calls.push_back(std::move(work));
  ++laneCalls_;
  recordKsdQueueDelta(1);
  return true;
}

void KsdPool::runLaneStep(Lane* lane, std::function<void()>& task) {
  runDeputyTask(task);
  task = nullptr;
  std::lock_guard lock(lanesMutex_);
  if (--lane->stepsQueued > 0) return;
  if (VirtualExecutor* executor = virtualExecutor()) {
    executor->unregisterQueue(lane);
  }
  LaneKey key = lane->key;
  lanes_.erase(key);
}

std::size_t KsdPool::runLaneTurn(Lane* lane) {
  std::function<void()> batch[kBatchMax];
  std::size_t ran = 0;
  while (true) {
    std::size_t taken = 0;
    {
      std::lock_guard lock(lanesMutex_);
      if (lane->calls.empty()) {
        LaneKey key = lane->key;
        lanes_.erase(key);
        return ran;
      }
      // After a full turn, yield the deputy: the lane's next turn queues
      // behind other work. A closed or saturated queue keeps it here.
      if (ran > 0 && queue_.tryPush(Work{nullptr, lane})) return ran;
      while (taken < kBatchMax && !lane->calls.empty()) {
        batch[taken++] = std::move(lane->calls.front());
        lane->calls.pop_front();
      }
      laneCalls_ -= taken;
    }
    recordKsdQueueDelta(-static_cast<std::int64_t>(taken));
    for (std::size_t i = 0; i < taken; ++i) {
      runDeputyTask(batch[i]);
      // Release eagerly: a call's promise and slot guard must not outlive
      // it while later calls run.
      batch[i] = nullptr;
    }
    ran += taken;
  }
}

void KsdPool::runDeputyTask(std::function<void()>& task) {
  // Deputies are trusted kernel threads: full privilege.
  ScopedIdentity identity(of::kKernelAppId);
  try {
    FaultInjector::instance().inject(sites::kKsdTask);
    task();
  } catch (...) {
    // Contained: call() wraps its work in a promise, so only raw
    // submit() tasks and injected faults land here. A deputy must
    // survive them — it serves every app.
    faults_.fetch_add(1, std::memory_order_relaxed);
    ksdMetrics().faults.increment();
  }
  processed_.fetch_add(1, std::memory_order_relaxed);
  ksdMetrics().processed.increment();
}

void KsdPool::invokeAll(std::vector<std::function<void()>> jobs) {
  if (jobs.empty()) return;
  struct BatchState {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t pending = 0;
    std::size_t completed = 0;
    std::exception_ptr firstError;
  };
  auto state = std::make_shared<BatchState>();
  state->pending = jobs.size();

  for (std::function<void()>& job : jobs) {
    // The guard's destructor is the barrier signal: it fires whether the
    // job ran, threw, or was destroyed unrun (injected deputy fault, queue
    // teardown) — the wait below can never hang on a dropped task.
    auto guard = std::shared_ptr<void>(nullptr, [state](void*) {
      std::lock_guard lock(state->mutex);
      if (--state->pending == 0) state->cv.notify_all();
    });
    auto wrapped = [state, guard = std::move(guard),
                    job = std::move(job)]() mutable {
      try {
        job();
        std::lock_guard lock(state->mutex);
        ++state->completed;
      } catch (...) {
        std::lock_guard lock(state->mutex);
        ++state->completed;
        if (!state->firstError) state->firstError = std::current_exception();
      }
    };
    if (!submit(wrapped)) wrapped();  // Saturated/stopped: run inline.
  }

  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->pending == 0; });
  if (state->firstError) std::rethrow_exception(state->firstError);
  if (state->completed != jobs.size()) {
    throw std::runtime_error("KSD batch job dropped before running");
  }
}

std::size_t KsdPool::runWork(Work& work) {
  if (work.lane != nullptr) return runLaneTurn(work.lane);
  recordKsdQueueDelta(-1);
  runDeputyTask(work.call);
  // Release eagerly: its shared promise / slot guards must not outlive the
  // call while later work runs.
  work.call = nullptr;
  return 1;
}

void KsdPool::run() {
  // Deputies are trusted kernel threads: full privilege.
  ScopedIdentity identity(of::kKernelAppId);
  while (auto work = queue_.pop()) {
    // After the blocking pop, keep taking queued work until kBatchMax calls
    // ran, so a burst is served under one wakeup and one span. Items are
    // taken one at a time: a deputy never holds a lane's turn while another
    // item runs, so a hung call cannot stall a lane it did not start. The
    // app-side permission context is resolved inside each task against the
    // caller's identity captured at submit time, so coalescing is safe.
    OBS_SPAN("ksd.batch");
    std::size_t calls = runWork(*work);
    while (calls < kBatchMax) {
      auto more = queue_.tryPop();
      if (!more) break;
      calls += runWork(*more);
    }
    recordKsdBatch(calls);
  }
}

}  // namespace sdnshield::iso
