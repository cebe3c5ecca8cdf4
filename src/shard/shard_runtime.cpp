#include "shard/shard_runtime.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "core/engine/permission_engine.h"
#include "isolation/executor.h"

namespace sdnshield::shard {

namespace {

/// Per-shard ring capacity (a power of two). A full ring back-pressures
/// producers with a spin-yield, never a lock.
constexpr std::size_t kRingCapacity = 4096;
/// Idle doorbell wait; bounds shutdown latency, not correctness.
constexpr std::chrono::milliseconds kIdleWait{50};

struct RuntimeMetrics {
  obs::Counter calls = obs::Registry::global().counter("shard.calls");
  obs::Counter inlineRuns = obs::Registry::global().counter("shard.inline");
  obs::Counter fences = obs::Registry::global().counter("shard.fences");
  obs::Counter taskFaults = obs::Registry::global().counter("shard.task_faults");
};

const RuntimeMetrics& metrics() {
  static const RuntimeMetrics m;
  return m;
}

// Loop-thread identity: which runtime and which shard index own the calling
// thread. Lets call() run inline on its own loop and refuse loop-to-loop
// fences without any lookup.
thread_local const void* t_loopRuntime = nullptr;
thread_local std::size_t t_loopShard = 0;

}  // namespace

struct ShardRuntime::Shard {
  std::size_t index = 0;
  MpscRing<Task> ring;
  Doorbell doorbell;
  std::thread thread;
  obs::Counter tasks;
  obs::Counter wakeups;

  explicit Shard(std::size_t idx)
      : index(idx),
        ring(kRingCapacity),
        tasks(obs::Registry::global().counter(
            obs::shardMetricName("tasks", idx))),
        wakeups(obs::Registry::global().counter(
            obs::shardMetricName("wakeups", idx))) {}
};

ShardRuntime::ShardRuntime(ShardOptions options) : router_(options.shards) {}

ShardRuntime::~ShardRuntime() { stop(); }

void ShardRuntime::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);
  shards_.clear();
  shards_.reserve(router_.shards());
  for (std::size_t i = 0; i < router_.shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
  if (iso::VirtualExecutor* executor = iso::virtualExecutor()) {
    // Model-checking mode: no loop threads. Each shard's queue lives in the
    // virtual scheduler and every dispatched task is one explorable step.
    virtualized_ = true;
    for (const auto& shard : shards_) {
      executor->registerQueue(shard.get(),
                              "shard" + std::to_string(shard->index));
    }
    running_.store(true, std::memory_order_release);
    return;
  }
  running_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw] { runLoop(*raw); });
  }
}

void ShardRuntime::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (virtualized_) {
    if (iso::VirtualExecutor* executor = iso::virtualExecutor()) {
      for (const auto& shard : shards_) {
        executor->drainQueue(shard.get());
        executor->unregisterQueue(shard.get());
      }
    }
    virtualized_ = false;
    shards_.clear();
    return;
  }
  // No push may land after the final drain: wait out in-flight producers
  // (they either complete their push — which the drain below collects — or
  // observe stopping_ and run inline).
  while (pushers_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  for (const auto& shard : shards_) shard->doorbell.ring();
  for (const auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Safety net for tasks pushed in the join window: run them here so a
  // blocked call() can never strand.
  for (const auto& shard : shards_) {
    Task task;
    while (shard->ring.tryPop(task)) {
      runTask(*shard, task);
      task = nullptr;
    }
  }
  shards_.clear();
}

void ShardRuntime::runLoop(Shard& shard) {
  t_loopRuntime = this;
  t_loopShard = shard.index;
  for (;;) {
    Task task;
    bool ran = false;
    while (shard.ring.tryPop(task)) {
      ran = true;
      runTask(shard, task);
      task = nullptr;  // Release promptly: guards must not outlive the step.
    }
    if (stopping_.load(std::memory_order_acquire)) {
      while (shard.ring.tryPop(task)) {
        runTask(shard, task);
        task = nullptr;
      }
      break;
    }
    if (!ran && shard.doorbell.wait(kIdleWait)) {
      shard.wakeups.increment();
    }
  }
  t_loopRuntime = nullptr;
}

void ShardRuntime::runTask(Shard& shard, Task& task) {
  // Counted before running: a call() payload wakes its caller from inside
  // task(), and the caller's stats() must already include that task.
  tasks_.fetch_add(1, std::memory_order_relaxed);
  shard.tasks.increment();
  try {
    task();
  } catch (...) {
    // Contained like any dispatch fault; call() payloads catch and carry
    // their exception back to the caller before it gets here.
    metrics().taskFaults.increment();
  }
}

bool ShardRuntime::enqueue(std::size_t shard, Task task) {
  pushers_.fetch_add(1, std::memory_order_acq_rel);
  Shard& target = *shards_[shard];
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      pushers_.fetch_sub(1, std::memory_order_release);
      return false;
    }
    if (target.ring.tryPush(task)) break;
    std::this_thread::yield();  // Ring momentarily full; consumer is live.
  }
  target.doorbell.ring();
  pushers_.fetch_sub(1, std::memory_order_release);
  return true;
}

void ShardRuntime::runOnShard(std::size_t shard,
                              const std::function<void()>& fn) {
  call(shard, fn);
}

void ShardRuntime::call(std::size_t shard, const Task& task) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  metrics().calls.increment();
  if (!running_.load(std::memory_order_acquire)) {
    inlineRuns_.fetch_add(1, std::memory_order_relaxed);
    metrics().inlineRuns.increment();
    task();
    return;
  }
  if (virtualized_) {
    struct VirtualState {
      bool done = false;
      std::exception_ptr error;
    };
    auto state = std::make_shared<VirtualState>();
    iso::VirtualExecutor* executor = iso::virtualExecutor();
    bool queued =
        executor && executor->enqueue(shards_[shard].get(), [task, state] {
          try {
            task();
          } catch (...) {
            state->error = std::current_exception();
          }
          state->done = true;
        });
    if (!queued) {
      task();
      return;
    }
    executor->await([state] { return state->done; }, "shard.call");
    if (!state->done) return;  // Teardown: the drain/discard settles it.
    if (state->error) std::rethrow_exception(state->error);
    return;
  }
  if (t_loopRuntime == this) {
    // Already on one of our loops. Same shard: inline keeps ordering. A
    // different shard would mean loop-blocks-on-loop — run inline instead;
    // cycles are impossible when no loop ever waits on a sibling.
    inlineRuns_.fetch_add(1, std::memory_order_relaxed);
    metrics().inlineRuns.increment();
    task();
    return;
  }
  struct CallState {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
  };
  auto state = std::make_shared<CallState>();
  // The guard's destructor is the completion signal: it fires whether the
  // payload ran or was destroyed unrun, so the wait below can never strand.
  auto guard = std::shared_ptr<void>(nullptr, [state](void*) {
    std::lock_guard lock(state->mutex);
    state->done = true;
    state->cv.notify_all();
  });
  Task payload = [task, state, guard = std::move(guard)]() mutable {
    try {
      task();
    } catch (...) {
      state->error = std::current_exception();
    }
    guard.reset();
  };
  if (!enqueue(shard, std::move(payload))) {
    inlineRuns_.fetch_add(1, std::memory_order_relaxed);
    metrics().inlineRuns.increment();
    task();
    return;
  }
  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&] { return state->done; });
  if (state->error) std::rethrow_exception(state->error);
}

bool ShardRuntime::fence(const std::function<void(std::size_t)>& perShard) {
  if (!running_.load(std::memory_order_acquire)) {
    if (perShard) {
      for (std::size_t i = 0; i < shardCount(); ++i) perShard(i);
    }
    return true;
  }
  if (!virtualized_ && t_loopRuntime == this) return false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    call(i, [&perShard, i] {
      if (perShard) perShard(i);
    });
  }
  fences_.fetch_add(1, std::memory_order_relaxed);
  metrics().fences.increment();
  return true;
}

std::optional<std::size_t> ShardRuntime::currentShard() const {
  if (t_loopRuntime == this) return t_loopShard;
  return std::nullopt;
}

void ShardRuntime::attach(ctrl::Controller& controller) {
  controller.setShardDispatch(this);
}

void ShardRuntime::detach(ctrl::Controller& controller) {
  controller.setShardDispatch(nullptr);
  // Drain in-flight routed work so nothing still references the controller
  // once the caller proceeds to tear it down.
  fence({});
}

void ShardRuntime::attachEngine(engine::PermissionEngine& engine) {
  engine.setPublishFence([this] {
    // Epoch publish ordering (DESIGN.md §16): the table swap and version
    // bump happened-before this fence; each loop then drops its table pin,
    // so every shard's next check resolves against the new epoch — the
    // cross-shard mailbox for policy publishes.
    fence([](std::size_t) { engine::PermissionEngine::releaseThreadPin(); });
  });
}

void ShardRuntime::detachEngine(engine::PermissionEngine& engine) {
  engine.setPublishFence({});
}

ShardStats ShardRuntime::stats() const {
  ShardStats out;
  out.tasks = tasks_.load(std::memory_order_relaxed);
  out.calls = calls_.load(std::memory_order_relaxed);
  out.inlineRuns = inlineRuns_.load(std::memory_order_relaxed);
  out.fences = fences_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sdnshield::shard
