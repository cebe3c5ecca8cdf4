// Non-blocking epoll reactor: one event-loop thread multiplexing thousands
// of file descriptors (DESIGN.md §15). Level-triggered, so handlers may
// leave data unread under backpressure and will simply be called again;
// an eventfd provides the cross-thread wakeup for post()ed tasks.
//
// Threading contract:
//   * add()/rearm()/remove()/post() are safe from any thread.
//   * Handlers run on the reactor thread, one at a time — per-fd state
//     touched only by handlers needs no locking.
//   * remove() from within the fd's own handler is allowed (dispatch holds
//     a reference to the handler for the duration of the call).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sdnshield::net {

class Reactor {
 public:
  /// Receives the ready epoll event mask (EPOLLIN / EPOLLOUT / EPOLLHUP...).
  using IoHandler = std::function<void(std::uint32_t events)>;

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers @p fd for @p events (EPOLLIN etc.). The fd must already be
  /// non-blocking. Returns false when epoll rejects it.
  bool add(int fd, std::uint32_t events, IoHandler handler);

  /// Changes the interest set of a registered fd (e.g. arming EPOLLOUT
  /// while a transmit buffer drains).
  bool rearm(int fd, std::uint32_t events);

  /// Deregisters the fd. Does not close it — fd ownership stays with the
  /// caller. Safe from within the fd's own handler.
  void remove(int fd);

  /// Enqueues a task to run on the reactor thread; wakes the loop.
  void post(std::function<void()> task);

  /// Runs @p hook on the reactor thread once per wakeup, after the ready
  /// fds' handlers and before posted tasks (e.g. to hand the wakeup's
  /// decoded messages on in one batch). Set before start() or run().
  void setWakeupHook(std::function<void()> hook) {
    wakeupHook_ = std::move(hook);
  }

  /// Spawns the loop thread. start()/stop() pair; idempotent start returns
  /// false if already running.
  bool start();

  /// Requests loop exit and joins the thread. Safe to call twice.
  void stop();

  /// Runs the loop on the calling thread until stop() (for tests that want
  /// deterministic single-thread dispatch).
  void run();

  bool onReactorThread() const {
    return std::this_thread::get_id() == loopThreadId_.load();
  }

  /// Number of registered fds (excluding the internal wakeup fd).
  std::size_t fdCount() const;

 private:
  void wake();
  void drainTasks();
  void loop();

  int epollFd_ = -1;
  int wakeFd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> loopThreadId_{};
  std::thread thread_;
  bool threadStarted_ = false;
  std::function<void()> wakeupHook_;

  mutable std::mutex mutex_;  // Guards handlers_ and tasks_.
  std::map<int, std::shared_ptr<IoHandler>> handlers_;
  std::vector<std::function<void()>> tasks_;
};

}  // namespace sdnshield::net
