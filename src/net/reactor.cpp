#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"

namespace sdnshield::net {

namespace {
const obs::Counter g_dispatches =
    obs::Registry::global().counter("net.reactor.dispatches");
const obs::Counter g_wakeups =
    obs::Registry::global().counter("net.reactor.wakeups");
}  // namespace

Reactor::Reactor() {
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
  wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeFd_ < 0) {
    int savedErrno = errno;
    ::close(epollFd_);
    throw std::runtime_error(std::string("eventfd: ") +
                             std::strerror(savedErrno));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wakeFd_;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &event) < 0) {
    int savedErrno = errno;
    ::close(wakeFd_);
    ::close(epollFd_);
    throw std::runtime_error(std::string("epoll_ctl(wakeFd): ") +
                             std::strerror(savedErrno));
  }
}

Reactor::~Reactor() {
  stop();
  ::close(wakeFd_);
  ::close(epollFd_);
}

bool Reactor::add(int fd, std::uint32_t events, IoHandler handler) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  {
    std::lock_guard lock(mutex_);
    handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  }
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &event) < 0) {
    std::lock_guard lock(mutex_);
    handlers_.erase(fd);
    return false;
  }
  return true;
}

bool Reactor::rearm(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  return ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &event) == 0;
}

void Reactor::remove(int fd) {
  ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  std::lock_guard lock(mutex_);
  handlers_.erase(fd);
}

void Reactor::post(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake();
}

bool Reactor::start() {
  if (threadStarted_) return false;
  stop_.store(false);
  thread_ = std::thread([this] { loop(); });
  threadStarted_ = true;
  return true;
}

void Reactor::stop() {
  stop_.store(true);
  wake();
  if (threadStarted_ && thread_.joinable()) thread_.join();
  threadStarted_ = false;
}

void Reactor::run() {
  stop_.store(false);
  loop();
}

std::size_t Reactor::fdCount() const {
  std::lock_guard lock(mutex_);
  return handlers_.size();
}

void Reactor::wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
  g_wakeups.increment();
}

void Reactor::drainTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard lock(mutex_);
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) task();
}

void Reactor::loop() {
  loopThreadId_.store(std::this_thread::get_id());
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stop_.load()) {
    int ready = ::epoll_wait(epollFd_, events, kMaxEvents, /*timeout=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // Reactor fd itself is broken; nothing sensible to do.
    }
    for (int i = 0; i < ready; ++i) {
      int fd = events[i].data.fd;
      if (fd == wakeFd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t n =
            ::read(wakeFd_, &drained, sizeof(drained));
        continue;
      }
      std::shared_ptr<IoHandler> handler;
      {
        std::lock_guard lock(mutex_);
        auto it = handlers_.find(fd);
        if (it != handlers_.end()) handler = it->second;
      }
      if (handler) {
        g_dispatches.increment();
        (*handler)(events[i].events);
      }
    }
    if (wakeupHook_) wakeupHook_();
    drainTasks();
  }
  // One final drain so post()ed cleanups are not stranded.
  drainTasks();
  loopThreadId_.store(std::thread::id{});
}

}  // namespace sdnshield::net
