// Activity logging (paper §VII, Scenario 2): every mediated call is recorded
// with its decision, enabling forensic analysis after an attack. Besides API
// calls the log carries fault records (contained app crashes/hangs) and
// supervision records (health transitions, quarantines) so degraded-mode
// behaviour is forensically reconstructible too.
//
// The log is written on every deputy call and read rarely, so it stores
// structured fixed-size records and renders text only when read: an entry's
// `summary` is produced by entries()/entriesFor(), never by record().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/perm/api_call.h"

namespace sdnshield::engine {

/// What an audit entry describes.
enum class AuditKind {
  kApiCall,      ///< A mediated API call and its decision.
  kFault,        ///< A contained app fault (exception, dropped task...).
  kSupervision,  ///< A supervisor action (suspect, quarantine, drop batch).
  kLifecycle,    ///< An app-market lifecycle event (install/upgrade/...).
};

struct AuditEntry {
  std::uint64_t sequence = 0;
  AuditKind kind = AuditKind::kApiCall;
  of::AppId app = 0;
  perm::ApiCallType callType = perm::ApiCallType::kReadTopology;
  bool allowed = false;
  std::string summary;
  /// Supervision entries only: the most recent spans observed at the time
  /// of the action ("what was the controller doing when this app was
  /// quarantined"), formatted oldest-first.
  std::string spanTrail;

  std::string toString() const;
};

/// The fixed header of a retained entry: everything but its rendered text.
struct AuditRecord {
  std::uint64_t sequence = 0;
  AuditKind kind = AuditKind::kApiCall;
  of::AppId app = 0;
  perm::ApiCallType callType = perm::ApiCallType::kReadTopology;
  bool allowed = false;
};

namespace detail {
/// The ring's fixed-size record and its out-of-line part (audit.cpp).
struct AuditSlot;
struct AuditSpill;
}  // namespace detail

class AuditLog {
 public:
  explicit AuditLog(std::size_t capacity = 65536);
  ~AuditLog();
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Ring-buffer retention: when the log holds @p capacity entries the next
  /// record evicts the oldest (counted in droppedCount() and the
  /// "audit.dropped" obs counter). Shrinking below the current size evicts
  /// (and counts) the overflow immediately.
  void setCapacity(std::size_t capacity);
  std::size_t capacity() const;

  void record(const perm::ApiCall& call, bool allowed,
              const std::string& reason = {});
  /// Records a contained app fault (never a permission decision).
  void recordFault(of::AppId app, const std::string& what);
  /// Records a supervisor action taken against @p app. The optional
  /// @p spanTrail carries the recent-span context captured by the caller.
  void recordSupervision(of::AppId app, const std::string& what,
                         std::string spanTrail = {});
  /// Records an app-market lifecycle event (install, upgrade with its
  /// permission diff, revoke, policy epoch swap) against @p app.
  void recordLifecycle(of::AppId app, const std::string& what);

  std::vector<AuditEntry> entries() const;
  std::vector<AuditEntry> entriesFor(of::AppId app) const;
  /// Cursor read for pollers: calls @p visit on the header of every
  /// retained entry with sequence >= @p from, oldest first, without
  /// rendering a summary or touching a spill, and returns the sequence to
  /// pass next time. Entries evicted since the last call are skipped.
  /// @p visit runs under the log's lock and must not call back into it.
  std::uint64_t visitSince(
      std::uint64_t from,
      const std::function<void(const AuditRecord&)>& visit) const;
  std::uint64_t totalRecorded() const;
  std::uint64_t deniedCount() const;
  /// Contained-fault entries recorded (not counted as denials).
  std::uint64_t faultCount() const;
  /// Entries evicted by ring-buffer retention since construction/clear().
  /// totalRecorded() still counts every record ever made, so
  /// totalRecorded() - droppedCount() == entries().size().
  std::uint64_t droppedCount() const;
  void clear();

 private:
  using Slot = detail::AuditSlot;

  struct SpillDeleter {
    void operator()(detail::AuditSpill* spill) const;
  };
  using SpillPtr = std::unique_ptr<detail::AuditSpill, SpillDeleter>;

  void recordText(AuditKind kind, of::AppId app, std::string text,
                  std::string spanTrail);
  /// Appends @p slot (taking ownership of @p spill) under the lock.
  void publish(Slot slot, SpillPtr spill);
  /// Copies the retained slots (of @p app only, when @p filter) under the
  /// lock, pinning their spills, and decodes them after releasing it.
  std::vector<AuditEntry> collect(bool filter, of::AppId app) const;
  Slot& slotAt(std::uint64_t sequence) const;
  void evictOverflowLocked();
  /// Drops the ring's reference to every retained entry's spill.
  void unpinRetainedLocked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t nextSequence_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t faults_ = 0;
  /// Also the sequence number of the oldest retained entry.
  std::uint64_t dropped_ = 0;
  /// Fixed-size chunks of slots, allocated on first write and reused once
  /// the ring wraps. Chunk c of the sequence space lives at
  /// chunks_[c % chunks_.size()].
  std::vector<std::unique_ptr<Slot[]>> chunks_;
};

}  // namespace sdnshield::engine
