// The permission engine (paper §VI-B): compiles permission manifests into
// flat checking programs and mediates every API call on the enforcement hot
// path. Checking is stateless, allocation-free on the allow path, and safe
// to run from many kernel-deputy threads concurrently.
//
// Hot-path design (three layers, see DESIGN.md "Permission hot path"):
//  1. Singleton filters are interned (core/perm/interner.h) so duplicate
//     literals across programs share one slot and one evaluation.
//  2. Filter expressions are optimized before compilation — constant
//     folding (stubs always deny, virtual-topology markers always pass),
//     duplicate-operand elimination, complement detection (X AND NOT X),
//     cheap-filters-first reordering — and compiled to a branch program
//     with short-circuit jumps evaluated by a single-register VM (no
//     evaluation stack to overflow).
//  3. PermissionEngine::check memoizes decisions per (app, canonical call
//     key) in a thread-local direct-mapped cache, and resolves the app's
//     compiled set in a per-thread pin of the whole app table validated by
//     a single version-counter load, touching shared state only when the
//     table actually changed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/perm/api_call.h"
#include "core/perm/filter.h"
#include "core/perm/permission.h"

namespace sdnshield::engine {

/// The outcome of a permission check.
struct Decision {
  bool allowed = false;
  /// Populated on deny: which token was missing or which filter failed.
  std::string reason;

  static Decision allow() { return Decision{true, {}}; }
  static Decision deny(std::string reason) {
    return Decision{false, std::move(reason)};
  }
};

/// Process-wide counters of the decision memo caches (see
/// PermissionEngine::check). The caches themselves are thread-local; the
/// counters aggregate across threads so end-to-end harnesses can report a
/// hit rate for checks performed on deputy threads.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double hitRate() const {
    std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A permission set compiled to per-token short-circuit branch programs.
class CompiledPermissions {
 public:
  /// Nesting depth bound of one compiled filter program (after
  /// optimization, which flattens AND/OR chains and folds NOT-chains, so
  /// only pathologically alternating expressions hit it). Deeper
  /// expressions make the constructor throw std::length_error.
  static constexpr std::size_t kMaxProgramDepth = 64;

  /// Recursion guard for the optimizer/compiler on raw (pre-flattening)
  /// trees; parser- or algebra-built chains beyond this are rejected with
  /// std::length_error before any recursive pass runs.
  static constexpr std::size_t kMaxExpressionDepth = 4096;

  explicit CompiledPermissions(const perm::PermissionSet& permissions);

  /// Evaluates the call against the compiled program. The required token
  /// must be granted and its filter program must label the call true.
  Decision check(const perm::ApiCall& call) const;

  bool hasToken(perm::Token token) const;

  /// First physical-topology filter granted on visible_topology, if any —
  /// the deputy uses it to project topology reads.
  const perm::PhysicalTopologyFilter* topologyProjection() const {
    return topologyProjection_.get();
  }

  /// Virtual-topology members when a VIRTUAL filter is granted on
  /// visible_topology (empty set = SINGLE_BIG_SWITCH over everything).
  const std::optional<std::set<of::DatapathId>>& virtualTopology() const {
    return virtualMembers_;
  }

  /// Source permissions (for introspection / reporting).
  const perm::PermissionSet& source() const { return source_; }

  /// Instructions in a token's compiled program (0 = unrestricted grant or
  /// token absent); introspection for tests and benches — the optimizer's
  /// folds show up as shorter programs.
  std::size_t programLength(perm::Token token) const;

  /// Process-unique identity of this compiled set; memo-cache entries are
  /// keyed on it, so a recompiled (reinstalled) set never aliases a stale
  /// decision.
  std::uint64_t instanceId() const { return instanceId_; }

 private:
  // One-register branch VM. kPush loads a filter label into the register;
  // kJumpIfFalse/kJumpIfTrue short-circuit AND/OR: taken, the register
  // already holds the result; not taken, the right operand overwrites it.
  enum class OpCode : std::uint8_t {
    kPush,         ///< reg = filters_[arg]->evaluate(call)
    kNot,          ///< reg = !reg
    kJumpIfFalse,  ///< if (!reg) goto arg
    kJumpIfTrue,   ///< if (reg) goto arg
    kConst,        ///< reg = (arg != 0)
  };
  struct Instr {
    OpCode op = OpCode::kPush;
    std::uint32_t arg = 0;  // Filter index, jump target, or constant.
  };
  struct TokenProgram {
    bool granted = false;
    std::vector<Instr> code;  // Empty = unrestricted grant.
  };

  void compileExpr(const perm::FilterExprPtr& expr, TokenProgram& program);
  std::uint32_t filterSlot(const perm::FilterPtr& filter);
  bool run(const TokenProgram& program, const perm::ApiCall& call) const;

  perm::PermissionSet source_;
  // Indexed by Token enum value; all 16 tokens (incl. market_admin) fit
  // exactly — widen when perm::Token grows past 16 values.
  TokenProgram programs_[16];
  std::vector<perm::FilterPtr> filters_;  // Interned + deduplicated.
  std::map<const perm::Filter*, std::uint32_t> filterSlots_;
  std::shared_ptr<const perm::PhysicalTopologyFilter> topologyProjection_;
  std::optional<std::set<of::DatapathId>> virtualMembers_;
  std::uint64_t instanceId_ = 0;
};

/// Process-wide cache of compiled permission programs, keyed on the
/// canonical text of the source permission set (PermissionSet::toString is
/// deterministic — tokens live in a std::map). CompiledPermissions is
/// app-agnostic and immutable, so one compiled object is safely shared
/// across apps, engines, and permission epochs; a market-wide updatePolicy
/// where most apps keep their grants compiles each distinct set once
/// instead of once per app. Entries hold strong references; at capacity the
/// least-recently-obtained entry is evicted (outstanding shared_ptrs — and
/// the thread-memo entries keyed on their instanceId() — stay valid as long
/// as any holder keeps them), so a market whose distinct-set population
/// exceeds the capacity keeps its hot programs cached instead of losing the
/// whole table to a wholesale clear.
class CompiledProgramCache {
 public:
  /// Default capacity: the LRU eviction threshold. Far above any real
  /// market (10k apps share a handful of policy-shaped sets).
  static constexpr std::size_t kMaxEntries = 4096;

  /// The process-wide cache used by PermissionEngine::install/installAll.
  static CompiledProgramCache& global();

  /// The compiled program for @p permissions: an existing entry when one
  /// matches, else a fresh compilation (outside the lock; concurrent
  /// compilers of the same set race benignly — first insert wins, both
  /// callers get the winner). Compilation errors (std::length_error)
  /// propagate and cache nothing. When disabled, always compiles fresh.
  std::shared_ptr<const CompiledPermissions> obtain(
      const perm::PermissionSet& permissions);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< Fresh compilations (incl. disabled mode).
    std::uint64_t evictions = 0;  ///< LRU evictions at capacity.
    std::size_t entries = 0;
  };
  Stats stats() const;

  /// Drops every entry (outstanding programs stay valid). Test hook.
  void clear();

  /// Bench/test hook: disabled, obtain() compiles fresh every call —
  /// the PR 5 behaviour — so before/after comparisons run in one binary.
  void setEnabled(bool enabled);
  bool enabled() const;

  /// Test hook: shrinks the LRU capacity (evicting cold entries as needed)
  /// so eviction behaviour is testable without 4k compilations.
  void setMaxEntries(std::size_t maxEntries);
  std::size_t maxEntries() const;

 private:
  struct Entry {
    std::shared_ptr<const CompiledPermissions> program;
    /// Position in lru_; spliced to the front on every hit.
    std::list<std::string>::iterator recency;
  };

  /// Evicts from the LRU tail until size < maxEntries_. Caller holds mutex_.
  void evictToCapacityLocked();

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< Front = most recently obtained.
  std::size_t maxEntries_ = kMaxEntries;
  bool enabled_ = true;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Registry of compiled permissions per app, the controller-wide mediator.
/// The kernel app (id 0) is always fully privileged.
///
/// check() and compiled() take no lock and write no shared reference count
/// while the permission epoch holds still. Each thread pins the whole app
/// table of the engine it last used, keyed on (engine id, table version):
/// one acquire load of the version validates the pin, the app is looked up
/// in the pinned immutable table (with a last-app shortcut), and the
/// compiled set is reached through a raw pointer the pin keeps alive. Only
/// the first call after an epoch change takes snapshotMutex_, once, to copy
/// the table pointer; a check therefore sees every pre-swap or every
/// post-swap grant, never a mixture. Repeated decisions are served from a
/// thread-local memo keyed on the canonicalized call attributes (exact key
/// comparison — a hash collision can never flip a decision). The pin is a
/// few words of its own: threads that only resolve compiled sets (deputy,
/// shard and app threads) never allocate the memo. (libstdc++'s
/// std::atomic<std::shared_ptr> is the same micro-mutex — an embedded
/// spinlock — but its GCC 12 implementation unlocks with a relaxed RMW in
/// load(), a formal data race that TSan reports; the plain mutex is
/// standard-clean and now off the steady-state path.)
class PermissionEngine {
 public:
  PermissionEngine();

  /// Compiles and installs the permissions of an app (at app load time).
  void install(of::AppId app, const perm::PermissionSet& permissions);
  void uninstall(of::AppId app);

  /// Atomically replaces the grants of many apps in ONE permission epoch:
  /// every set is compiled outside the locks, then a single table
  /// copy-and-swap publishes all of them together with one version bump.
  /// A concurrent check() observes either every pre-swap grant or every
  /// post-swap grant — never a mixture — which is what makes a live
  /// updatePolicy over the whole app market safe (the RCU-style epoch swap
  /// the market subsystem builds on). Throws (std::length_error from
  /// compilation) without touching the table.
  void installAll(
      const std::vector<std::pair<of::AppId, perm::PermissionSet>>& grants);

  /// installAll for callers that already hold compiled programs (the
  /// market's incremental updatePolicy: one CompiledProgramCache::obtain
  /// per reconcile unit, every member app sharing the program). Skips the
  /// per-app compile/lookup entirely — the swap cost is one map insert per
  /// app — and bumps the epoch once, exactly like the compiling overload.
  /// Sharing one program across apps is decision-safe: the thread-local
  /// memo keys on (program instance, serialized call incl. call.app).
  void installAll(
      std::vector<std::pair<of::AppId,
                            std::shared_ptr<const CompiledPermissions>>>
          programs);

  /// Current permission epoch: bumped once per install/uninstall/installAll
  /// swap. Two equal reads bracket a window in which no grant changed.
  std::uint64_t epoch() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Number of apps with installed permissions (leak-detection surface).
  std::size_t installedCount() const { return snapshot()->size(); }

  /// Checks one API call. Unknown apps are denied everything.
  Decision check(const perm::ApiCall& call) const;

  /// Compiled permissions of an app (nullptr when not installed).
  std::shared_ptr<const CompiledPermissions> compiled(of::AppId app) const;

  /// Process-wide decision memo counters (hits/misses recorded by any
  /// engine on any thread since the last reset).
  static MemoStats memoStats();
  static void resetMemoStats();

  /// Clears the CALLING thread's decision memo and drops its table pin.
  /// The shard runtime runs this on every loop inside the publish fence so
  /// each shard's memo domain hands over explicitly at an epoch boundary
  /// (the epoch-validated memo would lazily converge anyway; the fence
  /// makes the handover a barrier the cross-shard protocol can order on).
  static void resetThreadMemo();

  /// Hook invoked after every installAll epoch publish, outside the engine
  /// locks. The shard runtime installs a cross-shard fence here (DESIGN.md
  /// §16); empty (the default) is a no-op. The hook must not call back into
  /// install/installAll/uninstall on the same engine.
  void setPublishFence(std::function<void()> fence);

 private:
  using AppMap = std::map<of::AppId, std::shared_ptr<const CompiledPermissions>>;

  /// The calling thread's pin: the app table of one engine at one version.
  struct Pin;
  static Pin& threadPin();

  std::shared_ptr<const AppMap> snapshot() const {
    std::lock_guard lock(snapshotMutex_);
    return apps_;
  }

  /// @p app's entry in the table the calling thread pins for the current
  /// epoch (re-pinning first if the epoch moved), or nullptr when the app
  /// is not installed. Valid until this thread's next call into an engine.
  const std::shared_ptr<const CompiledPermissions>* pinned(
      of::AppId app) const;

  /// Guards only the apps_ pointer itself (held for a shared_ptr copy, not
  /// for compilation or map copying).
  mutable std::mutex snapshotMutex_;
  std::shared_ptr<const AppMap> apps_;
  std::mutex writeMutex_;  // Serializes install/uninstall copy-and-swap.
  mutable std::mutex fenceMutex_;  // Guards publishFence_ (set vs. invoke).
  std::function<void()> publishFence_;

  /// Process-unique engine identity + monotonic table version. Thread pins
  /// are keyed on (engineId_, version_): an acquire version compare
  /// replaces the snapshot copy on the hot path, any install/uninstall
  /// bumps the version, invalidating every thread's pin at its next call,
  /// and engine ids are never reused, so a pin outliving its engine cannot
  /// alias a later one.
  std::uint64_t engineId_ = 0;
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace sdnshield::engine
