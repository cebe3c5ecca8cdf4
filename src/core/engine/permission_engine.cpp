#include "core/engine/permission_engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/perm/interner.h"
#include "obs/metrics.h"

namespace sdnshield::engine {

namespace {

std::size_t tokenIndex(perm::Token token) {
  return static_cast<std::size_t>(token);
}

/// Scans positive positions of a filter expression for topology filters.
void scanTopologyFilters(
    const perm::FilterExprPtr& expr,
    std::shared_ptr<const perm::PhysicalTopologyFilter>& physical,
    std::optional<std::set<of::DatapathId>>& virtualMembers) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton: {
      const perm::FilterPtr& filter = expr->filter();
      if (!physical) {
        if (auto topo =
                std::dynamic_pointer_cast<const perm::PhysicalTopologyFilter>(
                    filter)) {
          physical = topo;
        }
      }
      if (!virtualMembers) {
        if (const auto* vt = dynamic_cast<const perm::VirtualTopologyFilter*>(
                filter.get())) {
          virtualMembers = vt->members();
        }
      }
      return;
    }
    case Op::kAnd:
    case Op::kOr:
      scanTopologyFilters(expr->lhs(), physical, virtualMembers);
      scanTopologyFilters(expr->rhs(), physical, virtualMembers);
      return;
    case Op::kNot:
      return;  // Negated topology filters are not projection hints.
  }
}

// --- expression optimizer ---------------------------------------------------

/// Maximum nesting depth, computed without recursion so that adversarially
/// deep trees cannot overflow the C++ stack before we reject them.
std::size_t expressionDepth(const perm::FilterExprPtr& root) {
  using Op = perm::FilterExpr::Op;
  std::size_t maxDepth = 0;
  std::vector<std::pair<const perm::FilterExpr*, std::size_t>> work;
  work.emplace_back(root.get(), 1);
  while (!work.empty()) {
    auto [expr, depth] = work.back();
    work.pop_back();
    maxDepth = std::max(maxDepth, depth);
    switch (expr->op()) {
      case Op::kSingleton:
        break;
      case Op::kAnd:
      case Op::kOr:
        work.emplace_back(expr->lhs().get(), depth + 1);
        work.emplace_back(expr->rhs().get(), depth + 1);
        break;
      case Op::kNot:
        work.emplace_back(expr->lhs().get(), depth + 1);
        break;
    }
  }
  return maxDepth;
}

/// Filters whose label is independent of the call: unresolved stubs fail
/// closed, virtual-topology markers always pass (translation happens in the
/// deputy, not here).
std::optional<bool> constantValue(const perm::Filter& filter) {
  switch (filter.kind()) {
    case perm::FilterKind::kStub:
      return false;
    case perm::FilterKind::kVirtualTopology:
      return true;
    default:
      return std::nullopt;
  }
}

/// Evaluation-cost rank used for short-circuit reordering: cheap
/// exact-match filters run before action/predicate scans, wildcard mask
/// tests and topology set lookups; composite subtrees run last.
int filterCostRank(const perm::Filter& filter) {
  switch (filter.kind()) {
    case perm::FilterKind::kOwnership:
    case perm::FilterKind::kMaxPriority:
    case perm::FilterKind::kMinPriority:
    case perm::FilterKind::kTableSize:
    case perm::FilterKind::kPktOut:
    case perm::FilterKind::kStatistics:
    case perm::FilterKind::kCallback:
      return 0;  // One or two integer compares.
    case perm::FilterKind::kAction:
    case perm::FilterKind::kFieldPredicate:
      return 1;  // Optional-field lookups / short scans.
    case perm::FilterKind::kWildcard:
      return 2;  // Mask arithmetic over the match.
    case perm::FilterKind::kPhysicalTopology:
      return 3;  // Set lookups over switches and links.
    case perm::FilterKind::kVirtualTopology:
    case perm::FilterKind::kStub:
      return 0;  // Constant-folded away; rank is moot.
  }
  return 3;
}

/// An optimized expression: either a known constant or a residual tree.
struct OptExpr {
  std::optional<bool> constant;
  perm::FilterExprPtr expr;  // Set iff !constant.

  static OptExpr constval(bool value) { return OptExpr{value, nullptr}; }
  static OptExpr tree(perm::FilterExprPtr expr) {
    return OptExpr{std::nullopt, std::move(expr)};
  }
};

int exprCostRank(const perm::FilterExprPtr& expr) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton:
      return filterCostRank(*expr->filter());
    case Op::kNot:
      return exprCostRank(expr->lhs());
    case Op::kAnd:
    case Op::kOr:
      // Composite subtrees go last; deeper ones later still.
      return 8 + static_cast<int>(std::min<std::size_t>(expr->leafCount(), 64));
  }
  return 8;
}

OptExpr optimizeExpr(const perm::FilterExprPtr& expr);

/// Flattens a run of same-op nodes into operand list form, optimizing each
/// operand. `identity` is the op's neutral constant (true for AND, false
/// for OR); hitting the absorbing constant short-circuits the whole chain.
bool gatherOperands(const perm::FilterExprPtr& expr, perm::FilterExpr::Op op,
                    bool identity, std::vector<perm::FilterExprPtr>& out) {
  if (expr->op() == op) {
    return gatherOperands(expr->lhs(), op, identity, out) &&
           gatherOperands(expr->rhs(), op, identity, out);
  }
  OptExpr opt = optimizeExpr(expr);
  if (opt.constant) {
    if (*opt.constant == identity) return true;  // Neutral: drop operand.
    return false;                                // Absorbing: chain decided.
  }
  out.push_back(std::move(opt.expr));
  return true;
}

/// Structural identity key of an optimized subtree: its canonical
/// (hash-consed) pointer. Structurally equal subtrees intern to the same
/// node, so dedup and complement detection are pointer-map lookups — the
/// previous toString-keyed map dominated compile time (20–60× regression on
/// BM_ManifestCompilation). Only runs at compile time.
const perm::FilterExpr* structuralKey(const perm::FilterExprPtr& expr) {
  // The interner keeps the canonical node alive forever; the raw pointer
  // outlives this map.
  return perm::internExpr(expr).get();
}

OptExpr optimizeChain(const perm::FilterExprPtr& expr,
                      perm::FilterExpr::Op op) {
  using Op = perm::FilterExpr::Op;
  bool isAnd = op == Op::kAnd;
  bool identity = isAnd;  // true AND x == x; false OR x == x.

  std::vector<perm::FilterExprPtr> operands;
  if (!gatherOperands(expr, op, identity, operands)) {
    return OptExpr::constval(!identity);  // Absorbing constant seen.
  }

  // Duplicate-operand elimination and complement detection: `x OP x == x`,
  // and `x AND NOT x` / `x OR NOT x` collapse to the absorbing constant.
  std::unordered_map<const perm::FilterExpr*, bool> seen;  // -> kNot polarity
  std::vector<perm::FilterExprPtr> unique;
  unique.reserve(operands.size());
  for (perm::FilterExprPtr& operand : operands) {
    bool negatedForm = operand->op() == Op::kNot;
    const perm::FilterExpr* key =
        structuralKey(negatedForm ? operand->lhs() : operand);
    auto [it, inserted] = seen.emplace(key, negatedForm);
    if (inserted) {
      unique.push_back(std::move(operand));
      continue;
    }
    if (it->second != negatedForm) {
      return OptExpr::constval(!identity);  // x and NOT x both present.
    }
    // Exact duplicate: drop.
  }

  if (unique.empty()) return OptExpr::constval(identity);
  if (unique.size() == 1) return OptExpr::tree(std::move(unique[0]));

  // Short-circuit reordering: cheap filters first (stable to keep the
  // original order among equal-cost operands deterministic).
  std::stable_sort(unique.begin(), unique.end(),
                   [](const perm::FilterExprPtr& a,
                      const perm::FilterExprPtr& b) {
                     return exprCostRank(a) < exprCostRank(b);
                   });

  // Rebuild as a balanced tree: depth O(log n), so long parser-built
  // chains stay far below kMaxProgramDepth.
  std::vector<perm::FilterExprPtr> level = std::move(unique);
  while (level.size() > 1) {
    std::vector<perm::FilterExprPtr> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(isAnd ? perm::FilterExpr::conj(level[i], level[i + 1])
                           : perm::FilterExpr::disj(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return OptExpr::tree(std::move(level[0]));
}

OptExpr optimizeExpr(const perm::FilterExprPtr& expr) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton: {
      perm::FilterPtr interned =
          perm::FilterInterner::global().intern(expr->filter());
      if (std::optional<bool> constant = constantValue(*interned)) {
        return OptExpr::constval(*constant);
      }
      if (interned.get() == expr->filter().get()) return OptExpr::tree(expr);
      return OptExpr::tree(perm::FilterExpr::singleton(std::move(interned)));
    }
    case Op::kNot: {
      OptExpr operand = optimizeExpr(expr->lhs());
      if (operand.constant) return OptExpr::constval(!*operand.constant);
      if (operand.expr->op() == Op::kNot) {
        return OptExpr::tree(operand.expr->lhs());  // NOT NOT x == x.
      }
      return OptExpr::tree(perm::FilterExpr::negate(std::move(operand.expr)));
    }
    case Op::kAnd:
    case Op::kOr:
      return optimizeChain(expr, expr->op());
  }
  return OptExpr::tree(expr);
}

std::uint64_t nextInstanceId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// --- decision memo cache ----------------------------------------------------

/// Raw-pointer serialization cursor: one memcpy + pointer bump per field,
/// no per-append capacity/size bookkeeping (std::string::append showed up
/// as the dominant cost of the memoized hit path). The caller sizes the
/// buffer from memoKeyBound() before writing.
struct KeyCursor {
  char* p;

  void raw(const void* data, std::size_t size) {
    std::memcpy(p, data, size);
    p += size;
  }
  template <typename T>
  void val(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&value, sizeof(value));
  }
  template <typename T, typename Encode>
  void opt(const std::optional<T>& value, Encode encode) {
    *p++ = value ? '\1' : '\0';
    if (value) encode(*value);
  }
};

/// Upper bound on the encoded size of @p call (fixed-width fields padded to
/// their presence byte + payload; variable lists by element count).
std::size_t memoKeyBound(const perm::ApiCall& call) {
  std::size_t bound = 160;  // Every fixed/optional scalar field, padded.
  if (call.actions) bound += call.actions->size() * 24;
  bound += call.topoSwitches.size() * 8 + call.topoLinks.size() * 16;
  if (call.path) bound += call.path->size();
  return bound;
}

/// Serializes every attribute a filter can inspect (plus the caller
/// identity, which deny reasons embed) into a canonical byte string.
/// Equal keys <=> the engine's decision and reason are identical.
std::size_t buildMemoKey(const perm::ApiCall& call, char* base) {
  KeyCursor out{base};
  out.val(static_cast<std::uint8_t>(call.type));
  out.val(call.app);
  out.opt(call.dpid, [&](of::DatapathId v) { out.val(v); });
  out.opt(call.match, [&](const of::FlowMatch& m) {
    out.opt(m.inPort, [&](of::PortNo v) { out.val(v); });
    out.opt(m.ethSrc,
            [&](const of::MacAddress& v) { out.val(v.toUint64()); });
    out.opt(m.ethDst,
            [&](const of::MacAddress& v) { out.val(v.toUint64()); });
    out.opt(m.ethType, [&](std::uint16_t v) { out.val(v); });
    out.opt(m.vlanId, [&](std::uint16_t v) { out.val(v); });
    auto maskedIp = [&](const of::MaskedIpv4& ip) {
      // Canonical form: (mask, masked value) — MaskedIpv4 equality ignores
      // value bits outside the mask.
      out.val(ip.mask.value());
      out.val(ip.value.value() & ip.mask.value());
    };
    out.opt(m.ipSrc, maskedIp);
    out.opt(m.ipDst, maskedIp);
    out.opt(m.ipProto, [&](std::uint8_t v) { out.val(v); });
    out.opt(m.tpSrc, [&](std::uint16_t v) { out.val(v); });
    out.opt(m.tpDst, [&](std::uint16_t v) { out.val(v); });
  });
  out.opt(call.actions, [&](const of::ActionList& actions) {
    out.val(static_cast<std::uint32_t>(actions.size()));
    for (const of::Action& action : actions) {
      out.val(static_cast<std::uint8_t>(action.index()));
      if (const auto* output = std::get_if<of::OutputAction>(&action)) {
        out.val(output->port);
      } else if (const auto* set = std::get_if<of::SetFieldAction>(&action)) {
        out.val(static_cast<std::uint8_t>(set->field));
        out.val(set->intValue);
        out.val(set->macValue.toUint64());
        out.val(set->ipValue.value());
      }
    }
  });
  out.opt(call.priority, [&](std::uint16_t v) { out.val(v); });
  out.val(static_cast<std::uint8_t>(call.ownFlow));
  out.opt(call.ruleCountAfter,
          [&](std::size_t v) { out.val(static_cast<std::uint64_t>(v)); });
  out.opt(call.statsLevel, [&](of::StatsLevel v) {
    out.val(static_cast<std::uint8_t>(v));
  });
  out.val(static_cast<std::uint8_t>(call.pktOutFromPacketIn));
  out.opt(call.callbackOp, [&](perm::CallbackOp v) {
    out.val(static_cast<std::uint8_t>(v));
  });
  out.val(static_cast<std::uint32_t>(call.topoSwitches.size()));
  for (of::DatapathId dpid : call.topoSwitches) out.val(dpid);
  out.val(static_cast<std::uint32_t>(call.topoLinks.size()));
  for (const auto& [a, b] : call.topoLinks) {
    out.val(a);
    out.val(b);
  }
  out.opt(call.remoteIp, [&](of::Ipv4Address v) { out.val(v.value()); });
  out.opt(call.remotePort, [&](std::uint16_t v) { out.val(v); });
  out.opt(call.path, [&](const std::string& path) {
    out.val(static_cast<std::uint32_t>(path.size()));
    out.raw(path.data(), path.size());
  });
  return static_cast<std::size_t>(out.p - base);
}

/// FNV-style hash over 8-byte words (byte-at-a-time FNV costs one serial
/// multiply per byte — a ~50-entry key spent more time hashing than
/// serializing). Slot selection only; lookups always memcmp the exact key.
std::uint64_t hashKey(const char* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL ^
                       (size * 0x100000001b3ULL);
  while (size >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, data, 8);
    hash = (hash ^ chunk) * 0x100000001b3ULL;
    data += 8;
    size -= 8;
  }
  if (size > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, data, size);
    hash = (hash ^ tail) * 0x100000001b3ULL;
  }
  hash ^= hash >> 32;
  return hash;
}

struct MemoEntry {
  std::uint64_t compiledId = 0;  ///< 0 = slot empty.
  std::uint64_t hash = 0;
  std::string key;
  Decision decision;
};

constexpr std::size_t kMemoSlots = 4096;  // Power of two; ~320 KiB/thread.

struct ThreadMemo {
  /// Sized to kMemoSlots by the thread's first check(), so a thread that
  /// only runs resetThreadMemo() (a shard loop in the publish fence) never
  /// allocates it.
  std::vector<MemoEntry> slots;
  std::vector<char> scratch;  ///< Reusable key buffer, grown on demand.
};

ThreadMemo& threadMemo() {
  thread_local ThreadMemo memo;
  return memo;
}

// Registry-backed hot-path counters (the caches stay thread-local; the
// registry aggregates across threads, so harnesses can report hit rates
// for checks that ran on deputy threads). Namespace-scope handles: slot
// resolution happens once at dynamic init, so the hot path pays only the
// shard write — no function-local-static guard load.
const obs::Counter g_memoHit =
    obs::Registry::global().counter("engine.check.memo_hit");
const obs::Counter g_memoMiss =
    obs::Registry::global().counter("engine.check.memo_miss");
const obs::Counter g_checkDenied =
    obs::Registry::global().counter("engine.check.denied");
const obs::Counter g_vmRuns =
    obs::Registry::global().counter("engine.check.vm_runs");
const obs::Counter g_vmSteps =
    obs::Registry::global().counter("engine.check.vm_steps");
const obs::Counter g_compileCacheHit =
    obs::Registry::global().counter("engine.compile.cache_hit");
const obs::Counter g_compileCacheMiss =
    obs::Registry::global().counter("engine.compile.cache_miss");
const obs::Counter g_compileCacheEvict =
    obs::Registry::global().counter("engine.compile.cache_evict");

// memoStats()/resetMemoStats() keep their pre-obs semantics (counts since
// the last reset) by remembering baselines at reset time: the registry
// counters themselves stay monotonic.
std::atomic<std::uint64_t> g_memoHitBase{0};
std::atomic<std::uint64_t> g_memoMissBase{0};

}  // namespace

// --- CompiledPermissions ----------------------------------------------------

CompiledPermissions::CompiledPermissions(
    const perm::PermissionSet& permissions)
    : source_(permissions), instanceId_(nextInstanceId()) {
  for (const perm::Permission& grant : permissions.permissions()) {
    TokenProgram& program = programs_[tokenIndex(grant.token)];
    program.granted = true;
    if (!grant.filter) continue;
    if (std::size_t depth = expressionDepth(grant.filter);
        depth > kMaxExpressionDepth) {
      throw std::length_error(
          "permission filter for '" + perm::toString(grant.token) +
          "' is nested " + std::to_string(depth) +
          " levels deep; the compiler accepts at most " +
          std::to_string(kMaxExpressionDepth));
    }
    OptExpr optimized = optimizeExpr(grant.filter);
    if (optimized.constant) {
      // Always-true folds to the unrestricted grant (empty program);
      // always-false (e.g. an unresolved stub) compiles to a single deny.
      if (!*optimized.constant) {
        program.code.push_back(Instr{OpCode::kConst, 0});
      }
    } else {
      if (std::size_t depth = expressionDepth(optimized.expr);
          depth > kMaxProgramDepth) {
        throw std::length_error(
            "permission filter for '" + perm::toString(grant.token) +
            "' still nests " + std::to_string(depth) +
            " levels after optimization; compiled programs are bounded at " +
            std::to_string(kMaxProgramDepth) + " levels");
      }
      compileExpr(optimized.expr, program);
    }
    if (grant.token == perm::Token::kVisibleTopology) {
      scanTopologyFilters(grant.filter, topologyProjection_, virtualMembers_);
    }
  }
}

std::uint32_t CompiledPermissions::filterSlot(const perm::FilterPtr& filter) {
  auto [it, inserted] = filterSlots_.try_emplace(
      filter.get(), static_cast<std::uint32_t>(filters_.size()));
  if (inserted) filters_.push_back(filter);
  return it->second;
}

void CompiledPermissions::compileExpr(const perm::FilterExprPtr& expr,
                                      TokenProgram& program) {
  using Op = perm::FilterExpr::Op;
  switch (expr->op()) {
    case Op::kSingleton:
      program.code.push_back(Instr{OpCode::kPush, filterSlot(expr->filter())});
      return;
    case Op::kAnd:
    case Op::kOr: {
      compileExpr(expr->lhs(), program);
      std::size_t jumpAt = program.code.size();
      program.code.push_back(Instr{expr->op() == Op::kAnd
                                       ? OpCode::kJumpIfFalse
                                       : OpCode::kJumpIfTrue,
                                   0});
      compileExpr(expr->rhs(), program);
      program.code[jumpAt].arg =
          static_cast<std::uint32_t>(program.code.size());
      return;
    }
    case Op::kNot:
      compileExpr(expr->lhs(), program);
      program.code.push_back(Instr{OpCode::kNot, 0});
      return;
  }
}

bool CompiledPermissions::run(const TokenProgram& program,
                              const perm::ApiCall& call) const {
  if (program.code.empty()) return true;  // Unrestricted grant.
  // Single-register branch VM: short-circuit jumps mean a binary boolean
  // expression never holds more than one intermediate value, so there is no
  // evaluation stack to bound (the seed engine's fixed 64-slot stack could
  // overflow on deep right-leaning expressions).
  bool reg = false;
  const Instr* code = program.code.data();
  std::size_t size = program.code.size();
  std::uint64_t steps = 0;  // Executed instructions (obs; local until exit).
  for (std::size_t pc = 0; pc < size;) {
    const Instr& instr = code[pc];
    ++steps;
    switch (instr.op) {
      case OpCode::kPush:
        reg = filters_[instr.arg]->evaluate(call);
        ++pc;
        break;
      case OpCode::kNot:
        reg = !reg;
        ++pc;
        break;
      case OpCode::kJumpIfFalse:
        pc = reg ? pc + 1 : instr.arg;
        break;
      case OpCode::kJumpIfTrue:
        pc = reg ? instr.arg : pc + 1;
        break;
      case OpCode::kConst:
        reg = instr.arg != 0;
        ++pc;
        break;
    }
  }
  g_vmRuns.add(1);
  g_vmSteps.add(steps);
  return reg;
}

Decision CompiledPermissions::check(const perm::ApiCall& call) const {
  perm::Token token = perm::requiredToken(call.type);
  const TokenProgram& program = programs_[tokenIndex(token)];
  if (!program.granted) {
    return Decision::deny("missing permission token '" +
                          perm::toString(token) + "'");
  }
  if (!run(program, call)) {
    std::string reason;
    reason.reserve(192);
    reason += "permission filter on '";
    reason += perm::toString(token);
    reason += "' rejected ";
    call.appendTo(reason);
    return Decision::deny(std::move(reason));
  }
  return Decision::allow();
}

bool CompiledPermissions::hasToken(perm::Token token) const {
  return programs_[tokenIndex(token)].granted;
}

std::size_t CompiledPermissions::programLength(perm::Token token) const {
  return programs_[tokenIndex(token)].code.size();
}

// --- CompiledProgramCache ---------------------------------------------------

CompiledProgramCache& CompiledProgramCache::global() {
  static CompiledProgramCache* cache =
      new CompiledProgramCache();  // Never destroyed.
  return *cache;
}

std::shared_ptr<const CompiledPermissions> CompiledProgramCache::obtain(
    const perm::PermissionSet& permissions) {
  // toString is the canonical identity: PermissionSet keeps tokens in a
  // std::map, so equal sets print identically regardless of build order.
  std::string key = permissions.toString();
  {
    std::lock_guard lock(mutex_);
    if (enabled_) {
      if (auto it = entries_.find(key); it != entries_.end()) {
        ++hits_;
        g_compileCacheHit.add(1);
        // LRU touch: an obtained program is hot and must survive an insert
        // storm of cold sets.
        lru_.splice(lru_.begin(), lru_, it->second.recency);
        return it->second.program;
      }
    }
  }
  // Compile outside the lock — the expensive part, and it can throw.
  auto compiled = std::make_shared<const CompiledPermissions>(permissions);
  std::lock_guard lock(mutex_);
  ++misses_;
  g_compileCacheMiss.add(1);
  if (!enabled_) return compiled;
  if (auto it = entries_.find(key); it != entries_.end()) {
    // Lost a compile race: prefer the incumbent so every caller shares one
    // instanceId (keeps thread memos hot).
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return it->second.program;
  }
  lru_.push_front(key);
  entries_.emplace(std::move(key), Entry{compiled, lru_.begin()});
  evictToCapacityLocked();
  return compiled;
}

void CompiledProgramCache::evictToCapacityLocked() {
  while (entries_.size() > maxEntries_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    g_compileCacheEvict.add(1);
  }
}

CompiledProgramCache::Stats CompiledProgramCache::stats() const {
  std::lock_guard lock(mutex_);
  return Stats{hits_, misses_, evictions_, entries_.size()};
}

void CompiledProgramCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  lru_.clear();
}

void CompiledProgramCache::setEnabled(bool enabled) {
  std::lock_guard lock(mutex_);
  enabled_ = enabled;
  if (!enabled) {
    entries_.clear();
    lru_.clear();
  }
}

bool CompiledProgramCache::enabled() const {
  std::lock_guard lock(mutex_);
  return enabled_;
}

void CompiledProgramCache::setMaxEntries(std::size_t maxEntries) {
  std::lock_guard lock(mutex_);
  maxEntries_ = maxEntries == 0 ? 1 : maxEntries;
  evictToCapacityLocked();
}

std::size_t CompiledProgramCache::maxEntries() const {
  std::lock_guard lock(mutex_);
  return maxEntries_;
}

// --- PermissionEngine -------------------------------------------------------

std::uint64_t nextEngineId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

PermissionEngine::PermissionEngine()
    : apps_(std::make_shared<const AppMap>()), engineId_(nextEngineId()) {}

void PermissionEngine::install(of::AppId app,
                               const perm::PermissionSet& permissions) {
  auto compiled = CompiledProgramCache::global().obtain(permissions);
  std::lock_guard lock(writeMutex_);
  auto next = std::make_shared<AppMap>(*snapshot());
  (*next)[app] = std::move(compiled);
  {
    std::lock_guard snapLock(snapshotMutex_);
    apps_ = std::move(next);
  }
  version_.fetch_add(1, std::memory_order_release);
}

void PermissionEngine::installAll(
    const std::vector<std::pair<of::AppId, perm::PermissionSet>>& grants) {
  // Compile every set before taking any lock: compilation can throw
  // (depth bounds) and is the expensive part; a failure here leaves the
  // table untouched, and readers never wait on a compiler.
  std::vector<std::pair<of::AppId, std::shared_ptr<const CompiledPermissions>>>
      compiled;
  compiled.reserve(grants.size());
  for (const auto& [app, permissions] : grants) {
    // Shared compiled-program cache: apps with identical grants (the common
    // case after a market-wide policy push) compile once and share the
    // program — and re-pushing an unchanged set is a pure lookup.
    compiled.emplace_back(app, CompiledProgramCache::global().obtain(permissions));
  }
  installAll(std::move(compiled));
}

void PermissionEngine::installAll(
    std::vector<std::pair<of::AppId, std::shared_ptr<const CompiledPermissions>>>
        programs) {
  {
    std::lock_guard lock(writeMutex_);
    auto next = std::make_shared<AppMap>(*snapshot());
    for (auto& [app, set] : programs) (*next)[app] = std::move(set);
    {
      std::lock_guard snapLock(snapshotMutex_);
      apps_ = std::move(next);
    }
    // One bump for the whole batch: the new epoch carries every new grant.
    version_.fetch_add(1, std::memory_order_release);
  }
  // Publish fence, outside the write lock: the shard runtime barriers every
  // shard loop here so the epoch handover is ordered against all shard-local
  // checks (DESIGN.md §16). Concurrent installAll callers may interleave
  // fences, which is fine — each fence is ordered after its own bump.
  std::function<void()> fence;
  {
    std::lock_guard lock(fenceMutex_);
    fence = publishFence_;
  }
  if (fence) fence();
}

void PermissionEngine::setPublishFence(std::function<void()> fence) {
  std::lock_guard lock(fenceMutex_);
  publishFence_ = std::move(fence);
}

void PermissionEngine::uninstall(of::AppId app) {
  std::lock_guard lock(writeMutex_);
  auto next = std::make_shared<AppMap>(*snapshot());
  next->erase(app);
  {
    std::lock_guard snapLock(snapshotMutex_);
    apps_ = std::move(next);
  }
  version_.fetch_add(1, std::memory_order_release);
}

struct PermissionEngine::Pin {
  std::uint64_t engineId = 0;  ///< 0 = nothing pinned (ids start at 1).
  std::uint64_t version = 0;
  /// Keeps the table, and so every compiled set it names, alive even if
  /// the engine is destroyed while the pin is held.
  std::shared_ptr<const AppMap> table;
  /// Last-app shortcut: lastApp's entry in *table, or null.
  of::AppId lastApp = 0;
  const std::shared_ptr<const CompiledPermissions>* last = nullptr;
};

PermissionEngine::Pin& PermissionEngine::threadPin() {
  thread_local Pin pin;
  return pin;
}

const std::shared_ptr<const CompiledPermissions>* PermissionEngine::pinned(
    of::AppId app) const {
  Pin& pin = threadPin();
  // The version is loaded BEFORE the table is copied, so a table pinned
  // against version v is never older than the table at v; a writer bumps
  // the version after swapping the table, which invalidates the pin here
  // on the next call.
  std::uint64_t version = version_.load(std::memory_order_acquire);
  if (pin.engineId != engineId_ || pin.version != version) {
    pin.table = snapshot();
    pin.engineId = engineId_;
    pin.version = version;
    pin.last = nullptr;
  } else if (pin.last != nullptr && pin.lastApp == app) {
    return pin.last;
  }
  auto it = pin.table->find(app);
  if (it == pin.table->end()) return nullptr;
  pin.lastApp = app;
  pin.last = &it->second;
  return pin.last;
}

Decision PermissionEngine::check(const perm::ApiCall& call) const {
  if (call.app == of::kKernelAppId) return Decision::allow();

  const std::shared_ptr<const CompiledPermissions>* resolved =
      pinned(call.app);
  if (resolved == nullptr) {
    return Decision::deny("app " + std::to_string(call.app) +
                          " has no installed permissions");
  }
  const CompiledPermissions& compiled = **resolved;
  ThreadMemo& memo = threadMemo();
  if (memo.slots.empty()) memo.slots.resize(kMemoSlots);

  // Memoized fast path: repeated calls with identical attributes (the
  // common case — the same flows recur) skip the filter program entirely.
  // Entries are validated by compiled-set identity plus an exact key
  // compare, so a hash collision or a reinstalled manifest can never
  // resurface a stale decision. Two-way probing (second slot from the high
  // hash bits) keeps colliding hot keys from alternately evicting each
  // other.
  std::size_t bound = memoKeyBound(call);
  if (memo.scratch.size() < bound) memo.scratch.resize(bound);
  char* key = memo.scratch.data();
  std::size_t keyLen = buildMemoKey(call, key);
  std::uint64_t hash = hashKey(key, keyLen);
  MemoEntry& first = memo.slots[hash & (kMemoSlots - 1)];
  MemoEntry& second = memo.slots[(hash >> 12) & (kMemoSlots - 1)];
  for (MemoEntry* entry : {&first, &second}) {
    if (entry->compiledId == compiled.instanceId() && entry->hash == hash &&
        entry->key.size() == keyLen &&
        std::memcmp(entry->key.data(), key, keyLen) == 0) {
      g_memoHit.add(1);
      return entry->decision;
    }
  }
  g_memoMiss.add(1);
  Decision decision = compiled.check(call);
  if (!decision.allowed) g_checkDenied.add(1);
  // Displace an empty or stale slot when possible; otherwise the primary.
  MemoEntry& entry =
      first.compiledId == compiled.instanceId() &&
              second.compiledId != compiled.instanceId()
          ? second
          : first;
  entry.compiledId = compiled.instanceId();
  entry.hash = hash;
  entry.key.assign(key, keyLen);
  entry.decision = decision;
  return decision;
}

std::shared_ptr<const CompiledPermissions> PermissionEngine::compiled(
    of::AppId app) const {
  const std::shared_ptr<const CompiledPermissions>* entry = pinned(app);
  return entry == nullptr ? nullptr : *entry;
}

MemoStats PermissionEngine::memoStats() {
  std::uint64_t hits = g_memoHit.value();
  std::uint64_t misses = g_memoMiss.value();
  std::uint64_t hitBase = g_memoHitBase.load(std::memory_order_relaxed);
  std::uint64_t missBase = g_memoMissBase.load(std::memory_order_relaxed);
  return MemoStats{hits > hitBase ? hits - hitBase : 0,
                   misses > missBase ? misses - missBase : 0};
}

void PermissionEngine::resetMemoStats() {
  g_memoHitBase.store(g_memoHit.value(), std::memory_order_relaxed);
  g_memoMissBase.store(g_memoMiss.value(), std::memory_order_relaxed);
}

void PermissionEngine::resetThreadMemo() {
  for (MemoEntry& entry : threadMemo().slots) entry = MemoEntry{};
  threadPin() = Pin{};
}

}  // namespace sdnshield::engine
