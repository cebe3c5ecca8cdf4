#include "core/engine/audit.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"

namespace sdnshield::engine {

namespace detail {

/// One retained entry as the ring stores it. The sequence number is implicit
/// in the ring position. An API call keeps the fields its summary renders:
/// dpid, priority, stats level, the present FlowMatch fields and at most one
/// action, packed into `payload`. A call with a path, a remote endpoint,
/// topology lists, more than one action or a packing that does not fit
/// moves whole into the spill, as do denial reasons and the text of fault,
/// supervision and lifecycle entries. No member initializers: chunks of
/// slots are allocated without touching their pages.
struct AuditSlot {
  of::AppId app;
  std::uint8_t head;     ///< callType | kind << 5 | allowed << 7.
  std::uint8_t flags;    ///< Which call fields the payload carries.
  std::uint16_t fields;  ///< Present FlowMatch fields, + masked-IP bits.
  AuditSpill* spill;     ///< Out-of-line record, or null.
  std::uint8_t payload[48];
};
static_assert(sizeof(AuditSlot) <= 64, "an audit slot must fit 64 bytes");
static_assert(std::is_trivially_default_constructible_v<AuditSlot>);

/// The rare parts of an entry, kept out of line (one heap record per entry
/// that needs one). Immutable once published; readers pin it with a
/// reference count so they can decode after dropping the log's lock.
struct AuditSpill {
  std::atomic<std::uint32_t> refs{1};
  /// Denial reason, or the fault/supervision/lifecycle text.
  std::string text;
  std::string spanTrail;
  /// An API call the slot payload cannot hold.
  std::optional<perm::ApiCall> call;
};

}  // namespace detail

namespace {

using detail::AuditSlot;
using detail::AuditSpill;

// Eviction is the signal a multi-minute campaign watches for ("is the audit
// window still wide enough to catch the attack"), so it is surfaced
// process-wide, not just per-log.
const obs::Counter g_auditDropped =
    obs::Registry::global().counter("audit.dropped");

void pin(AuditSpill* spill) {
  if (spill != nullptr) spill->refs.fetch_add(1, std::memory_order_relaxed);
}

void unpin(AuditSpill* spill) {
  if (spill != nullptr &&
      spill->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete spill;
  }
}

// --- slot header -----------------------------------------------------------

constexpr std::uint8_t kAllowedBit = 0x80;
constexpr int kKindShift = 5;
constexpr std::uint8_t kCallTypeMask = 0x1f;

// AuditSlot::flags
constexpr std::uint8_t kHasDpid = 1u << 0;
constexpr std::uint8_t kHasPriority = 1u << 1;
constexpr std::uint8_t kHasMatch = 1u << 2;
constexpr std::uint8_t kHasActions = 1u << 3;  ///< An action list (maybe [])
constexpr std::uint8_t kOneAction = 1u << 4;   ///< ...holding one action.
constexpr std::uint8_t kHasStats = 1u << 5;
constexpr int kStatsShift = 6;  ///< StatsLevel in the top two bits.

// AuditSlot::fields: bit f is set when MatchField f is present; two more
// bits mark an IP field whose mask is not /32 (the mask is then packed).
constexpr std::uint16_t bit(of::MatchField field) {
  return static_cast<std::uint16_t>(1u << static_cast<int>(field));
}
constexpr std::uint16_t maskedBit(of::MatchField ipField) {
  return static_cast<std::uint16_t>(
      ipField == of::MatchField::kIpSrc ? 1u << 10 : 1u << 11);
}

static_assert(static_cast<int>(perm::ApiCallType::kMarketAdmin) <=
                  kCallTypeMask,
              "ApiCallType must fit the slot's five call-type bits");

AuditSlot headerSlot(AuditKind kind, of::AppId app, perm::ApiCallType type,
                     bool allowed) {
  AuditSlot slot{};
  slot.app = app;
  slot.head = static_cast<std::uint8_t>(
      static_cast<unsigned>(type) |
      (static_cast<unsigned>(kind) << kKindShift) |
      (allowed ? kAllowedBit : 0u));
  return slot;
}

perm::ApiCallType callTypeOf(const AuditSlot& slot) {
  return static_cast<perm::ApiCallType>(slot.head & kCallTypeMask);
}

AuditKind kindOf(const AuditSlot& slot) {
  return static_cast<AuditKind>((slot.head >> kKindShift) & 0x3);
}

bool allowedOf(const AuditSlot& slot) {
  return (slot.head & kAllowedBit) != 0;
}

// --- payload packing -------------------------------------------------------

/// Appends fixed-width values to the slot payload; fails (and stays failed)
/// once a value would not fit.
class Packer {
 public:
  explicit Packer(AuditSlot& slot)
      : at_(slot.payload), end_(slot.payload + sizeof slot.payload) {}

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (static_cast<std::size_t>(end_ - at_) < sizeof value) {
      fits_ = false;
      return;
    }
    std::memcpy(at_, &value, sizeof value);
    at_ += sizeof value;
  }
  bool fits() const { return fits_; }

 private:
  std::uint8_t* at_;
  std::uint8_t* end_;
  bool fits_ = true;
};

class Unpacker {
 public:
  explicit Unpacker(const AuditSlot& slot) : at_(slot.payload) {}

  template <typename T>
  T get() {
    T value{};
    std::memcpy(&value, at_, sizeof value);
    at_ += sizeof value;
    return value;
  }

 private:
  const std::uint8_t* at_;
};

/// Calls @p visit(field, name) on each FlowMatch field, in MatchField
/// order: the one field list both packing directions walk.
template <typename Match, typename Visit>
void forEachField(Match& m, Visit visit) {
  visit(m.inPort, of::MatchField::kInPort);
  visit(m.ethSrc, of::MatchField::kEthSrc);
  visit(m.ethDst, of::MatchField::kEthDst);
  visit(m.ethType, of::MatchField::kEthType);
  visit(m.vlanId, of::MatchField::kVlanId);
  visit(m.ipSrc, of::MatchField::kIpSrc);
  visit(m.ipDst, of::MatchField::kIpDst);
  visit(m.ipProto, of::MatchField::kIpProto);
  visit(m.tpSrc, of::MatchField::kTpSrc);
  visit(m.tpDst, of::MatchField::kTpDst);
}

template <typename T>
constexpr bool kIsMaskedIp = std::is_same_v<T, of::MaskedIpv4>;

// An action is a tag byte (variant index | set-field field << 2) followed by
// the port or the one value its field renders.
void putAction(Packer& out, const of::Action& action) {
  auto tag = static_cast<std::uint8_t>(action.index());
  if (const auto* output = std::get_if<of::OutputAction>(&action)) {
    out.put(tag);
    out.put(output->port);
  } else if (const auto* set = std::get_if<of::SetFieldAction>(&action)) {
    out.put(static_cast<std::uint8_t>(tag |
                                      static_cast<unsigned>(set->field) << 2));
    switch (set->field) {
      case of::MatchField::kEthSrc:
      case of::MatchField::kEthDst:
        out.put(set->macValue);
        break;
      case of::MatchField::kIpSrc:
      case of::MatchField::kIpDst:
        out.put(set->ipValue);
        break;
      default:
        out.put(set->intValue);
        break;
    }
  } else {
    out.put(tag);
  }
}

of::Action getAction(Unpacker& in) {
  auto tag = in.get<std::uint8_t>();
  switch (tag & 0x3) {
    case 0:
      return of::OutputAction{in.get<of::PortNo>()};
    case 1: {
      of::SetFieldAction set;
      set.field = static_cast<of::MatchField>(tag >> 2);
      switch (set.field) {
        case of::MatchField::kEthSrc:
        case of::MatchField::kEthDst:
          set.macValue = in.get<of::MacAddress>();
          break;
        case of::MatchField::kIpSrc:
        case of::MatchField::kIpDst:
          set.ipValue = in.get<of::Ipv4Address>();
          break;
        default:
          set.intValue = in.get<std::uint64_t>();
          break;
      }
      return set;
    }
    default:
      return of::DropAction{};
  }
}

/// Packs the rendered fields of @p call into @p slot; false when the call
/// has a field the slot does not carry or its packing overflows.
bool pack(const perm::ApiCall& call, AuditSlot& slot) {
  if (call.path || call.remoteIp || call.remotePort ||
      !call.topoSwitches.empty() || !call.topoLinks.empty() ||
      (call.actions && call.actions->size() > 1)) {
    return false;
  }
  Packer out(slot);
  if (call.dpid) {
    slot.flags |= kHasDpid;
    out.put(*call.dpid);
  }
  if (call.priority) {
    slot.flags |= kHasPriority;
    out.put(*call.priority);
  }
  if (call.statsLevel) {
    slot.flags |= static_cast<std::uint8_t>(
        kHasStats | static_cast<unsigned>(*call.statsLevel) << kStatsShift);
  }
  if (call.match) {
    slot.flags |= kHasMatch;
    forEachField(*call.match, [&](const auto& value, of::MatchField name) {
      if (!value) return;
      slot.fields |= bit(name);
      if constexpr (kIsMaskedIp<std::decay_t<decltype(*value)>>) {
        out.put(value->value);
        if (value->mask.value() != 0xffffffffu) {
          slot.fields |= maskedBit(name);
          out.put(value->mask);
        }
      } else {
        out.put(*value);
      }
    });
  }
  if (call.actions) {
    slot.flags |= kHasActions;
    if (!call.actions->empty()) {
      slot.flags |= kOneAction;
      putAction(out, call.actions->front());
    }
  }
  return out.fits();
}

/// The call @p slot packs, with the fields its summary renders.
perm::ApiCall unpack(const AuditSlot& slot) {
  perm::ApiCall call;
  call.type = callTypeOf(slot);
  call.app = slot.app;
  Unpacker in(slot);
  if (slot.flags & kHasDpid) call.dpid = in.get<of::DatapathId>();
  if (slot.flags & kHasPriority) call.priority = in.get<std::uint16_t>();
  if (slot.flags & kHasStats) {
    call.statsLevel = static_cast<of::StatsLevel>(slot.flags >> kStatsShift);
  }
  if (slot.flags & kHasMatch) {
    forEachField(call.match.emplace(), [&](auto& value, of::MatchField name) {
      if ((slot.fields & bit(name)) == 0) return;
      using T = typename std::decay_t<decltype(value)>::value_type;
      if constexpr (kIsMaskedIp<T>) {
        of::MaskedIpv4& ip = value.emplace();
        ip.value = in.get<of::Ipv4Address>();
        if (slot.fields & maskedBit(name)) ip.mask = in.get<of::Ipv4Address>();
      } else {
        value = in.get<T>();
      }
    });
  }
  if (slot.flags & kHasActions) {
    of::ActionList& actions = call.actions.emplace();
    if (slot.flags & kOneAction) actions.push_back(getAction(in));
  }
  return call;
}

AuditRecord header(const AuditSlot& slot, std::uint64_t sequence) {
  return AuditRecord{sequence, kindOf(slot), slot.app, callTypeOf(slot),
                     allowedOf(slot)};
}

AuditEntry decode(const AuditSlot& slot, std::uint64_t sequence) {
  AuditEntry entry;
  entry.sequence = sequence;
  entry.kind = kindOf(slot);
  entry.app = slot.app;
  entry.callType = callTypeOf(slot);
  entry.allowed = allowedOf(slot);
  const AuditSpill* spill = slot.spill;
  if (entry.kind == AuditKind::kApiCall && entry.allowed) {
    entry.summary = spill != nullptr && spill->call ? spill->call->toString()
                                                     : unpack(slot).toString();
  } else if (spill != nullptr) {
    entry.summary = spill->text;
    entry.spanTrail = spill->spanTrail;
  }
  return entry;
}

/// Slots per storage chunk (16 KiB).
constexpr std::size_t kChunkSlots = 256;

std::size_t chunkCountFor(std::size_t capacity) {
  // The retained entries plus the one being published span at most
  // capacity / kChunkSlots + 2 chunks, so each gets its own.
  return capacity / kChunkSlots + 2;
}

}  // namespace

void AuditLog::SpillDeleter::operator()(AuditSpill* spill) const {
  unpin(spill);
}

AuditLog::AuditLog(std::size_t capacity)
    : capacity_(capacity), chunks_(chunkCountFor(capacity)) {}

AuditLog::~AuditLog() { unpinRetainedLocked(); }

std::string AuditEntry::toString() const {
  std::ostringstream out;
  out << "#" << sequence << " app=" << app << " ";
  switch (kind) {
    case AuditKind::kApiCall:
      out << perm::toString(callType) << " " << (allowed ? "ALLOW" : "DENY");
      break;
    case AuditKind::kFault:
      out << "FAULT";
      break;
    case AuditKind::kSupervision:
      out << "SUPERVISION";
      break;
    case AuditKind::kLifecycle:
      out << "LIFECYCLE";
      break;
  }
  if (!summary.empty()) out << " " << summary;
  if (!spanTrail.empty()) out << " trail=[" << spanTrail << "]";
  return out.str();
}

AuditLog::Slot& AuditLog::slotAt(std::uint64_t sequence) const {
  const auto& chunk = chunks_[(sequence / kChunkSlots) % chunks_.size()];
  return chunk[sequence % kChunkSlots];
}

void AuditLog::publish(Slot slot, SpillPtr spill) {
  std::lock_guard lock(mutex_);
  auto& chunk = chunks_[(nextSequence_ / kChunkSlots) % chunks_.size()];
  // Left uninitialized: a chunk's pages are first touched by the records
  // written into it.
  if (!chunk) chunk = std::make_unique_for_overwrite<Slot[]>(kChunkSlots);
  slot.spill = spill.release();
  chunk[nextSequence_ % kChunkSlots] = slot;
  ++nextSequence_;
  AuditKind kind = kindOf(slot);
  if (kind == AuditKind::kApiCall && !allowedOf(slot)) ++denied_;
  if (kind == AuditKind::kFault) ++faults_;
  evictOverflowLocked();
}

void AuditLog::evictOverflowLocked() {
  std::uint64_t evicted = 0;
  while (nextSequence_ - dropped_ > capacity_) {
    unpin(slotAt(dropped_).spill);
    ++dropped_;
    ++evicted;
  }
  if (evicted > 0) g_auditDropped.add(evicted);
}

void AuditLog::unpinRetainedLocked() {
  for (std::uint64_t seq = dropped_; seq < nextSequence_; ++seq) {
    unpin(slotAt(seq).spill);
  }
}

void AuditLog::setCapacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity;
  evictOverflowLocked();
  std::size_t count = chunkCountFor(capacity);
  if (count == chunks_.size()) return;
  // Re-home the live chunks by pointer; no slot is copied.
  std::vector<std::unique_ptr<Slot[]>> chunks(count);
  for (std::uint64_t c = dropped_ / kChunkSlots;
       c * kChunkSlots < nextSequence_; ++c) {
    chunks[c % count] = std::move(chunks_[c % chunks_.size()]);
  }
  chunks_ = std::move(chunks);
}

std::size_t AuditLog::capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

void AuditLog::record(const perm::ApiCall& call, bool allowed,
                      const std::string& reason) {
  Slot slot = headerSlot(AuditKind::kApiCall, call.app, call.type, allowed);
  SpillPtr spill;
  if (!pack(call, slot)) {
    slot.flags = 0;
    slot.fields = 0;
    spill.reset(new AuditSpill);
    spill->call = call;
  }
  if (!allowed && !reason.empty()) {
    if (!spill) spill.reset(new AuditSpill);
    spill->text = reason;
  }
  publish(slot, std::move(spill));
}

void AuditLog::recordText(AuditKind kind, of::AppId app, std::string text,
                          std::string spanTrail) {
  SpillPtr spill(new AuditSpill);
  spill->text = std::move(text);
  spill->spanTrail = std::move(spanTrail);
  publish(headerSlot(kind, app, perm::ApiCallType::kReadTopology, false),
          std::move(spill));
}

void AuditLog::recordFault(of::AppId app, const std::string& what) {
  recordText(AuditKind::kFault, app, what, {});
}

void AuditLog::recordSupervision(of::AppId app, const std::string& what,
                                 std::string spanTrail) {
  recordText(AuditKind::kSupervision, app, what, std::move(spanTrail));
}

void AuditLog::recordLifecycle(of::AppId app, const std::string& what) {
  recordText(AuditKind::kLifecycle, app, what, {});
}

std::vector<AuditEntry> AuditLog::collect(bool filter, of::AppId app) const {
  std::vector<std::pair<std::uint64_t, Slot>> raw;
  {
    std::lock_guard lock(mutex_);
    raw.reserve(filter ? 0 : nextSequence_ - dropped_);
    for (std::uint64_t seq = dropped_; seq < nextSequence_; ++seq) {
      const Slot& slot = slotAt(seq);
      if (filter && slot.app != app) continue;
      pin(slot.spill);
      raw.emplace_back(seq, slot);
    }
  }
  struct Unpin {
    const std::vector<std::pair<std::uint64_t, Slot>>& raw;
    ~Unpin() {
      for (const auto& [seq, slot] : raw) unpin(slot.spill);
    }
  } unpinAll{raw};
  std::vector<AuditEntry> out;
  out.reserve(raw.size());
  for (const auto& [seq, slot] : raw) out.push_back(decode(slot, seq));
  return out;
}

std::vector<AuditEntry> AuditLog::entries() const { return collect(false, 0); }

std::vector<AuditEntry> AuditLog::entriesFor(of::AppId app) const {
  return collect(true, app);
}

std::uint64_t AuditLog::visitSince(
    std::uint64_t from,
    const std::function<void(const AuditRecord&)>& visit) const {
  std::lock_guard lock(mutex_);
  for (std::uint64_t seq = std::max(from, dropped_); seq < nextSequence_;
       ++seq) {
    visit(header(slotAt(seq), seq));
  }
  return nextSequence_;
}

std::uint64_t AuditLog::totalRecorded() const {
  std::lock_guard lock(mutex_);
  return nextSequence_;
}

std::uint64_t AuditLog::deniedCount() const {
  std::lock_guard lock(mutex_);
  return denied_;
}

std::uint64_t AuditLog::faultCount() const {
  std::lock_guard lock(mutex_);
  return faults_;
}

std::uint64_t AuditLog::droppedCount() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void AuditLog::clear() {
  std::lock_guard lock(mutex_);
  unpinRetainedLocked();
  nextSequence_ = 0;
  denied_ = 0;
  faults_ = 0;
  dropped_ = 0;
}

}  // namespace sdnshield::engine
