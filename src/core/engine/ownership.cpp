#include "core/engine/ownership.h"

#include <algorithm>

namespace sdnshield::engine {

namespace {

// splitmix64's finaliser folded into a running seed.
std::size_t mix(std::size_t seed, std::uint64_t value) {
  value += 0x9e3779b97f4a7c15ULL + seed;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(value ^ (value >> 31));
}

std::uint64_t bits(std::uint64_t value) { return value; }
std::uint64_t bits(const of::MacAddress& mac) { return mac.toUint64(); }
std::uint64_t bits(const of::MaskedIpv4& ip) {
  // Equality ignores value bits outside the mask, so the hash must too.
  std::uint64_t mask = ip.mask.value();
  return (mask << 32) | (ip.value.value() & mask);
}

// 0 for an absent field, so a present zero hashes differently.
template <typename T>
std::size_t mixField(std::size_t seed, const std::optional<T>& field) {
  return mix(seed, field ? bits(*field) + 1 : 0);
}

}  // namespace

std::size_t OwnershipTracker::RuleKeyHash::operator()(
    const RuleKey& key) const {
  const of::FlowMatch& m = key.match;
  std::size_t seed = mix(0, key.priority);
  seed = mixField(seed, m.inPort);
  seed = mixField(seed, m.ethSrc);
  seed = mixField(seed, m.ethDst);
  seed = mixField(seed, m.ethType);
  seed = mixField(seed, m.vlanId);
  seed = mixField(seed, m.ipSrc);
  seed = mixField(seed, m.ipDst);
  seed = mixField(seed, m.ipProto);
  seed = mixField(seed, m.tpSrc);
  return mixField(seed, m.tpDst);
}

bool OwnershipTracker::SwitchRules::hasForeign(of::AppId app) const {
  auto own = counts.find(app);
  return owners.size() != (own == counts.end() ? 0 : own->second);
}

void OwnershipTracker::uncount(SwitchRules& rules, of::AppId owner) {
  auto own = rules.counts.find(owner);
  if (--own->second == 0) rules.counts.erase(own);
  --total_;
}

const OwnershipTracker::SwitchRules* OwnershipTracker::find(
    of::DatapathId dpid) const {
  auto found = switches_.find(dpid);
  return found == switches_.end() ? nullptr : &found->second;
}

void OwnershipTracker::recordInsert(of::AppId app, of::DatapathId dpid,
                                    const of::FlowMatch& match,
                                    std::uint16_t priority) {
  std::lock_guard lock(mutex_);
  SwitchRules& rules = switches_[dpid];
  auto [entry, inserted] =
      rules.owners.try_emplace(RuleKey{match, priority}, app);
  if (!inserted) {
    if (entry->second == app) return;
    uncount(rules, entry->second);
    entry->second = app;  // OF add-replaces semantics transfer ownership.
  }
  ++rules.counts[app];
  ++total_;
}

void OwnershipTracker::recordDelete(of::DatapathId dpid,
                                    const of::FlowMatch& match,
                                    std::optional<std::uint16_t> priority,
                                    bool strict) {
  std::lock_guard lock(mutex_);
  auto found = switches_.find(dpid);
  if (found == switches_.end()) return;
  SwitchRules& rules = found->second;
  if (strict) {
    if (!priority) return;
    auto entry = rules.owners.find(RuleKey{match, *priority});
    if (entry == rules.owners.end()) return;
    uncount(rules, entry->second);
    rules.owners.erase(entry);
  } else {
    for (auto entry = rules.owners.begin(); entry != rules.owners.end();) {
      if (match.subsumes(entry->first.match)) {
        uncount(rules, entry->second);
        entry = rules.owners.erase(entry);
      } else {
        ++entry;
      }
    }
  }
  if (rules.owners.empty()) switches_.erase(found);
}

std::optional<of::AppId> OwnershipTracker::ownerOf(
    of::DatapathId dpid, const of::FlowMatch& match,
    std::uint16_t priority) const {
  std::lock_guard lock(mutex_);
  const SwitchRules* rules = find(dpid);
  if (rules == nullptr) return std::nullopt;
  auto entry = rules->owners.find(RuleKey{match, priority});
  if (entry == rules->owners.end()) return std::nullopt;
  return entry->second;
}

bool OwnershipTracker::ownsAllMatching(of::AppId app, of::DatapathId dpid,
                                       const of::FlowMatch& pattern) const {
  std::lock_guard lock(mutex_);
  const SwitchRules* rules = find(dpid);
  if (rules == nullptr || !rules->hasForeign(app)) return true;
  return std::none_of(rules->owners.begin(), rules->owners.end(),
                      [&](const auto& entry) {
                        return entry.second != app &&
                               pattern.subsumes(entry.first.match);
                      });
}

bool OwnershipTracker::overridesForeignFlow(of::AppId app, of::DatapathId dpid,
                                            const of::FlowMatch& match,
                                            std::uint16_t priority) const {
  std::lock_guard lock(mutex_);
  const SwitchRules* rules = find(dpid);
  if (rules == nullptr || !rules->hasForeign(app)) return false;
  return std::any_of(rules->owners.begin(), rules->owners.end(),
                     [&](const auto& entry) {
                       return entry.second != app &&
                              entry.first.priority <= priority &&
                              entry.first.match.overlaps(match);
                     });
}

std::size_t OwnershipTracker::countFor(of::AppId app,
                                       of::DatapathId dpid) const {
  std::lock_guard lock(mutex_);
  const SwitchRules* rules = find(dpid);
  if (rules == nullptr) return 0;
  auto own = rules->counts.find(app);
  return own == rules->counts.end() ? 0 : own->second;
}

std::size_t OwnershipTracker::totalTracked() const {
  std::lock_guard lock(mutex_);
  return total_;
}

void OwnershipTracker::clear() {
  std::lock_guard lock(mutex_);
  switches_.clear();
  total_ = 0;
}

perm::ApiCall flowModCall(const OwnershipTracker& ownership, of::AppId app,
                          of::DatapathId dpid, const of::FlowMod& mod,
                          std::size_t pendingAdds) {
  if (mod.isDelete()) {
    perm::ApiCall call = perm::ApiCall::deleteFlow(
        app, dpid, mod.match, ownership.ownsAllMatching(app, dpid, mod.match));
    call.priority = mod.priority;
    return call;
  }
  perm::ApiCall call = perm::ApiCall::insertFlow(app, dpid, mod);
  call.ownFlow =
      mod.isModify()
          ? ownership.ownsAllMatching(app, dpid, mod.match)
          : !ownership.overridesForeignFlow(app, dpid, mod.match, mod.priority);
  call.ruleCountAfter =
      ownership.countFor(app, dpid) + pendingAdds + (mod.addsRule() ? 1 : 0);
  return call;
}

}  // namespace sdnshield::engine
