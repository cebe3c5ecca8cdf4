// Flow ownership tracking (paper §IV, ownership filter): records which app
// issued each installed flow, so OWN_FLOWS filters can be evaluated and the
// per-app rule count (table-size filter) maintained.
//
// Records are indexed per switch by exact rule key, with per-app counts, so
// the checks made before every insert cost hash lookups (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/perm/api_call.h"
#include "of/flow_mod.h"

namespace sdnshield::engine {

class OwnershipTracker {
 public:
  void recordInsert(of::AppId app, of::DatapathId dpid,
                    const of::FlowMatch& match, std::uint16_t priority);

  /// Removes records matching a delete. Non-strict deletes remove every
  /// entry whose match is subsumed by @p match (OF semantics).
  void recordDelete(of::DatapathId dpid, const of::FlowMatch& match,
                    std::optional<std::uint16_t> priority, bool strict);

  /// Owner of the exact (dpid, match, priority) rule.
  std::optional<of::AppId> ownerOf(of::DatapathId dpid,
                                   const of::FlowMatch& match,
                                   std::uint16_t priority) const;

  /// True when every tracked rule on @p dpid that the (non-strict) pattern
  /// would touch is owned by @p app. Vacuously true when none match.
  bool ownsAllMatching(of::AppId app, of::DatapathId dpid,
                       const of::FlowMatch& pattern) const;

  /// True when any tracked rule owned by another app overlaps @p match with
  /// priority <= @p priority — i.e. installing this rule could shadow or
  /// rewrite another app's traffic (used for OWN_FLOWS on inserts).
  bool overridesForeignFlow(of::AppId app, of::DatapathId dpid,
                            const of::FlowMatch& match,
                            std::uint16_t priority) const;

  /// Number of rules @p app currently has installed on @p dpid.
  std::size_t countFor(of::AppId app, of::DatapathId dpid) const;

  std::size_t totalTracked() const;
  void clear();

 private:
  struct RuleKey {
    of::FlowMatch match;
    std::uint16_t priority = 0;
    friend bool operator==(const RuleKey&, const RuleKey&) = default;
  };
  /// Agrees with FlowMatch::operator==: masked IPv4 fields hash only the
  /// value bits under their mask.
  struct RuleKeyHash {
    std::size_t operator()(const RuleKey& key) const;
  };
  struct SwitchRules {
    std::unordered_map<RuleKey, of::AppId, RuleKeyHash> owners;
    std::unordered_map<of::AppId, std::size_t> counts;  ///< Never holds 0.

    /// True when some rule on this switch is owned by an app other than
    /// @p app; when false, no foreign-rule scan is needed.
    bool hasForeign(of::AppId app) const;
  };

  /// Drops one rule of @p owner from @p rules' per-app count.
  void uncount(SwitchRules& rules, of::AppId owner);
  const SwitchRules* find(of::DatapathId dpid) const;

  mutable std::mutex mutex_;
  std::unordered_map<of::DatapathId, SwitchRules> switches_;
  std::size_t total_ = 0;
};

/// The permission context (ApiCall) of a flow-mod @p app issues on @p dpid;
/// every mediated flow-mod takes it from here. A modify or delete holds
/// OWN_FLOWS when the caller owns every rule its match covers, an add when
/// it overrides no foreign rule. ruleCountAfter counts the caller's rules,
/// the @p pendingAdds admitted but not yet applied, and this mod if it adds.
perm::ApiCall flowModCall(const OwnershipTracker& ownership, of::AppId app,
                          of::DatapathId dpid, const of::FlowMod& mod,
                          std::size_t pendingAdds = 0);

}  // namespace sdnshield::engine
