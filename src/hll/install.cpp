#include "hll/install.h"

namespace sdnshield::hll {

InstallReport installPolicy(engine::PermissionEngine& engine,
                            ctrl::Controller& controller, of::DatapathId dpid,
                            const PolicyPtr& policy,
                            std::uint16_t topPriority) {
  std::vector<CompiledRule> rules = compile(policy);
  std::vector<of::FlowMod> mods = toFlowMods(rules, topPriority);

  InstallReport report;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const CompiledRule& rule = rules[i];
    // Every owner that contributed to this rule must be permitted to issue
    // it (§VI-C: "split the rule and feed them to the permission engine
    // respectively"). One blocked owner partially denies the rule.
    bool allowed = true;
    for (of::AppId owner : rule.owners) {
      perm::ApiCall call =
          engine::flowModCall(controller.ownership(), owner, dpid, mods[i]);
      engine::Decision decision = engine.check(call);
      controller.audit().record(call, decision.allowed, decision.reason);
      if (!decision.allowed) {
        report.denied.push_back(
            InstallReport::DeniedRule{i, owner, decision.reason});
        allowed = false;
        break;
      }
    }
    if (!allowed) continue;
    // Attribute the installed rule to its first owner (the kernel when the
    // policy carries no ownership annotations at all).
    of::AppId issuer =
        rule.owners.empty() ? of::kKernelAppId : *rule.owners.begin();
    if (controller.kernelInsertFlow(issuer, dpid, mods[i]).ok()) {
      ++report.installed;
    }
  }
  return report;
}

InstallReport reinstallPolicy(engine::PermissionEngine& engine,
                              ctrl::Controller& controller,
                              of::DatapathId dpid, const PolicyPtr& policy,
                              std::uint16_t topPriority) {
  // Remove the classifier's previous incarnation first: strict deletes by
  // (match, priority) target exactly the rules a prior installPolicy of the
  // same policy laid down, attributed to the same issuer the install used.
  std::vector<CompiledRule> rules = compile(policy);
  std::vector<of::FlowMod> mods = toFlowMods(rules, topPriority);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    of::AppId issuer = rules[i].owners.empty() ? of::kKernelAppId
                                               : *rules[i].owners.begin();
    controller.kernelDeleteFlow(issuer, dpid, mods[i].match, /*strict=*/true,
                                mods[i].priority);
  }
  // Then reinstall under the CURRENT grants — rules whose owners lost the
  // needed permissions since the first install come back partially denied.
  return installPolicy(engine, controller, dpid, policy, topPriority);
}

}  // namespace sdnshield::hll
