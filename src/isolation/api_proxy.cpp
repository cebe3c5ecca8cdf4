#include "isolation/api_proxy.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/engine/transaction.h"
#include "core/lang/perm_parser.h"
#include "core/perm/normal_form.h"
#include "isolation/executor.h"

namespace sdnshield::iso {

// --- RecentPacketIns ----------------------------------------------------------

std::string RecentPacketIns::bytesOf(const of::Packet& packet) {
  of::Bytes wire = packet.serialize();
  return std::string(wire.begin(), wire.end());
}

void RecentPacketIns::remember(const of::Packet& packet) {
  std::string bytes = bytesOf(packet);
  std::lock_guard lock(mutex_);
  packets_.insert(bytes);
  order_.push_back(std::move(bytes));
  if (order_.size() > capacity_) {
    packets_.erase(packets_.find(order_.front()));
    order_.pop_front();
  }
}

bool RecentPacketIns::seen(const of::Packet& packet) const {
  std::string bytes = bytesOf(packet);
  std::lock_guard lock(mutex_);
  return packets_.contains(bytes);
}

// --- ShieldedApi ----------------------------------------------------------------

namespace {

/// Shared deny shape for ApiResult-returning calls.
ctrl::ApiResult denied(const engine::Decision& decision) {
  return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                  decision.reason);
}

/// Runs @p work on a deputy under the runtime's call deadline, converting
/// channel failures (hung deputy, saturated queue, dropped call) into typed
/// failed API responses instead of letting exceptions escape into app code —
/// each transport failure gets its own ApiErrc, so audit consumers can tell
/// a deputy-side permission denial (kPermissionDenied, recorded by the
/// deputy body) from a transport failure (kDeadlineExceeded / kQueueFull /
/// kPoolStopped, recorded here as faults). Calls from a quarantined app
/// fail fast with kAppQuarantined without touching the channel.
template <typename R>
R viaDeputy(ShieldRuntime& runtime, of::AppId app, std::function<R()> work) {
  if (runtime.isQuarantined(app)) {
    return R::failure(ctrl::ApiErrc::kAppQuarantined, "app is quarantined");
  }
  try {
    return runtime.ksd().call<R>(std::move(work),
                                 runtime.options().ksdCallTimeout);
  } catch (const PoolStopped&) {
    throw;  // Calls after shutdown() keep the historical throwing contract.
  } catch (const DeadlineExceeded& error) {
    runtime.controller().audit().recordFault(
        app, std::string("api call: ") + error.what());
    return R::failure(ctrl::ApiErrc::kDeadlineExceeded, error.what());
  } catch (const QueueSaturated& error) {
    runtime.controller().audit().recordFault(
        app, std::string("api call: ") + error.what());
    return R::failure(ctrl::ApiErrc::kQueueFull, error.what());
  } catch (const CallDropped& error) {
    return R::failure(ctrl::ApiErrc::kPoolStopped, error.what());
  } catch (const std::exception& error) {
    // Anything else escaping the channel (e.g. an injected fault at the
    // ksd.call site) means the deputy path is unavailable for this call.
    return R::failure(ctrl::ApiErrc::kPoolStopped,
                      std::string("deputy unavailable: ") + error.what());
  }
}

/// Asynchronous counterpart of viaDeputy: acquires a slot in the app's
/// bounded in-flight window, queues @p work and returns an ApiFuture that
/// resolves with the deputy's result — or a typed failure at the call's
/// absolute deadline (captured at submission, so pipelined calls don't each
/// restart the clock at get() time). The slot is released by an RAII guard
/// owned by the queued task: completion, fault and discard paths all free
/// it, including when the app abandons the future.
template <typename R>
ctrl::ApiFuture<R> submitViaDeputy(ShieldRuntime& runtime, of::AppId app,
                                   std::function<R()> work) {
  if (runtime.isQuarantined(app)) {
    return ctrl::ApiFuture<R>::ready(
        R::failure(ctrl::ApiErrc::kAppQuarantined, "app is quarantined"));
  }
  std::shared_ptr<InFlightWindow> window = runtime.inFlightWindow(app);
  bool acquired;
  if (VirtualExecutor* executor = virtualExecutor()) {
    // Model-checking mode: a full window parks the submitter as a
    // scheduler step instead of a timed condvar wait.
    acquired = window->tryAcquire();
    if (!acquired) {
      executor->await(
          [&acquired, &window] {
            if (!acquired) acquired = window->tryAcquire();
            return acquired;
          },
          "ksd.window");
    }
  } else {
    acquired = window->acquireFor(runtime.options().ksdCallTimeout);
  }
  if (!acquired) {
    recordKsdQueueReject();
    runtime.controller().audit().recordFault(
        app, "api call: in-flight window full past the deadline");
    return ctrl::ApiFuture<R>::ready(
        R::failure(ctrl::ApiErrc::kQueueFull, "in-flight window full"));
  }
  std::shared_ptr<void> slot(static_cast<void*>(nullptr),
                             [window](void*) { window->release(); });
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() + runtime.options().ksdCallTimeout;
  std::int64_t startNs = obs::Tracer::nowNs();
  std::shared_ptr<std::future<R>> future;
  try {
    future = std::make_shared<std::future<R>>(
        runtime.ksd().template submitFuture<R>(std::move(work), slot));
  } catch (const PoolStopped&) {
    throw;  // Same post-shutdown contract as the synchronous path.
  } catch (const QueueSaturated& error) {
    runtime.controller().audit().recordFault(
        app, std::string("api call: ") + error.what());
    return ctrl::ApiFuture<R>::ready(
        R::failure(ctrl::ApiErrc::kQueueFull, error.what()));
  } catch (const std::exception& error) {
    return ctrl::ApiFuture<R>::ready(
        R::failure(ctrl::ApiErrc::kPoolStopped,
                   std::string("deputy unavailable: ") + error.what()));
  }
  auto wait = [&runtime, app, future, deadline, startNs]() -> R {
    bool ready;
    if (VirtualExecutor* executor = virtualExecutor()) {
      executor->await(
          [future] {
            return future->wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
          },
          "ksd.async");
      ready = future->wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready;
    } else {
      ready = future->wait_until(deadline) == std::future_status::ready;
    }
    if (!ready) {
      recordKsdDeadlineMiss();
      runtime.controller().audit().recordFault(
          app, "api call: async KSD call missed its deadline");
      return R::failure(ctrl::ApiErrc::kDeadlineExceeded,
                        "KSD call missed its deadline");
    }
    try {
      R result = future->get();
      recordKsdCall(obs::Tracer::nowNs() - startNs);
      return result;
    } catch (const std::future_error&) {
      return R::failure(ctrl::ApiErrc::kPoolStopped,
                        "deputy dropped the call");
    } catch (const std::exception& error) {
      return R::failure(ctrl::ApiErrc::kPoolStopped,
                        std::string("deputy unavailable: ") + error.what());
    }
  };
  auto poll = [future] {
    return future->wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };
  return ctrl::ApiFuture<R>(std::move(wait), std::move(poll));
}

}  // namespace

ctrl::ApiResult ShieldedApi::doInsertFlow(of::DatapathId dpid,
                                          const of::FlowMod& mod) {
  auto compiled = runtime_.engine().compiled(app_);
  if (!compiled) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                    "app not installed");
  }
  engine::OwnershipTracker& ownership = runtime_.controller().ownership();
  perm::ApiCall call = perm::ApiCall::insertFlow(app_, dpid, mod);
  bool isModify = mod.command == of::FlowModCommand::kModify ||
                  mod.command == of::FlowModCommand::kModifyStrict;
  // OWN_FLOWS semantics: a *modify* targets existing rules (all of them
  // must be the caller's); an *add* must not shadow/override a foreign rule.
  call.ownFlow =
      isModify
          ? ownership.ownsAllMatching(app_, dpid, mod.match)
          : !ownership.overridesForeignFlow(app_, dpid, mod.match,
                                            mod.priority);
  call.ruleCountAfter = ownership.countFor(app_, dpid) + (isModify ? 0 : 1);
  engine::Decision decision = compiled->check(call);
  runtime_.controller().audit().record(call, decision.allowed, decision.reason);
  if (!decision.allowed) return denied(decision);

  // Abstract-topology translation (§VI-B.1): a rule addressed to the
  // virtual big switch expands into physical rules along shortest paths.
  if (dpid == kVirtualDpid) {
    auto vtopo = runtime_.virtualTopologyFor(app_);
    if (!vtopo) {
      return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                      "no virtual topology granted");
    }
    std::vector<std::pair<of::DatapathId, of::FlowMod>> physical;
    try {
      physical = vtopo->translateFlowMod(mod);
    } catch (const std::invalid_argument& error) {
      return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                      error.what());
    }
    for (const auto& [physDpid, physMod] : physical) {
      ctrl::ApiResult result =
          runtime_.controller().kernelInsertFlow(app_, physDpid, physMod);
      if (!result.ok()) return result;
    }
    return ctrl::ApiResult::success();
  }
  return runtime_.controller().kernelInsertFlow(app_, dpid, mod);
}

ctrl::ApiResult ShieldedApi::doInsertFlows(of::DatapathId dpid,
                                           const std::vector<of::FlowMod>& mods) {
  if (mods.empty()) return ctrl::ApiResult::success();
  // The permission context — compiled program and base rule count — is
  // resolved once for the whole batch; per-mod checks reuse it with the
  // running count of adds admitted so far (what the count would be had the
  // mods been applied sequentially).
  auto compiled = runtime_.engine().compiled(app_);
  if (!compiled) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                    "app not installed");
  }
  if (dpid == kVirtualDpid) {
    // Virtual-big-switch rules expand per mod; batching stops at the
    // translation boundary.
    ctrl::ApiResult result = ctrl::ApiResult::success();
    for (const of::FlowMod& mod : mods) {
      ctrl::ApiResult one = doInsertFlow(dpid, mod);
      if (!one.ok() && result.ok()) result = one;
    }
    return result;
  }
  engine::OwnershipTracker& ownership = runtime_.controller().ownership();
  std::size_t baseCount = ownership.countFor(app_, dpid);
  std::size_t pendingAdds = 0;
  std::vector<of::FlowMod> admitted;
  admitted.reserve(mods.size());
  ctrl::ApiResult result = ctrl::ApiResult::success();
  for (const of::FlowMod& mod : mods) {
    perm::ApiCall call = perm::ApiCall::insertFlow(app_, dpid, mod);
    bool isModify = mod.command == of::FlowModCommand::kModify ||
                    mod.command == of::FlowModCommand::kModifyStrict;
    // Own-flow attributes against pre-batch state: earlier mods in the batch
    // only add the caller's own rules, which cannot make a later add
    // override a *foreign* flow.
    call.ownFlow =
        isModify
            ? ownership.ownsAllMatching(app_, dpid, mod.match)
            : !ownership.overridesForeignFlow(app_, dpid, mod.match,
                                              mod.priority);
    call.ruleCountAfter = baseCount + pendingAdds + (isModify ? 0 : 1);
    engine::Decision decision = compiled->check(call);
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (!decision.allowed) {
      if (result.ok()) result = denied(decision);
      continue;
    }
    if (!isModify) ++pendingAdds;
    admitted.push_back(mod);
  }
  if (!admitted.empty()) {
    ctrl::ApiResult applied =
        runtime_.controller().kernelInsertFlows(app_, dpid, admitted);
    if (!applied.ok() && result.ok()) result = applied;
  }
  return result;
}

ctrl::ApiResult ShieldedApi::insertFlow(of::DatapathId dpid,
                                        const of::FlowMod& mod) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_, [this, dpid, mod] { return doInsertFlow(dpid, mod); });
}

ctrl::ApiResult ShieldedApi::insertFlows(of::DatapathId dpid,
                                         const std::vector<of::FlowMod>& mods) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_, [this, dpid, mods] { return doInsertFlows(dpid, mods); });
}

ctrl::ApiFuture<ctrl::ApiResult> ShieldedApi::insertFlowAsync(
    of::DatapathId dpid, const of::FlowMod& mod) {
  return submitViaDeputy<ctrl::ApiResult>(
      runtime_, app_, [this, dpid, mod] { return doInsertFlow(dpid, mod); });
}

ctrl::ApiFuture<ctrl::ApiResult> ShieldedApi::sendPacketOutAsync(
    const of::PacketOut& packetOut) {
  return submitViaDeputy<ctrl::ApiResult>(
      runtime_, app_,
      [this, packetOut] { return doSendPacketOut(packetOut); });
}

ctrl::ApiResult ShieldedApi::deleteFlow(of::DatapathId dpid,
                                        const of::FlowMatch& match,
                                        bool strict, std::uint16_t priority) {
  return viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, dpid, match,
                                                     strict, priority] {
    auto compiled = runtime_.engine().compiled(app_);
    if (!compiled) {
      return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                      "app not installed");
    }
    perm::ApiCall call = perm::ApiCall::deleteFlow(
        app_, dpid, match,
        runtime_.controller().ownership().ownsAllMatching(app_, dpid, match));
    call.priority = priority;
    engine::Decision decision = compiled->check(call);
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (!decision.allowed) return denied(decision);
    // Virtual big switch: the delete addresses every member shard the
    // corresponding insert was realised on (§VI-B.1).
    if (dpid == kVirtualDpid) {
      auto vtopo = runtime_.virtualTopologyFor(app_);
      if (!vtopo) {
        return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                        "no virtual topology granted");
      }
      of::FlowMod vdelete;
      vdelete.command = strict ? of::FlowModCommand::kDeleteStrict
                               : of::FlowModCommand::kDelete;
      vdelete.match = match;
      vdelete.priority = priority;
      std::vector<std::pair<of::DatapathId, of::FlowMod>> shards;
      try {
        shards = vtopo->translateFlowMod(vdelete);
      } catch (const std::invalid_argument& error) {
        return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                        error.what());
      }
      for (const auto& [shardDpid, shardMod] : shards) {
        runtime_.controller().kernelDeleteFlow(app_, shardDpid, shardMod.match,
                                               strict, priority);
      }
      return ctrl::ApiResult::success();
    }
    return runtime_.controller().kernelDeleteFlow(app_, dpid, match, strict,
                                                  priority);
  });
}

ctrl::ApiResult ShieldedApi::commitFlowTransaction(
    const std::vector<std::pair<of::DatapathId, of::FlowMod>>& mods) {
  return viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, mods] {
    engine::OwnershipTracker& ownership = runtime_.controller().ownership();
    engine::Transaction transaction;
    std::map<of::DatapathId, std::size_t> pendingPerSwitch;
    for (const auto& [dpid, mod] : mods) {
      perm::ApiCall call = perm::ApiCall::insertFlow(app_, dpid, mod);
      call.ownFlow =
          !ownership.overridesForeignFlow(app_, dpid, mod.match, mod.priority);
      call.ruleCountAfter =
          ownership.countFor(app_, dpid) + (++pendingPerSwitch[dpid]);
      of::DatapathId capturedDpid = dpid;
      of::FlowMod capturedMod = mod;
      transaction.add(engine::TxOperation{
          std::move(call),
          [this, capturedDpid, capturedMod] {
            return runtime_.controller()
                .kernelInsertFlow(app_, capturedDpid, capturedMod)
                .ok();
          },
          [this, capturedDpid, capturedMod] {
            runtime_.controller().kernelDeleteFlow(
                app_, capturedDpid, capturedMod.match, /*strict=*/true,
                capturedMod.priority);
          }});
    }
    engine::TxResult result = transaction.commit(runtime_.engine());
    if (!result.committed) {
      return ctrl::ApiResult::failure(
          ctrl::ApiErrc::kTransactionAborted,
          "aborted at operation " + std::to_string(result.failedIndex) + ": " +
              result.failureReason);
    }
    return ctrl::ApiResult::success();
  });
}

ctrl::ApiResponse<std::vector<of::FlowEntry>> ShieldedApi::readFlowTable(
    of::DatapathId dpid) {
  using Response = ctrl::ApiResponse<std::vector<of::FlowEntry>>;
  return viaDeputy<Response>(runtime_, app_, [this, dpid]() -> Response {
    auto compiled = runtime_.engine().compiled(app_);
    perm::ApiCall call = perm::ApiCall::readFlowTable(app_, dpid);
    bool tokenOk =
        compiled && compiled->hasToken(perm::Token::kReadFlowTable);
    runtime_.controller().audit().record(call, tokenOk,
                                         tokenOk ? "" : "missing token");
    if (!tokenOk) {
      return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                               "read_flow_table");
    }
    auto response = runtime_.controller().kernelReadFlowTable(dpid);
    if (!response.ok()) return response;
    // Entry-level visibility filtering: each entry is labelled by the same
    // compiled filter program, with its own match/ownership attributes.
    engine::OwnershipTracker& ownership = runtime_.controller().ownership();
    std::vector<of::FlowEntry> visible;
    for (of::FlowEntry& entry : response.value()) {
      perm::ApiCall entryCall = perm::ApiCall::readFlowTable(app_, dpid);
      entryCall.match = entry.match;
      entryCall.priority = entry.priority;
      auto owner = ownership.ownerOf(dpid, entry.match, entry.priority);
      entryCall.ownFlow = owner && *owner == app_;
      if (compiled->check(entryCall).allowed) {
        visible.push_back(std::move(entry));
      }
    }
    return Response::success(std::move(visible));
  });
}

ctrl::ApiResponse<net::Topology> ShieldedApi::readTopology() {
  using Response = ctrl::ApiResponse<net::Topology>;
  return viaDeputy<Response>(runtime_, app_, [this]() -> Response {
    auto compiled = runtime_.engine().compiled(app_);
    perm::ApiCall call = perm::ApiCall::readTopology(app_);
    engine::Decision decision =
        compiled ? compiled->check(call)
                 : engine::Decision::deny("app not installed");
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (!decision.allowed) {
      return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                               decision.reason);
    }
    net::Topology topology = runtime_.controller().kernelReadTopology();
    // Virtual abstraction wins over plain projection when both are present.
    if (compiled->virtualTopology()) {
      auto vtopo = runtime_.virtualTopologyFor(app_);
      if (vtopo) return Response::success(vtopo->abstractView());
    }
    if (const auto* projection = compiled->topologyProjection()) {
      net::Topology restricted = topology.restrictTo(projection->switches());
      if (!projection->links().empty()) {
        for (const net::Link& link : restricted.links()) {
          auto key = std::minmax(link.a.dpid, link.b.dpid);
          if (!projection->links().contains({key.first, key.second})) {
            restricted.removeLink(link.a.dpid, link.b.dpid);
          }
        }
      }
      return Response::success(std::move(restricted));
    }
    return Response::success(std::move(topology));
  });
}

ctrl::ApiResponse<of::StatsReply> ShieldedApi::readStatistics(
    const of::StatsRequest& request) {
  using Response = ctrl::ApiResponse<of::StatsReply>;
  return viaDeputy<Response>(runtime_, app_, [this, request]() -> Response {
    auto compiled = runtime_.engine().compiled(app_);
    perm::ApiCall call = perm::ApiCall::readStatistics(app_, request);
    // Flow-level requests are checked per returned entry (projection), so
    // the call-level check omits the match attribute.
    call.match.reset();
    engine::Decision decision =
        compiled ? compiled->check(call)
                 : engine::Decision::deny("app not installed");
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (!decision.allowed) {
      return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                               decision.reason);
    }

    // Virtual big switch: query members and aggregate (§VI-B.1).
    if (request.dpid == kVirtualDpid) {
      auto vtopo = runtime_.virtualTopologyFor(app_);
      if (!vtopo) {
        return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                                 "no virtual topology granted");
      }
      of::StatsReply aggregate;
      aggregate.level = request.level;
      aggregate.dpid = kVirtualDpid;
      std::vector<of::SwitchStats> memberStats;
      std::vector<of::FlowStatsEntry> memberFlows;
      for (of::DatapathId member : vtopo->virtualSwitch().members) {
        of::StatsRequest memberRequest = request;
        memberRequest.dpid = member;
        auto response =
            runtime_.controller().kernelReadStatistics(memberRequest);
        if (!response.ok()) continue;
        memberStats.push_back(response.value().switchStats);
        memberFlows.insert(memberFlows.end(), response.value().flows.begin(),
                           response.value().flows.end());
        aggregate.ports.insert(aggregate.ports.end(),
                               response.value().ports.begin(),
                               response.value().ports.end());
      }
      aggregate.switchStats = vtopo->aggregateSwitchStats(memberStats);
      aggregate.flows = vtopo->aggregateFlowStats(memberFlows);
      return Response::success(std::move(aggregate));
    }

    auto response = runtime_.controller().kernelReadStatistics(request);
    if (!response.ok() || request.level != of::StatsLevel::kFlow) {
      return response;
    }
    // Flow-level: project the reply through the per-entry filter.
    engine::OwnershipTracker& ownership = runtime_.controller().ownership();
    std::vector<of::FlowStatsEntry> visible;
    for (of::FlowStatsEntry& entry : response.value().flows) {
      perm::ApiCall entryCall = call;
      entryCall.match = entry.match;
      entryCall.priority = entry.priority;
      auto owner = ownership.ownerOf(request.dpid, entry.match, entry.priority);
      entryCall.ownFlow = owner && *owner == app_;
      if (compiled->check(entryCall).allowed) {
        visible.push_back(std::move(entry));
      }
    }
    response.value().flows = std::move(visible);
    return response;
  });
}

ctrl::ApiResult ShieldedApi::doSendPacketOut(const of::PacketOut& packetOut) {
  auto compiled = runtime_.engine().compiled(app_);
  if (!compiled) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                    "app not installed");
  }
  of::PacketOut verified = packetOut;
  // Provenance is established by the deputy, not trusted from the app: the
  // packet must byte-match one recently delivered to this app as a
  // packet-in (FROM_PKT_IN filter input).
  verified.fromPacketIn = recent_ && recent_->seen(packetOut.packet);
  perm::ApiCall call = perm::ApiCall::sendPacketOut(app_, verified);
  engine::Decision decision = compiled->check(call);
  runtime_.controller().audit().record(call, decision.allowed,
                                       decision.reason);
  if (!decision.allowed) return denied(decision);
  if (verified.dpid == kVirtualDpid) {
    auto vtopo = runtime_.virtualTopologyFor(app_);
    if (!vtopo) {
      return ctrl::ApiResult::failure(ctrl::ApiErrc::kPermissionDenied,
                                      "no virtual topology granted");
    }
    try {
      auto [physDpid, physOut] = vtopo->translatePacketOut(verified);
      return runtime_.controller().kernelSendPacketOut(physOut);
    } catch (const std::invalid_argument& error) {
      return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                      error.what());
    }
  }
  return runtime_.controller().kernelSendPacketOut(verified);
}

ctrl::ApiResult ShieldedApi::sendPacketOut(const of::PacketOut& packetOut) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_,
      [this, packetOut] { return doSendPacketOut(packetOut); });
}

ctrl::ApiResult ShieldedApi::publishData(const std::string& topic,
                                         const std::string& payload) {
  return viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, topic, payload] {
    // Data-model publication writes the controller's network view: mediated
    // under modify_topology (cf. the YANG data-broker mediation, §VIII-B).
    auto compiled = runtime_.engine().compiled(app_);
    perm::ApiCall call;
    call.type = perm::ApiCallType::kModifyTopology;
    call.app = app_;
    engine::Decision decision =
        compiled ? compiled->check(call)
                 : engine::Decision::deny("app not installed");
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (!decision.allowed) return denied(decision);
    runtime_.controller().kernelPublishData(app_, topic, payload);
    return ctrl::ApiResult::success();
  });
}

ctrl::ApiResponse<ctrl::StatsReport> ShieldedApi::statsReport() {
  using Response = ctrl::ApiResponse<ctrl::StatsReport>;
  return viaDeputy<Response>(runtime_, app_, [this]() -> Response {
    auto compiled = runtime_.engine().compiled(app_);
    // Controller-wide counters are switch-granularity data: the report is
    // gated behind read_statistics at SWITCH level, so a flow- or
    // port-scoped statistics grant does not expose the fleet view.
    perm::ApiCall call;
    call.type = perm::ApiCallType::kReadStatistics;
    call.app = app_;
    call.statsLevel = of::StatsLevel::kSwitch;
    engine::Decision decision =
        compiled ? compiled->check(call)
                 : engine::Decision::deny("app not installed");
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (!decision.allowed) {
      return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                               decision.reason);
    }
    return Response::success(runtime_.controller().statsReport());
  });
}

namespace {

/// Deputy-side market_admin gate shared by the three lifecycle calls.
engine::Decision checkMarketAdmin(ShieldRuntime& runtime, of::AppId app,
                                  const std::string& operation) {
  auto compiled = runtime.engine().compiled(app);
  perm::ApiCall call = perm::ApiCall::marketAdmin(app, operation);
  engine::Decision decision = compiled
                                  ? compiled->check(call)
                                  : engine::Decision::deny("app not installed");
  runtime.controller().audit().record(call, decision.allowed, decision.reason);
  return decision;
}

}  // namespace

ctrl::ApiResult ShieldedApi::updatePolicy(const std::string& policyText) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_, [this, policyText]() -> ctrl::ApiResult {
        engine::Decision decision =
            checkMarketAdmin(runtime_, app_, "update_policy");
        if (!decision.allowed) return denied(decision);
        ctrl::MarketControl* market = runtime_.controller().marketControl();
        if (!market) {
          return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                          "no app market attached");
        }
        // Deputy-thread safe: the market's policy swap never joins app
        // containers (it only touches the permission engine + journal).
        return market->updatePolicy(policyText);
      });
}

ctrl::ApiResult ShieldedApi::revokeApp(of::AppId app,
                                       const std::string& reason) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_, [this, app, reason]() -> ctrl::ApiResult {
        engine::Decision decision = checkMarketAdmin(
            runtime_, app_, "revoke " + std::to_string(app));
        if (!decision.allowed) return denied(decision);
        ctrl::MarketControl* market = runtime_.controller().marketControl();
        if (!market) {
          return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                          "no app market attached");
        }
        // Deputy-thread safe: revocation quarantines (seals, never joins)
        // the target container.
        return market->revokeApp(app, reason);
      });
}

ctrl::ApiResponse<std::string> ShieldedApi::marketReport() {
  using Response = ctrl::ApiResponse<std::string>;
  return viaDeputy<Response>(runtime_, app_, [this]() -> Response {
    engine::Decision decision = checkMarketAdmin(runtime_, app_, "report");
    if (!decision.allowed) {
      return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                               decision.reason);
    }
    ctrl::MarketControl* market = runtime_.controller().marketControl();
    if (!market) {
      return Response::failure(ctrl::ApiErrc::kInvalidArgument,
                               "no app market attached");
    }
    return Response::success(market->report());
  });
}

// --- ShieldedContext --------------------------------------------------------------

ShieldedContext::ShieldedContext(ShieldRuntime& runtime, of::AppId app,
                                 std::shared_ptr<ThreadContainer> container)
    : runtime_(runtime),
      app_(app),
      container_(std::move(container)),
      recent_(std::make_shared<RecentPacketIns>()),
      api_(runtime, app, recent_) {}

ctrl::HostServices& ShieldedContext::host() {
  return runtime_.referenceMonitor();
}

namespace {

/// Checks an event-subscription call on a deputy and records it.
ctrl::ApiResult checkSubscribe(ShieldRuntime& runtime, of::AppId app,
                               perm::ApiCallType type) {
  return viaDeputy<ctrl::ApiResult>(runtime, app, [&runtime, app, type] {
    perm::ApiCall call = perm::ApiCall::subscribe(app, type);
    engine::Decision decision = runtime.engine().check(call);
    runtime.controller().audit().record(call, decision.allowed,
                                        decision.reason);
    if (!decision.allowed) return denied(decision);
    return ctrl::ApiResult::success();
  });
}

}  // namespace

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribePacketIn(
    std::function<void(const ctrl::PacketInEvent&)> handler) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  ctrl::ApiResult checked = checkSubscribe(
      runtime_, app_, perm::ApiCallType::kSubscribePacketIn);
  if (!checked.ok()) return Response::failure(checked.error());
  ShieldRuntime& runtime = runtime_;
  of::AppId app = app_;
  auto container = container_;
  auto recent = recent_;
  ctrl::SubscriptionId id = runtime_.controller().addPacketInSubscriber(
      app_, [&runtime, app, container, recent,
             handler = std::move(handler)](const ctrl::Event& event) {
        const auto* typed = std::get_if<ctrl::PacketInEvent>(&event);
        if (typed == nullptr) return;
        ctrl::PacketInEvent delivered = *typed;
        auto compiled = runtime.engine().compiled(app);
        // Payload in pkt-in messages is a separate privilege (read_payload,
        // Table II): strip it for apps that only hold pkt_in_event.
        if (!compiled || !compiled->hasToken(perm::Token::kReadPayload)) {
          delivered.packetIn.packet.payload.clear();
        }
        recent->remember(delivered.packetIn.packet);
        if (!container->tryPost([handler, delivered = std::move(delivered)] {
              handler(delivered);
            })) {
          runtime.supervisor().recordEventDrop(app);
        }
      });
  return Response::success(id);
}

ctrl::ApiResponse<ctrl::SubscriptionId>
ShieldedContext::subscribePacketInInterceptor(
    std::function<bool(const ctrl::PacketInEvent&)> handler) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  // Interception is a stronger privilege than observation: the subscribe
  // call carries CallbackOp::kIntercept, which the EVENT_INTERCEPTION
  // callback filter must admit.
  ctrl::ApiResult checked =
      viaDeputy<ctrl::ApiResult>(runtime_, app_, [this] {
        perm::ApiCall call = perm::ApiCall::subscribe(
            app_, perm::ApiCallType::kSubscribePacketIn,
            perm::CallbackOp::kIntercept);
        engine::Decision decision = runtime_.engine().check(call);
        runtime_.controller().audit().record(call, decision.allowed,
                                             decision.reason);
        if (!decision.allowed) return denied(decision);
        return ctrl::ApiResult::success();
      });
  if (!checked.ok()) return Response::failure(checked.error());
  ShieldRuntime& runtime = runtime_;
  of::AppId app = app_;
  auto recent = recent_;
  // Interception is inherently synchronous (the consume/forward decision
  // gates delivery to other apps), so the handler runs on the dispatch
  // thread — under the app's ambient identity, so host calls made from it
  // are still attributed and mediated correctly.
  ctrl::SubscriptionId id = runtime_.controller().addPacketInInterceptor(
      app_, [&runtime, app, recent,
             handler = std::move(handler)](const ctrl::Event& event) {
        const auto* typed = std::get_if<ctrl::PacketInEvent>(&event);
        if (typed == nullptr) return false;
        ctrl::PacketInEvent delivered = *typed;
        auto compiled = runtime.engine().compiled(app);
        if (!compiled || !compiled->hasToken(perm::Token::kReadPayload)) {
          delivered.packetIn.packet.payload.clear();
        }
        recent->remember(delivered.packetIn.packet);
        ScopedIdentity identity(app);
        return handler(delivered);
      });
  return Response::success(id);
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribeFlowEvents(
    std::function<void(const ctrl::FlowEvent&)> handler) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  ctrl::ApiResult checked = checkSubscribe(
      runtime_, app_, perm::ApiCallType::kSubscribeFlowEvent);
  if (!checked.ok()) return Response::failure(checked.error());
  ShieldRuntime& runtime = runtime_;
  of::AppId app = app_;
  auto container = container_;
  ctrl::SubscriptionId id = runtime_.controller().addFlowSubscriber(
      app_, [&runtime, app, container,
             handler = std::move(handler)](const ctrl::Event& event) {
        const auto* typed = std::get_if<ctrl::FlowEvent>(&event);
        if (typed == nullptr) return;
        // Per-event filtering: a flow_event grant with e.g. OWN_FLOWS or a
        // predicate filter only sees matching notifications.
        auto compiled = runtime.engine().compiled(app);
        if (compiled) {
          perm::ApiCall eventCall = perm::ApiCall::subscribe(
              app, perm::ApiCallType::kSubscribeFlowEvent);
          eventCall.dpid = typed->dpid;
          eventCall.match = typed->match;
          eventCall.priority = typed->priority;
          eventCall.ownFlow = typed->issuer == app;
          if (!compiled->check(eventCall).allowed) return;
        }
        ctrl::FlowEvent delivered = *typed;
        if (!container->tryPost([handler, delivered] { handler(delivered); })) {
          runtime.supervisor().recordEventDrop(app);
        }
      });
  return Response::success(id);
}

ctrl::ApiResponse<ctrl::SubscriptionId>
ShieldedContext::subscribeTopologyEvents(
    std::function<void(const ctrl::TopologyEvent&)> handler) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  ctrl::ApiResult checked = checkSubscribe(
      runtime_, app_, perm::ApiCallType::kSubscribeTopologyEvent);
  if (!checked.ok()) return Response::failure(checked.error());
  ShieldRuntime& runtime = runtime_;
  of::AppId app = app_;
  auto container = container_;
  ctrl::SubscriptionId id = runtime_.controller().addTopologySubscriber(
      app_, [&runtime, app, container,
             handler = std::move(handler)](const ctrl::Event& event) {
        const auto* typed = std::get_if<ctrl::TopologyEvent>(&event);
        if (typed == nullptr) return;
        auto compiled = runtime.engine().compiled(app);
        if (compiled) {
          perm::ApiCall eventCall = perm::ApiCall::subscribe(
              app, perm::ApiCallType::kSubscribeTopologyEvent);
          eventCall.topoSwitches.push_back(typed->dpidA);
          if (typed->change == ctrl::TopologyChange::kLinkUp ||
              typed->change == ctrl::TopologyChange::kLinkDown) {
            eventCall.topoSwitches.push_back(typed->dpidB);
            eventCall.topoLinks.emplace_back(typed->dpidA, typed->dpidB);
          }
          if (!compiled->check(eventCall).allowed) return;
        }
        ctrl::TopologyEvent delivered = *typed;
        if (!container->tryPost([handler, delivered] { handler(delivered); })) {
          runtime.supervisor().recordEventDrop(app);
        }
      });
  return Response::success(id);
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribeErrorEvents(
    std::function<void(const ctrl::ErrorEvent&)> handler) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  ctrl::ApiResult checked = checkSubscribe(
      runtime_, app_, perm::ApiCallType::kSubscribeErrorEvent);
  if (!checked.ok()) return Response::failure(checked.error());
  ShieldRuntime& runtime = runtime_;
  of::AppId app = app_;
  auto container = container_;
  ctrl::SubscriptionId id = runtime_.controller().addErrorSubscriber(
      app_, [&runtime, app, container,
             handler = std::move(handler)](const ctrl::Event& event) {
        const auto* typed = std::get_if<ctrl::ErrorEvent>(&event);
        if (typed == nullptr) return;
        ctrl::ErrorEvent delivered = *typed;
        if (!container->tryPost([handler, delivered] { handler(delivered); })) {
          runtime.supervisor().recordEventDrop(app);
        }
      });
  return Response::success(id);
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribeData(
    const std::string& topic,
    std::function<void(const ctrl::DataUpdateEvent&)> handler) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  // Data-model event notification is mediated under topology_event (the
  // published data is network-view data; see publishData).
  ctrl::ApiResult checked = checkSubscribe(
      runtime_, app_, perm::ApiCallType::kSubscribeTopologyEvent);
  if (!checked.ok()) return Response::failure(checked.error());
  ShieldRuntime& runtime = runtime_;
  of::AppId app = app_;
  auto container = container_;
  ctrl::SubscriptionId id = runtime_.controller().addDataSubscriber(
      app_, topic,
      [&runtime, app, container,
       handler = std::move(handler)](const ctrl::Event& event) {
        const auto* typed = std::get_if<ctrl::DataUpdateEvent>(&event);
        if (typed == nullptr) return;
        ctrl::DataUpdateEvent delivered = *typed;
        if (!container->tryPost([handler, delivered] { handler(delivered); })) {
          runtime.supervisor().recordEventDrop(app);
        }
      });
  return Response::success(id);
}

ctrl::ApiResult ShieldedContext::unsubscribe(ctrl::SubscriptionId id) {
  // Ownership-checked: an app can only cancel its own subscriptions.
  if (!runtime_.controller().removeSubscription(id, app_)) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                    "unknown subscription");
  }
  return ctrl::ApiResult::success();
}

// --- ShieldRuntime -------------------------------------------------------------

ShieldRuntime::ShieldRuntime(ctrl::Controller& controller,
                             ShieldOptions options)
    : controller_(controller),
      options_(options),
      ksd_(options.ksdThreads, options.ksdCallTimeout, options.ksdBatchMax),
      supervisor_(options.supervisor),
      monitor_(host_, &engine_, &controller.audit()) {
  supervisor_.setQuarantineHook(
      [this](of::AppId app, const std::string& reason) {
        quarantineApp(app, reason);
      });
  ksd_.start();
  if (options_.supervise) supervisor_.start();
}

ShieldRuntime::~ShieldRuntime() { shutdown(); }

of::AppId ShieldRuntime::loadApp(std::shared_ptr<ctrl::App> app,
                                 const perm::PermissionSet& granted) {
  return loadAppImpl(std::nullopt, std::move(app), granted);
}

void ShieldRuntime::loadAppAs(of::AppId id, std::shared_ptr<ctrl::App> app,
                              const perm::PermissionSet& granted) {
  if (id == 0) throw std::invalid_argument("app id 0 is reserved");
  loadAppImpl(id, std::move(app), granted);
}

of::AppId ShieldRuntime::loadAppImpl(std::optional<of::AppId> requestedId,
                                     std::shared_ptr<ctrl::App> app,
                                     const perm::PermissionSet& granted) {
  of::AppId id;
  std::shared_ptr<ThreadContainer> container;
  std::shared_ptr<ShieldedContext> context;
  {
    std::lock_guard lock(mutex_);
    if (requestedId) {
      if (apps_.count(*requestedId)) {
        throw std::invalid_argument("app id already loaded: " +
                                    std::to_string(*requestedId));
      }
      id = *requestedId;
      // Keep fresh assignments past any replayed id (journal recovery loads
      // apps under their pre-crash ids).
      nextAppId_ = std::max(nextAppId_, id + 1);
    } else {
      id = nextAppId_++;
    }
    engine_.install(id, granted);
    container = std::make_shared<ThreadContainer>(id, app->name(),
                                                  options_.appQueueCapacity);
    // Contained faults are audited and feed the supervisor's health state.
    container->setFaultHandler(
        [this, id](std::exception_ptr, const std::string& what) {
          controller_.audit().recordFault(id, what);
          supervisor_.recordFault(id, what);
        });
    container->start();
    context = std::make_shared<ShieldedContext>(*this, id, container);
    apps_[id] = LoadedApp{app, container, context};
  }
  supervisor_.watch(id, container);
  // App initiation code runs inside the sandbox (paper §VIII-B). A
  // throwing init is contained: the app stays loaded but flagged faulty.
  try {
    container->postAndWait([app, context] { app->init(*context); });
  } catch (...) {
    std::string what = describeException(std::current_exception());
    controller_.audit().recordFault(id, "init threw: " + what);
    supervisor_.recordFault(id, "init threw: " + what);
  }
  return id;
}

std::string ShieldRuntime::LoadReport::toString() const {
  std::ostringstream out;
  out << "app " << appId << ": ";
  if (fullyGranted()) {
    out << "all requested permissions granted";
    return out.str();
  }
  if (!deniedTokens.empty()) {
    out << "statically denied:";
    for (perm::Token token : deniedTokens) out << " " << perm::toString(token);
    out << "; ";
  }
  if (!narrowedTokens.empty()) {
    out << "narrowed (runtime filters):";
    for (perm::Token token : narrowedTokens) {
      out << " " << perm::toString(token);
    }
  }
  return out.str();
}

ShieldRuntime::LoadReport ShieldRuntime::loadAppChecked(
    std::shared_ptr<ctrl::App> app, const perm::PermissionSet& granted) {
  LoadReport report;
  // The loading-time pass mirrors OSGi's link-time security: requested API
  // families with no grant at all need no runtime mediation hooks; granted-
  // but-narrowed ones are flagged for the administrator.
  perm::PermissionSet requested =
      lang::parseManifest(app->requestedManifest()).permissions;
  for (const perm::Permission& want : requested.permissions()) {
    auto grant = granted.filterFor(want.token);
    if (!grant) {
      report.deniedTokens.push_back(want.token);
    } else if (!perm::filterIncludes(*grant, want.filter)) {
      report.narrowedTokens.push_back(want.token);
    }
  }
  report.appId = loadApp(std::move(app), granted);
  return report;
}

void ShieldRuntime::unloadApp(of::AppId app) {
  LoadedApp loaded;
  {
    std::lock_guard lock(mutex_);
    auto it = apps_.find(app);
    if (it == apps_.end()) return;
    loaded = std::move(it->second);
    apps_.erase(it);
    // Drop the async-window registry entry: in-flight futures keep the
    // window itself alive through their RAII slot guards, so only the map
    // slot (the would-be leak across install/uninstall cycles) goes away.
    windows_.erase(app);
  }
  supervisor_.forget(app);
  controller_.removeSubscribers(app);
  loaded.container->stop();
  engine_.uninstall(app);
  std::lock_guard lock(mutex_);
  retired_.push_back(std::move(loaded));
}

void ShieldRuntime::swapApp(of::AppId id, std::shared_ptr<ctrl::App> next,
                            const perm::PermissionSet& granted) {
  LoadedApp old;
  std::shared_ptr<ThreadContainer> container;
  std::shared_ptr<ShieldedContext> context;
  {
    std::lock_guard lock(mutex_);
    auto it = apps_.find(id);
    if (it == apps_.end()) {
      throw std::invalid_argument("swapApp: unknown app id " +
                                  std::to_string(id));
    }
    old = std::move(it->second);
    apps_.erase(it);
  }
  // Retire the old instance first (host-level call: stop() joins the
  // container thread, so swapApp must never run on a deputy). Its grant
  // stays installed while it drains — in-flight calls check against the old
  // permissions until the single install below replaces them.
  supervisor_.forget(id);
  controller_.removeSubscribers(id);
  old.container->stop();
  {
    std::lock_guard lock(mutex_);
    // ONE engine install atomically replaces the old compiled set with the
    // new one: a concurrent check() sees either v(old) or v(next), never a
    // permission gap.
    engine_.install(id, granted);
    container = std::make_shared<ThreadContainer>(id, next->name(),
                                                  options_.appQueueCapacity);
    container->setFaultHandler(
        [this, id](std::exception_ptr, const std::string& what) {
          controller_.audit().recordFault(id, what);
          supervisor_.recordFault(id, what);
        });
    container->start();
    context = std::make_shared<ShieldedContext>(*this, id, container);
    apps_[id] = LoadedApp{next, container, context};
    retired_.push_back(std::move(old));
  }
  supervisor_.watch(id, container);
  try {
    container->postAndWait([next, context] { next->init(*context); });
  } catch (...) {
    std::string what = describeException(std::current_exception());
    controller_.audit().recordFault(id, "init threw: " + what);
    supervisor_.recordFault(id, "init threw: " + what);
  }
}

void ShieldRuntime::reclaimRetired() {
  std::vector<LoadedApp> drop;
  {
    std::lock_guard lock(mutex_);
    drop.swap(retired_);
  }
  // Destroyed outside the lock: shells own containers whose destructors may
  // join exited threads.
}

std::size_t ShieldRuntime::loadedAppCount() const {
  std::lock_guard lock(mutex_);
  return apps_.size();
}

std::size_t ShieldRuntime::windowCount() const {
  std::lock_guard lock(mutex_);
  return windows_.size();
}

std::size_t ShieldRuntime::retiredCount() const {
  std::lock_guard lock(mutex_);
  return retired_.size();
}

void ShieldRuntime::quarantineApp(of::AppId app, const std::string& reason) {
  std::shared_ptr<ThreadContainer> container;
  {
    std::lock_guard lock(mutex_);
    auto it = apps_.find(app);
    if (it == apps_.end()) return;
    container = it->second.container;
    // Release the async-window registry slot; futures already in flight
    // hold the window via their RAII slot guards and still resolve.
    windows_.erase(app);
  }
  // Order matters: cut event delivery first, then revoke privileges, then
  // seal the container (pending tasks are discarded — their waiters see
  // broken promises rather than hanging). The container thread itself is
  // left to exit on its own; if it is truly hung, a later stop() abandons
  // it without blocking shutdown.
  controller_.removeSubscribers(app);
  engine_.uninstall(app);
  container->quarantine();
  // The supervision record carries the recent span trail: what the
  // controller (deputies, containers, dispatch) was doing right before the
  // quarantine, for post-mortem reconstruction.
  controller_.audit().recordSupervision(
      app, "quarantined: " + reason,
      obs::Tracer::formatTrail(obs::Tracer::global().recentSpans()));
}

void ShieldRuntime::shutdown() {
  // Stop the watchdog first so no quarantine races the teardown.
  supervisor_.stop();
  std::map<of::AppId, LoadedApp> apps;
  {
    std::lock_guard lock(mutex_);
    apps.swap(apps_);
  }
  for (auto& [id, loaded] : apps) {
    supervisor_.forget(id);
    controller_.removeSubscribers(id);
    loaded.container->stop();
    engine_.uninstall(id);
  }
  ksd_.stop();
  std::lock_guard lock(mutex_);
  for (auto& [id, loaded] : apps) {
    windows_.erase(id);
    retired_.push_back(std::move(loaded));
  }
}

std::shared_ptr<ThreadContainer> ShieldRuntime::container(
    of::AppId app) const {
  std::lock_guard lock(mutex_);
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : it->second.container;
}

std::shared_ptr<InFlightWindow> ShieldRuntime::inFlightWindow(of::AppId app) {
  std::lock_guard lock(mutex_);
  std::shared_ptr<InFlightWindow>& window = windows_[app];
  if (!window) {
    window = std::make_shared<InFlightWindow>(
        options_.asyncWindow == 0 ? 1 : options_.asyncWindow);
  }
  return window;
}

bool ShieldRuntime::isQuarantined(of::AppId app) const {
  std::shared_ptr<ThreadContainer> appContainer = container(app);
  return appContainer != nullptr && appContainer->quarantined();
}

std::optional<net::VirtualTopology> ShieldRuntime::virtualTopologyFor(
    of::AppId app) const {
  auto compiled = engine_.compiled(app);
  if (!compiled || !compiled->virtualTopology()) return std::nullopt;
  net::Topology physical = controller_.kernelReadTopology();
  const std::set<of::DatapathId>& members = *compiled->virtualTopology();
  if (members.empty()) {
    return net::VirtualTopology::singleBigSwitch(physical, kVirtualDpid);
  }
  return net::VirtualTopology::bigSwitch(physical, members, kVirtualDpid);
}

// --- BaselineRuntime -------------------------------------------------------------

of::AppId BaselineRuntime::loadApp(std::shared_ptr<ctrl::App> app) {
  of::AppId id = nextAppId_++;
  auto context =
      std::make_unique<ctrl::DirectContext>(controller_, id, monitor_);
  // Monolithic architecture: init runs inline, handlers run on the
  // controller's dispatch thread — no privilege boundary at all. The scoped
  // identity only attributes host records for observation.
  {
    ScopedIdentity identity(id);
    app->init(*context);
  }
  apps_.push_back(LoadedApp{std::move(app), std::move(context)});
  return id;
}

}  // namespace sdnshield::iso
