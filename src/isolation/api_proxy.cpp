#include "isolation/api_proxy.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/engine/transaction.h"
#include "core/lang/perm_parser.h"
#include "core/perm/normal_form.h"
#include "isolation/executor.h"
#include "obs/metrics.h"

namespace sdnshield::iso {

// --- RecentPacketIns ----------------------------------------------------------

std::string RecentPacketIns::bytesOf(const of::Packet& packet) {
  of::Bytes wire = packet.serialize();
  return std::string(wire.begin(), wire.end());
}

void RecentPacketIns::remember(const of::Packet& packet) {
  // An evicted packet can no longer be echoed as a FROM_PKT_IN packet-out,
  // so overflow is counted where operators can see it.
  static const obs::Counter evicted =
      obs::Registry::global().counter("isolation.pktin_window.evicted");
  std::string bytes = bytesOf(packet);
  std::lock_guard lock(mutex_);
  packets_.insert(bytes);
  order_.push_back(std::move(bytes));
  if (order_.size() > capacity_) {
    packets_.erase(packets_.find(order_.front()));
    order_.pop_front();
    evicted.increment();
  }
}

bool RecentPacketIns::seen(const of::Packet& packet) const {
  std::string bytes = bytesOf(packet);
  std::lock_guard lock(mutex_);
  return packets_.contains(bytes);
}

// --- ShieldedApi ----------------------------------------------------------------

namespace {

/// Maps a deputy-channel failure (thrown by a submission or a wait) to a
/// typed failed response instead of letting it escape into app code: a
/// transport fault (kDeadlineExceeded / kQueueFull, audited here) stays
/// distinguishable from a permission denial (audited by the mediation).
/// PoolStopped is rethrown: calls after shutdown() keep throwing.
template <typename R>
R channelFailure(ShieldRuntime& runtime, of::AppId app,
                 std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const PoolStopped&) {
    throw;
  } catch (const DeadlineExceeded& failure) {
    runtime.controller().audit().recordFault(
        app, std::string("api call: ") + failure.what());
    return R::failure(ctrl::ApiErrc::kDeadlineExceeded, failure.what());
  } catch (const QueueSaturated& failure) {
    runtime.controller().audit().recordFault(
        app, std::string("api call: ") + failure.what());
    return R::failure(ctrl::ApiErrc::kQueueFull, failure.what());
  } catch (const CallDropped& failure) {
    return R::failure(ctrl::ApiErrc::kPoolStopped, failure.what());
  } catch (const std::exception& failure) {
    // Anything else (e.g. an injected fault at the ksd.call site) means the
    // deputy path is unavailable for this call.
    return R::failure(ctrl::ApiErrc::kPoolStopped,
                      std::string("deputy unavailable: ") + failure.what());
  }
}

/// Runs @p work on a deputy under the runtime's call deadline: on the
/// (app, @p dpid) lane for a call that names a switch, so it runs after the
/// app's calls already queued to that switch. Calls from a quarantined app
/// fail fast with kAppQuarantined without touching the channel.
template <typename R>
R viaDeputy(ShieldRuntime& runtime, of::AppId app, std::function<R()> work,
            std::optional<of::DatapathId> dpid = std::nullopt) {
  if (runtime.isQuarantined(app)) {
    return R::failure(ctrl::ApiErrc::kAppQuarantined, "app is quarantined");
  }
  std::optional<LaneKey> lane;
  if (dpid) lane = LaneKey{app, *dpid};
  try {
    return runtime.ksd().call<R>(std::move(work),
                                 runtime.options().ksdCallTimeout, lane);
  } catch (...) {
    return channelFailure<R>(runtime, app, std::current_exception());
  }
}

/// Asynchronous counterpart of viaDeputy: acquires a slot in the app's
/// bounded in-flight window, queues @p work on the (app, @p dpid) lane and
/// returns an ApiFuture that resolves with the deputy's result — or a typed
/// failure at the call's absolute deadline (captured at submission, so
/// pipelined calls don't each restart the clock at get() time). The slot is
/// released by an RAII guard owned by the queued task: completion, fault and
/// discard paths all free it, including when the app abandons the future.
template <typename R>
ctrl::ApiFuture<R> submitViaDeputy(ShieldRuntime& runtime, of::AppId app,
                                   of::DatapathId dpid,
                                   std::function<R()> work) {
  if (runtime.isQuarantined(app)) {
    return ctrl::ApiFuture<R>::ready(
        R::failure(ctrl::ApiErrc::kAppQuarantined, "app is quarantined"));
  }
  std::shared_ptr<InFlightWindow> window = runtime.inFlightWindow(app);
  bool acquired = false;
  if (VirtualExecutor* executor = virtualExecutor()) {
    // Model-checking mode: a full window parks the submitter as a
    // scheduler step instead of a timed condvar wait.
    executor->await(
        [&] { return acquired || (acquired = window->tryAcquire()); },
        "ksd.window");
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
        runtime.ksd().template submitFuture<R>(std::move(work), slot,
                                               LaneKey{app, dpid}));
  } catch (...) {
    return ctrl::ApiFuture<R>::ready(
        channelFailure<R>(runtime, app, std::current_exception()));
  }
  auto wait = [&runtime, app, future, deadline, startNs]() -> R {
    try {
      return runtime.ksd().await(*future, deadline, startNs, "ksd.async");
    } catch (...) {
      return channelFailure<R>(runtime, app, std::current_exception());
    }
  };
  auto poll = [future] {
    return future->wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };
  return ctrl::ApiFuture<R>(std::move(wait), std::move(poll));
}

/// The deputy's one mediation point: the app's compiled permissions,
/// resolved once per deputy call, check and audit each ApiCall the call
/// makes. An app that is not installed is denied like any other call, so
/// every deputy denial is decided and recorded here.
class Mediation {
 public:
  Mediation(ShieldRuntime& runtime, of::AppId app)
      : runtime_(runtime), compiled_(runtime.engine().compiled(app)) {}

  /// Checks and audits @p call: nullopt when allowed, else the
  /// kPermissionDenied response R the deputy body returns.
  template <typename R = ctrl::ApiResult>
  std::optional<R> check(const perm::ApiCall& call) const {
    engine::Decision decision =
        compiled_ ? compiled_->check(call)
                  : engine::Decision::deny("app not installed");
    runtime_.controller().audit().record(call, decision.allowed,
                                         decision.reason);
    if (decision.allowed) return std::nullopt;
    return R::failure(ctrl::ApiErrc::kPermissionDenied,
                      std::move(decision.reason));
  }

  /// Valid once check() has allowed a call.
  const engine::CompiledPermissions& compiled() const { return *compiled_; }

 private:
  ShieldRuntime& runtime_;
  std::shared_ptr<const engine::CompiledPermissions> compiled_;
};

/// Entry-level visibility of a flow read: each returned entry is labelled by
/// the call's compiled filter program, with its own match and ownership.
bool entryVisible(const engine::CompiledPermissions& compiled,
                  const engine::OwnershipTracker& ownership,
                  perm::ApiCall entryCall, const of::FlowMatch& match,
                  std::uint16_t priority) {
  auto owner = ownership.ownerOf(*entryCall.dpid, match, priority);
  entryCall.ownFlow = owner && *owner == entryCall.app;
  entryCall.match = match;
  entryCall.priority = priority;
  return compiled.check(entryCall).allowed;
}

/// Runs a market_admin-gated lifecycle operation (@p op on the attached
/// market) on a deputy; @p operation names it for the audit log.
template <typename R, typename Op>
R viaMarket(ShieldRuntime& runtime, of::AppId app, std::string operation,
            Op op) {
  return viaDeputy<R>(runtime, app, [&runtime, app, operation, op]() -> R {
    auto call = perm::ApiCall::marketAdmin(app, operation);
    if (auto denied = Mediation(runtime, app).check<R>(call)) return *denied;
    ctrl::MarketControl* market = runtime.controller().marketControl();
    if (!market) {
      return R::failure(ctrl::ApiErrc::kInvalidArgument,
                        "no app market attached");
    }
    return op(*market);
  });
}

}  // namespace

ctrl::ApiResponse<std::vector<std::pair<of::DatapathId, of::FlowMod>>>
ShieldedApi::translateVirtual(const of::FlowMod& mod) const {
  using Response =
      ctrl::ApiResponse<std::vector<std::pair<of::DatapathId, of::FlowMod>>>;
  auto vtopo = runtime_.virtualTopologyFor(app_);
  if (!vtopo.ok()) return Response::failure(vtopo.error());
  try {
    return Response::success(vtopo.value().translateFlowMod(mod));
  } catch (const std::invalid_argument& error) {
    return Response::failure(ctrl::ApiErrc::kInvalidArgument, error.what());
  }
}

ctrl::ApiResult ShieldedApi::insertVirtual(const of::FlowMod& mod) {
  auto physical = translateVirtual(mod);
  if (!physical.ok()) return ctrl::ApiResult::failure(physical.error());
  for (const auto& [physDpid, physMod] : physical.value()) {
    ctrl::ApiResult result =
        runtime_.controller().kernelInsertFlow(app_, physDpid, physMod);
    if (!result.ok()) return result;
  }
  return ctrl::ApiResult::success();
}

ctrl::ApiResult ShieldedApi::doInsertFlows(of::DatapathId dpid,
                                           std::span<const of::FlowMod> mods) {
  // The compiled program is resolved once for the whole call; each mod's
  // rule count adds the adds admitted before it (what the count would be
  // had the mods been applied sequentially). Own-flow attributes read the
  // pre-call state: earlier mods only add the caller's own rules, which
  // cannot make a later add override a *foreign* flow.
  Mediation mediation(runtime_, app_);
  ctrl::Controller& controller = runtime_.controller();
  ctrl::ApiResult result = ctrl::ApiResult::success();
  auto keepFirstFailure = [&result](ctrl::ApiResult one) {
    if (!one.ok() && result.ok()) result = std::move(one);
  };
  std::size_t pendingAdds = 0;
  std::vector<of::FlowMod> admitted;
  for (const of::FlowMod& mod : mods) {
    if (auto denied = mediation.check(engine::flowModCall(
            controller.ownership(), app_, dpid, mod, pendingAdds))) {
      keepFirstFailure(std::move(*denied));
    } else if (dpid == kVirtualDpid) {
      // Abstract-topology translation (§VI-B.1): a virtual-big-switch rule
      // expands into physical rules along shortest paths, so batching
      // stops at the translation boundary.
      keepFirstFailure(insertVirtual(mod));
    } else {
      if (mod.addsRule()) ++pendingAdds;
      if (mods.size() > 1) admitted.push_back(mod);
    }
  }
  if (dpid == kVirtualDpid) return result;
  // A lone mod keeps the single-insert kernel call (no batch copy); a batch
  // sends its admitted mods to the kernel as one vectorized insert.
  if (mods.size() == 1) {
    return result.ok() ? controller.kernelInsertFlow(app_, dpid, mods[0])
                       : result;
  }
  if (!admitted.empty()) {
    keepFirstFailure(controller.kernelInsertFlows(app_, dpid, admitted));
  }
  return result;
}

ctrl::ApiResult ShieldedApi::insertFlow(of::DatapathId dpid,
                                        const of::FlowMod& mod) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_,
      [this, dpid, mod] { return doInsertFlows(dpid, {&mod, 1}); }, dpid);
}

ctrl::ApiResult ShieldedApi::insertFlows(of::DatapathId dpid,
                                         const std::vector<of::FlowMod>& mods) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_, [this, dpid, mods] { return doInsertFlows(dpid, mods); },
      dpid);
}

ctrl::ApiFuture<ctrl::ApiResult> ShieldedApi::insertFlowAsync(
    of::DatapathId dpid, const of::FlowMod& mod) {
  return submitViaDeputy<ctrl::ApiResult>(
      runtime_, app_, dpid,
      [this, dpid, mod] { return doInsertFlows(dpid, {&mod, 1}); });
}

ctrl::ApiFuture<ctrl::ApiResult> ShieldedApi::sendPacketOutAsync(
    const of::PacketOut& packetOut) {
  return submitViaDeputy<ctrl::ApiResult>(
      runtime_, app_, packetOut.dpid,
      [this, packetOut] { return doSendPacketOut(packetOut); });
}

ctrl::ApiResult ShieldedApi::deleteFlow(of::DatapathId dpid,
                                        const of::FlowMatch& match,
                                        bool strict, std::uint16_t priority) {
  of::FlowMod remove;
  remove.command =
      strict ? of::FlowModCommand::kDeleteStrict : of::FlowModCommand::kDelete;
  remove.match = match;
  remove.priority = priority;
  return viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, dpid, remove,
                                                     strict] {
    ctrl::Controller& controller = runtime_.controller();
    auto call = engine::flowModCall(controller.ownership(), app_, dpid, remove);
    if (auto denied = Mediation(runtime_, app_).check(call)) return *denied;
    if (dpid != kVirtualDpid) {
      return controller.kernelDeleteFlow(app_, dpid, remove.match, strict,
                                         remove.priority);
    }
    // Virtual big switch: the delete addresses every member shard the
    // corresponding insert was realised on (§VI-B.1).
    auto shards = translateVirtual(remove);
    if (!shards.ok()) return ctrl::ApiResult::failure(shards.error());
    for (const auto& [shardDpid, shardMod] : shards.value()) {
      controller.kernelDeleteFlow(app_, shardDpid, shardMod.match, strict,
                                  remove.priority);
    }
    return ctrl::ApiResult::success();
  }, dpid);
}

ctrl::ApiResult ShieldedApi::commitFlowTransaction(
    const std::vector<std::pair<of::DatapathId, of::FlowMod>>& mods) {
  return viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, mods] {
    engine::OwnershipTracker& ownership = runtime_.controller().ownership();
    engine::Transaction transaction;
    std::map<of::DatapathId, std::size_t> pendingAdds;
    for (const auto& [dpid, mod] : mods) {
      std::size_t& pending = pendingAdds[dpid];
      perm::ApiCall call =
          engine::flowModCall(ownership, app_, dpid, mod, pending);
      if (mod.addsRule()) ++pending;
      transaction.add(engine::TxOperation{
          std::move(call),
          [this, dpid, mod] {
            return runtime_.controller().kernelInsertFlow(app_, dpid, mod).ok();
          },
          [this, dpid, mod] {
            runtime_.controller().kernelDeleteFlow(
                app_, dpid, mod.match, /*strict=*/true, mod.priority);
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
    std::erase_if(response.value(), [&](const of::FlowEntry& entry) {
      return !entryVisible(*compiled, runtime_.controller().ownership(), call,
                           entry.match, entry.priority);
    });
    return response;
  }, dpid);
}

ctrl::ApiResponse<net::Topology> ShieldedApi::readTopology() {
  using Response = ctrl::ApiResponse<net::Topology>;
  return viaDeputy<Response>(runtime_, app_, [this]() -> Response {
    Mediation mediation(runtime_, app_);
    auto call = perm::ApiCall::readTopology(app_);
    if (auto denied = mediation.check<Response>(call)) return *denied;
    const engine::CompiledPermissions& compiled = mediation.compiled();
    // Virtual abstraction wins over plain projection when both are present.
    if (compiled.virtualTopology()) {
      if (auto vtopo = runtime_.virtualTopologyFor(app_); vtopo.ok()) {
        return Response::success(vtopo.value().abstractView());
      }
    }
    net::Topology topology = runtime_.controller().kernelReadTopology();
    if (const auto* projection = compiled.topologyProjection()) {
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
    perm::ApiCall call = perm::ApiCall::readStatistics(app_, request);
    // Flow-level requests are checked per returned entry (projection), so
    // the call-level check omits the match attribute.
    call.match.reset();
    Mediation mediation(runtime_, app_);
    if (auto denied = mediation.check<Response>(call)) return *denied;

    // Virtual big switch: query members and aggregate (§VI-B.1).
    if (request.dpid == kVirtualDpid) {
      auto vtopo = runtime_.virtualTopologyFor(app_);
      if (!vtopo.ok()) return Response::failure(vtopo.error());
      of::StatsReply aggregate;
      aggregate.level = request.level;
      aggregate.dpid = kVirtualDpid;
      std::vector<of::SwitchStats> memberStats;
      std::vector<of::FlowStatsEntry> memberFlows;
      for (of::DatapathId member : vtopo.value().virtualSwitch().members) {
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
      aggregate.switchStats = vtopo.value().aggregateSwitchStats(memberStats);
      aggregate.flows = vtopo.value().aggregateFlowStats(memberFlows);
      return Response::success(std::move(aggregate));
    }

    auto response = runtime_.controller().kernelReadStatistics(request);
    if (!response.ok() || request.level != of::StatsLevel::kFlow) {
      return response;
    }
    // Flow-level: project the reply through the per-entry filter.
    std::erase_if(response.value().flows, [&](const of::FlowStatsEntry& e) {
      return !entryVisible(mediation.compiled(),
                           runtime_.controller().ownership(), call, e.match,
                           e.priority);
    });
    return response;
  }, request.dpid);
}

ctrl::ApiResult ShieldedApi::doSendPacketOut(const of::PacketOut& packetOut) {
  of::PacketOut verified = packetOut;
  // Provenance is established by the deputy, not trusted from the app: the
  // packet must byte-match one recently delivered to this app as a
  // packet-in (FROM_PKT_IN filter input).
  verified.fromPacketIn = recent_ && recent_->seen(packetOut.packet);
  auto call = perm::ApiCall::sendPacketOut(app_, verified);
  if (auto denied = Mediation(runtime_, app_).check(call)) return *denied;
  if (verified.dpid != kVirtualDpid) {
    return runtime_.controller().kernelSendPacketOut(verified);
  }
  auto vtopo = runtime_.virtualTopologyFor(app_);
  if (!vtopo.ok()) return ctrl::ApiResult::failure(vtopo.error());
  try {
    auto [physDpid, physOut] = vtopo.value().translatePacketOut(verified);
    return runtime_.controller().kernelSendPacketOut(physOut);
  } catch (const std::invalid_argument& error) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kInvalidArgument,
                                    error.what());
  }
}

ctrl::ApiResult ShieldedApi::sendPacketOut(const of::PacketOut& packetOut) {
  return viaDeputy<ctrl::ApiResult>(
      runtime_, app_,
      [this, packetOut] { return doSendPacketOut(packetOut); },
      packetOut.dpid);
}

ctrl::ApiResult ShieldedApi::publishData(const std::string& topic,
                                         const std::string& payload) {
  return viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, topic, payload] {
    // Data-model publication writes the controller's network view: mediated
    // under modify_topology (cf. the YANG data-broker mediation, §VIII-B).
    perm::ApiCall call;
    call.type = perm::ApiCallType::kModifyTopology;
    call.app = app_;
    if (auto denied = Mediation(runtime_, app_).check(call)) return *denied;
    runtime_.controller().kernelPublishData(app_, topic, payload);
    return ctrl::ApiResult::success();
  });
}

ctrl::ApiResponse<ctrl::StatsReport> ShieldedApi::statsReport() {
  using Response = ctrl::ApiResponse<ctrl::StatsReport>;
  return viaDeputy<Response>(runtime_, app_, [this]() -> Response {
    // Controller-wide counters are switch-granularity data: the report is
    // gated behind read_statistics at SWITCH level, so a flow- or
    // port-scoped statistics grant does not expose the fleet view.
    perm::ApiCall call;
    call.type = perm::ApiCallType::kReadStatistics;
    call.app = app_;
    call.statsLevel = of::StatsLevel::kSwitch;
    Mediation mediation(runtime_, app_);
    if (auto denied = mediation.check<Response>(call)) return *denied;
    return Response::success(runtime_.controller().statsReport());
  });
}

ctrl::ApiResult ShieldedApi::updatePolicy(const std::string& policyText) {
  // Deputy-thread safe: the market's policy swap never joins app containers
  // (it only touches the permission engine + journal).
  return viaMarket<ctrl::ApiResult>(
      runtime_, app_, "update_policy",
      [policyText](ctrl::MarketControl& market) {
        return market.updatePolicy(policyText);
      });
}

ctrl::ApiResult ShieldedApi::revokeApp(of::AppId app,
                                       const std::string& reason) {
  // Deputy-thread safe: revocation quarantines (seals, never joins) the
  // target container.
  return viaMarket<ctrl::ApiResult>(
      runtime_, app_, "revoke " + std::to_string(app),
      [app, reason](ctrl::MarketControl& market) {
        return market.revokeApp(app, reason);
      });
}

ctrl::ApiResponse<std::string> ShieldedApi::marketReport() {
  using Response = ctrl::ApiResponse<std::string>;
  return viaMarket<Response>(runtime_, app_, "report",
                             [](ctrl::MarketControl& market) {
                               return Response::success(market.report());
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

constexpr auto kAdmitAll = [](const auto&) { return true; };

/// Per-event filtering: a grant with e.g. OWN_FLOWS or a topology filter
/// only sees the events its filter admits (every event while the app has
/// no compiled set).
bool eventAdmitted(ShieldRuntime& runtime, const perm::ApiCall& eventCall) {
  auto compiled = runtime.engine().compiled(eventCall.app);
  return !compiled || compiled->check(eventCall).allowed;
}

/// Packet-in admission: payload in pkt-in messages is a separate privilege
/// (read_payload, Table II), stripped for apps that only hold pkt_in_event;
/// the delivered packet is remembered for FROM_PKT_IN provenance.
auto stripPayload(ShieldRuntime& runtime, of::AppId app,
                  std::shared_ptr<RecentPacketIns> recent) {
  return [&runtime, app, recent](ctrl::PacketInEvent& event) {
    auto compiled = runtime.engine().compiled(app);
    if (!compiled || !compiled->hasToken(perm::Token::kReadPayload)) {
      event.packetIn.packet.payload.clear();
    }
    recent->remember(event.packetIn.packet);
    return true;
  };
}

}  // namespace

template <typename E, typename Handler, typename Admit, typename Register>
ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribe(
    perm::ApiCall gate, Handler handler, Admit admit, Register add) {
  using Response = ctrl::ApiResponse<ctrl::SubscriptionId>;
  ctrl::ApiResult checked =
      viaDeputy<ctrl::ApiResult>(runtime_, app_, [this, gate] {
        auto denied = Mediation(runtime_, app_).check(gate);
        return denied ? *denied : ctrl::ApiResult::success();
      });
  if (!checked.ok()) return Response::failure(checked.error());
  using Result = std::invoke_result_t<Handler&, const E&>;
  return Response::success(std::invoke(
      add, runtime_.controller(), app_,
      [&runtime = runtime_, app = app_, container = container_,
       handler = std::move(handler),
       admit = std::move(admit)](const ctrl::Event& event) -> Result {
        const auto* typed = std::get_if<E>(&event);
        if (typed == nullptr) return Result();
        E delivered = *typed;
        if (!admit(delivered)) return Result();
        if constexpr (std::is_same_v<Result, bool>) {
          // Interception is inherently synchronous (the consume/forward
          // decision gates delivery to other apps), so the handler runs on
          // the dispatch thread — under the app's ambient identity, so host
          // calls made from it are still attributed and mediated correctly.
          ScopedIdentity identity(app);
          return handler(delivered);
        } else if (!container->tryPost(
                       [handler, delivered = std::move(delivered)] {
                         handler(delivered);
                       })) {
          runtime.supervisor().recordEventDrop(app);
        }
      }));
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribePacketIn(
    std::function<void(const ctrl::PacketInEvent&)> handler) {
  return subscribe<ctrl::PacketInEvent>(
      perm::ApiCall::subscribe(app_, perm::ApiCallType::kSubscribePacketIn),
      std::move(handler), stripPayload(runtime_, app_, recent_),
      &ctrl::Controller::addPacketInSubscriber);
}

ctrl::ApiResponse<ctrl::SubscriptionId>
ShieldedContext::subscribePacketInInterceptor(
    std::function<bool(const ctrl::PacketInEvent&)> handler) {
  // Interception is a stronger privilege than observation: the subscribe
  // call carries CallbackOp::kIntercept, which the EVENT_INTERCEPTION
  // callback filter must admit.
  return subscribe<ctrl::PacketInEvent>(
      perm::ApiCall::subscribe(app_, perm::ApiCallType::kSubscribePacketIn,
                               perm::CallbackOp::kIntercept),
      std::move(handler), stripPayload(runtime_, app_, recent_),
      &ctrl::Controller::addPacketInInterceptor);
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribeFlowEvents(
    std::function<void(const ctrl::FlowEvent&)> handler) {
  return subscribe<ctrl::FlowEvent>(
      perm::ApiCall::subscribe(app_, perm::ApiCallType::kSubscribeFlowEvent),
      std::move(handler),
      [&runtime = runtime_, app = app_](const ctrl::FlowEvent& event) {
        perm::ApiCall eventCall = perm::ApiCall::subscribe(
            app, perm::ApiCallType::kSubscribeFlowEvent);
        eventCall.dpid = event.dpid;
        eventCall.match = event.match;
        eventCall.priority = event.priority;
        eventCall.ownFlow = event.issuer == app;
        return eventAdmitted(runtime, eventCall);
      },
      &ctrl::Controller::addFlowSubscriber);
}

ctrl::ApiResponse<ctrl::SubscriptionId>
ShieldedContext::subscribeTopologyEvents(
    std::function<void(const ctrl::TopologyEvent&)> handler) {
  return subscribe<ctrl::TopologyEvent>(
      perm::ApiCall::subscribe(app_,
                               perm::ApiCallType::kSubscribeTopologyEvent),
      std::move(handler),
      [&runtime = runtime_, app = app_](const ctrl::TopologyEvent& event) {
        perm::ApiCall eventCall = perm::ApiCall::subscribe(
            app, perm::ApiCallType::kSubscribeTopologyEvent);
        eventCall.topoSwitches.push_back(event.dpidA);
        if (event.change == ctrl::TopologyChange::kLinkUp ||
            event.change == ctrl::TopologyChange::kLinkDown) {
          eventCall.topoSwitches.push_back(event.dpidB);
          eventCall.topoLinks.emplace_back(event.dpidA, event.dpidB);
        }
        return eventAdmitted(runtime, eventCall);
      },
      &ctrl::Controller::addTopologySubscriber);
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribeErrorEvents(
    std::function<void(const ctrl::ErrorEvent&)> handler) {
  return subscribe<ctrl::ErrorEvent>(
      perm::ApiCall::subscribe(app_, perm::ApiCallType::kSubscribeErrorEvent),
      std::move(handler), kAdmitAll, &ctrl::Controller::addErrorSubscriber);
}

ctrl::ApiResponse<ctrl::SubscriptionId> ShieldedContext::subscribeData(
    const std::string& topic,
    std::function<void(const ctrl::DataUpdateEvent&)> handler) {
  // Data-model event notification is mediated under topology_event (the
  // published data is network-view data; see publishData).
  return subscribe<ctrl::DataUpdateEvent>(
      perm::ApiCall::subscribe(app_,
                               perm::ApiCallType::kSubscribeTopologyEvent),
      std::move(handler), kAdmitAll,
      [&topic](ctrl::Controller& controller, of::AppId app,
               ctrl::Controller::EventSink sink) {
        return controller.addDataSubscriber(app, topic, std::move(sink));
      });
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
      ksd_(options.ksdThreads, options.ksdCallTimeout),
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
  LoadedApp loaded;
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
    loaded = startContainer(id, std::move(app));
    apps_[id] = loaded;
  }
  initSandboxed(id, loaded);
  return id;
}

ShieldRuntime::LoadedApp ShieldRuntime::startContainer(
    of::AppId id, std::shared_ptr<ctrl::App> app) {
  auto container = std::make_shared<ThreadContainer>(
      id, app->name(), options_.appQueueCapacity);
  // Contained faults are audited and feed the supervisor's health state.
  container->setFaultHandler(
      [this, id](std::exception_ptr, const std::string& what) {
        controller_.audit().recordFault(id, what);
        supervisor_.recordFault(id, what);
      });
  container->start();
  auto context = std::make_shared<ShieldedContext>(*this, id, container);
  return LoadedApp{std::move(app), std::move(container), std::move(context)};
}

void ShieldRuntime::initSandboxed(of::AppId id, const LoadedApp& loaded) {
  supervisor_.watch(id, loaded.container);
  // App initiation code runs inside the sandbox (paper §VIII-B). A
  // throwing init is contained: the app stays loaded but flagged faulty.
  try {
    loaded.container->postAndWait(
        [app = loaded.app, context = loaded.context] { app->init(*context); });
  } catch (...) {
    std::string what = describeException(std::current_exception());
    controller_.audit().recordFault(id, "init threw: " + what);
    supervisor_.recordFault(id, "init threw: " + what);
  }
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
    auto node = apps_.extract(app);
    if (node.empty()) return;
    loaded = std::move(node.mapped());
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
  LoadedApp loaded;
  {
    std::lock_guard lock(mutex_);
    auto node = apps_.extract(id);
    if (node.empty()) {
      throw std::invalid_argument("swapApp: unknown app id " +
                                  std::to_string(id));
    }
    old = std::move(node.mapped());
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
    loaded = startContainer(id, std::move(next));
    apps_[id] = loaded;
    retired_.push_back(std::move(old));
  }
  initSandboxed(id, loaded);
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
  std::vector<of::AppId> loaded;
  {
    std::lock_guard lock(mutex_);
    for (const auto& entry : apps_) loaded.push_back(entry.first);
  }
  for (of::AppId id : loaded) unloadApp(id);
  ksd_.stop();
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

ctrl::ApiResponse<net::VirtualTopology> ShieldRuntime::virtualTopologyFor(
    of::AppId app) const {
  using Response = ctrl::ApiResponse<net::VirtualTopology>;
  auto compiled = engine_.compiled(app);
  if (!compiled || !compiled->virtualTopology()) {
    return Response::failure(ctrl::ApiErrc::kPermissionDenied,
                             "no virtual topology granted");
  }
  net::Topology physical = controller_.kernelReadTopology();
  const std::set<of::DatapathId>& members = *compiled->virtualTopology();
  if (members.empty()) {
    return Response::success(
        net::VirtualTopology::singleBigSwitch(physical, kVirtualDpid));
  }
  return Response::success(
      net::VirtualTopology::bigSwitch(physical, members, kVirtualDpid));
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
