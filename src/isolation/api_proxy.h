// The SDNShield deployment glue (paper Figure 4):
//  * ShieldedApi — the auto-generated-wrapper analogue: every northbound
//    call marshals through the channel to a Kernel Service Deputy, which
//    permission-checks (with ownership / provenance / rule-count context
//    filled in), applies abstract-topology translation, and executes the
//    kernel operation on the app's behalf;
//  * ShieldedContext — the app-side AppContext whose event subscriptions are
//    themselves checked and whose handlers run on the app's thread container
//    (with payload stripping and per-event filtering);
//  * ShieldRuntime — app lifecycle: installs compiled permissions, starts
//    containers, runs init in the sandbox;
//  * BaselineRuntime — the original monolithic deployment for comparison.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "controller/controller.h"
#include "controller/services.h"
#include "core/engine/permission_engine.h"
#include "isolation/host_system.h"
#include "isolation/ksd.h"
#include "isolation/reference_monitor.h"
#include "isolation/supervisor.h"
#include "isolation/thread_container.h"
#include "net/virtual_topology.h"

namespace sdnshield::iso {

/// Datapath id apps use to address the virtual big switch.
inline constexpr of::DatapathId kVirtualDpid = 0xbf00000000000001ULL;

/// Bounded memory of packets recently delivered to an app as packet-ins;
/// backs the FROM_PKT_IN provenance check on packet-outs. Packets are kept
/// as serialized bytes, so only a byte-identical packet passes: a forged
/// packet cannot get through by colliding with a remembered one's hash.
class RecentPacketIns {
 public:
  explicit RecentPacketIns(std::size_t capacity = 1024)
      : capacity_(capacity) {}

  void remember(const of::Packet& packet);
  bool seen(const of::Packet& packet) const;

 private:
  static std::string bytesOf(const of::Packet& packet);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::deque<std::string> order_;
  std::unordered_multiset<std::string> packets_;
};

class ShieldRuntime;

class ShieldedApi final : public ctrl::NorthboundApi {
 public:
  ShieldedApi(ShieldRuntime& runtime, of::AppId app,
              std::shared_ptr<RecentPacketIns> recent)
      : runtime_(runtime), app_(app), recent_(std::move(recent)) {}

  ctrl::ApiResult insertFlow(of::DatapathId dpid,
                             const of::FlowMod& mod) override;
  ctrl::ApiResult insertFlows(of::DatapathId dpid,
                              const std::vector<of::FlowMod>& mods) override;
  ctrl::ApiResult deleteFlow(of::DatapathId dpid, const of::FlowMatch& match,
                             bool strict, std::uint16_t priority) override;
  ctrl::ApiResult commitFlowTransaction(
      const std::vector<std::pair<of::DatapathId, of::FlowMod>>& mods) override;
  ctrl::ApiFuture<ctrl::ApiResult> insertFlowAsync(
      of::DatapathId dpid, const of::FlowMod& mod) override;
  ctrl::ApiFuture<ctrl::ApiResult> sendPacketOutAsync(
      const of::PacketOut& packetOut) override;
  ctrl::ApiResponse<std::vector<of::FlowEntry>> readFlowTable(
      of::DatapathId dpid) override;
  ctrl::ApiResponse<net::Topology> readTopology() override;
  ctrl::ApiResponse<of::StatsReply> readStatistics(
      const of::StatsRequest& request) override;
  ctrl::ApiResult sendPacketOut(const of::PacketOut& packetOut) override;
  ctrl::ApiResult publishData(const std::string& topic,
                              const std::string& payload) override;
  ctrl::ApiResponse<ctrl::StatsReport> statsReport() override;
  ctrl::ApiResult updatePolicy(const std::string& policyText) override;
  ctrl::ApiResult revokeApp(of::AppId app, const std::string& reason) override;
  ctrl::ApiResponse<std::string> marketReport() override;

 private:
  /// Deputy-side bodies (run with kernel privilege on a KSD thread). Every
  /// insert — single, batched or async — takes doInsertFlows.
  ctrl::ApiResult doInsertFlows(of::DatapathId dpid,
                                std::span<const of::FlowMod> mods);
  ctrl::ApiResult doSendPacketOut(const of::PacketOut& packetOut);

  /// A flow-mod addressed to the virtual big switch, as physical ones.
  ctrl::ApiResponse<std::vector<std::pair<of::DatapathId, of::FlowMod>>>
  translateVirtual(const of::FlowMod& mod) const;
  ctrl::ApiResult insertVirtual(const of::FlowMod& mod);

  ShieldRuntime& runtime_;
  of::AppId app_;
  std::shared_ptr<RecentPacketIns> recent_;
};

class ShieldedContext final : public ctrl::AppContext {
 public:
  ShieldedContext(ShieldRuntime& runtime, of::AppId app,
                  std::shared_ptr<ThreadContainer> container);

  of::AppId appId() const override { return app_; }
  ctrl::NorthboundApi& api() override { return api_; }
  ctrl::HostServices& host() override;

  ctrl::ApiResponse<ctrl::SubscriptionId> subscribePacketIn(
      std::function<void(const ctrl::PacketInEvent&)> handler) override;
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribePacketInInterceptor(
      std::function<bool(const ctrl::PacketInEvent&)> handler) override;
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeFlowEvents(
      std::function<void(const ctrl::FlowEvent&)> handler) override;
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeTopologyEvents(
      std::function<void(const ctrl::TopologyEvent&)> handler) override;
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeErrorEvents(
      std::function<void(const ctrl::ErrorEvent&)> handler) override;
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribeData(
      const std::string& topic,
      std::function<void(const ctrl::DataUpdateEvent&)> handler) override;
  ctrl::ApiResult unsubscribe(ctrl::SubscriptionId id) override;

 private:
  /// The one subscription path: gate-checks @p gate on a deputy, then
  /// registers (via the Controller method @p add) a sink that narrows each
  /// event to E, lets @p admit filter or strip it (false drops it) and
  /// posts @p handler to the app's container — a full queue counts an
  /// event drop. A bool-returning interceptor runs synchronously instead.
  template <typename E, typename Handler, typename Admit, typename Register>
  ctrl::ApiResponse<ctrl::SubscriptionId> subscribe(perm::ApiCall gate,
                                                    Handler handler,
                                                    Admit admit,
                                                    Register add);

  ShieldRuntime& runtime_;
  of::AppId app_;
  std::shared_ptr<ThreadContainer> container_;
  std::shared_ptr<RecentPacketIns> recent_;
  ShieldedApi api_;
};

struct ShieldOptions {
  std::size_t ksdThreads = 2;
  /// Deadline for one app-blocking API call through the deputy channel; a
  /// hung deputy surfaces as a failed ApiResult, never an indefinite stall.
  std::chrono::milliseconds ksdCallTimeout = KsdPool::kDefaultCallTimeout;
  /// Per-app event/task queue bound (backpressure horizon).
  std::size_t appQueueCapacity = 4096;
  /// Max asynchronous API calls one app may keep in flight (the *Async
  /// northbound calls); the next submission past the window blocks up to
  /// ksdCallTimeout, then fails with kQueueFull.
  std::size_t asyncWindow = 32;
  /// Starts the supervision watchdog (health states + hang detection).
  bool supervise = true;
  SupervisorOptions supervisor;
};

class ShieldRuntime {
 public:
  explicit ShieldRuntime(ctrl::Controller& controller,
                         ShieldOptions options = {});
  ~ShieldRuntime();

  ShieldRuntime(const ShieldRuntime&) = delete;
  ShieldRuntime& operator=(const ShieldRuntime&) = delete;

  /// Loads an app under the given (reconciled) permissions: installs the
  /// compiled permissions, starts the thread container and runs init inside
  /// the sandbox. Returns the assigned app id.
  of::AppId loadApp(std::shared_ptr<ctrl::App> app,
                    const perm::PermissionSet& granted);

  /// Loading-time access control (§VIII-B, the OSGi-security analogue):
  /// compares the app's *requested* manifest against the granted
  /// permissions before wiring anything up, so wholly-ungranted API
  /// families are known to be statically unavailable (no runtime checking
  /// ever needed for them).
  struct LoadReport {
    of::AppId appId = 0;
    /// Tokens the manifest requested that the grant lacks entirely.
    std::vector<perm::Token> deniedTokens;
    /// Tokens granted but narrower than requested (runtime filters apply).
    std::vector<perm::Token> narrowedTokens;
    bool fullyGranted() const {
      return deniedTokens.empty() && narrowedTokens.empty();
    }
    std::string toString() const;
  };

  /// Parses the manifest shipped inside the app, performs the loading-time
  /// check against @p granted, then loads the app (denied tokens stay
  /// denied — the report is for the administrator's eyes).
  LoadReport loadAppChecked(std::shared_ptr<ctrl::App> app,
                            const perm::PermissionSet& granted);
  void unloadApp(of::AppId app);
  void shutdown();

  /// Loads an app under a caller-chosen id (journal replay: a recovered
  /// market must reproduce the pre-crash id assignment). Throws
  /// std::invalid_argument if the id is 0 or already loaded.
  void loadAppAs(of::AppId id, std::shared_ptr<ctrl::App> app,
                 const perm::PermissionSet& granted);

  /// Live upgrade: replaces the app behind @p id with @p next under
  /// @p granted, keeping the id (and thus flow ownership and audit
  /// lineage). The old container is stopped (join — host-level call only,
  /// never from a deputy thread), its subscriptions removed, and the new
  /// grant is published in ONE engine install — readers observe either the
  /// old or the new permission set, never neither. Throws
  /// std::invalid_argument for unknown ids.
  void swapApp(of::AppId id, std::shared_ptr<ctrl::App> next,
               const perm::PermissionSet& granted);

  /// Frees retired (unloaded/swapped-out) app shells. Only safe when no app
  /// code still holds the AppContext pointers handed out at their init —
  /// i.e. from tests and teardown paths, not mid-flight.
  void reclaimRetired();

  // Leak-detection surfaces (install/uninstall cycles must return these to
  // baseline; see the market leak test).
  std::size_t loadedAppCount() const;
  std::size_t windowCount() const;
  std::size_t retiredCount() const;

  /// Supervisor action (also callable by the administrator): removes the
  /// app's subscriptions, uninstalls its permissions and seals its thread
  /// container (pending tasks discarded). Sibling apps are untouched. Safe
  /// to invoke from the watchdog, the dispatcher, or the app's own thread.
  void quarantineApp(of::AppId app, const std::string& reason);

  ctrl::Controller& controller() { return controller_; }
  engine::PermissionEngine& engine() { return engine_; }
  KsdPool& ksd() { return ksd_; }
  Supervisor& supervisor() { return supervisor_; }
  const ShieldOptions& options() const { return options_; }
  HostSystem& hostSystem() { return host_; }
  ReferenceMonitor& referenceMonitor() { return monitor_; }
  std::shared_ptr<ThreadContainer> container(of::AppId app) const;

  /// The app's bounded async-call window (created on first use). Quarantine
  /// and unload drop the registry slot, but futures already in flight keep
  /// the window alive through their RAII slot guards and still resolve.
  std::shared_ptr<InFlightWindow> inFlightWindow(of::AppId app);

  /// True once the app's container was sealed by quarantineApp.
  bool isQuarantined(of::AppId app) const;

  /// The virtual big switch (§VI-B.1) of an app whose visible_topology
  /// grant carries a VIRTUAL filter; kPermissionDenied otherwise. The one
  /// resolver every virtual-dpid call goes through.
  ctrl::ApiResponse<net::VirtualTopology> virtualTopologyFor(
      of::AppId app) const;

 private:
  struct LoadedApp {
    std::shared_ptr<ctrl::App> app;
    std::shared_ptr<ThreadContainer> container;
    std::shared_ptr<ShieldedContext> context;
  };

  of::AppId loadAppImpl(std::optional<of::AppId> requestedId,
                        std::shared_ptr<ctrl::App> app,
                        const perm::PermissionSet& granted);
  /// The one container start (load and swap), under mutex_: a started
  /// container whose faults are audited and reported to the supervisor,
  /// and the app's shielded context.
  LoadedApp startContainer(of::AppId id, std::shared_ptr<ctrl::App> app);
  /// Outside mutex_: puts the container under watch and runs the app's
  /// init inside the sandbox, containing a throwing init.
  void initSandboxed(of::AppId id, const LoadedApp& loaded);

  ctrl::Controller& controller_;
  ShieldOptions options_;
  engine::PermissionEngine engine_;
  KsdPool ksd_;
  Supervisor supervisor_;
  HostSystem host_;
  ReferenceMonitor monitor_;
  mutable std::mutex mutex_;
  std::map<of::AppId, LoadedApp> apps_;
  std::map<of::AppId, std::shared_ptr<InFlightWindow>> windows_;
  /// Unloaded/shut-down apps are parked here instead of destroyed: app code
  /// holds raw AppContext pointers handed out at init, and calls through
  /// them after shutdown must throw (the KSD is stopped), not fault on a
  /// freed context. Freed when the runtime itself is destroyed.
  std::vector<LoadedApp> retired_;
  of::AppId nextAppId_ = 1;
};

/// The original monolithic deployment: direct API, inline event dispatch,
/// unmediated host access — the baseline of Figures 6-8.
class BaselineRuntime {
 public:
  explicit BaselineRuntime(ctrl::Controller& controller)
      : controller_(controller), monitor_(host_, nullptr) {}

  of::AppId loadApp(std::shared_ptr<ctrl::App> app);

  ctrl::Controller& controller() { return controller_; }
  HostSystem& hostSystem() { return host_; }

 private:
  struct LoadedApp {
    std::shared_ptr<ctrl::App> app;
    std::unique_ptr<ctrl::DirectContext> context;
  };

  ctrl::Controller& controller_;
  HostSystem host_;
  ReferenceMonitor monitor_;
  std::vector<LoadedApp> apps_;
  of::AppId nextAppId_ = 1;
};

}  // namespace sdnshield::iso
