// The attribute model of a mediated API call. Every call an app issues —
// northbound SDN API or host system call — is reified into an ApiCall value
// carrying the caller identity and the runtime arguments/context ("attributes"
// in the paper's terminology) that permission filters inspect.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/perm/token.h"
#include "of/actions.h"
#include "of/flow_mod.h"
#include "of/match.h"
#include "of/messages.h"

namespace sdnshield::perm {

enum class ApiCallType {
  kInsertFlow,
  kModifyFlow,
  kDeleteFlow,
  kReadFlowTable,
  kSubscribeFlowEvent,
  kReadTopology,
  kModifyTopology,
  kSubscribeTopologyEvent,
  kReadStatistics,
  kSubscribeErrorEvent,
  kReadPayload,
  kSendPacketOut,
  kSubscribePacketIn,
  kHostNetworkAccess,
  kFileSystemAccess,
  kProcessRuntimeAccess,
  kMarketAdmin,  ///< App-market lifecycle operation (policy push, revoke).
};

std::string toString(ApiCallType type);

/// The token an API call requires (the coarse-grained check).
Token requiredToken(ApiCallType type);

/// What an app does with an event subscription (inspected by callback
/// filters: plain observation is always allowed by the event token itself;
/// interception/ordering need the corresponding filter capability).
enum class CallbackOp { kObserve, kIntercept, kReorder };

struct ApiCall {
  ApiCallType type = ApiCallType::kReadTopology;
  of::AppId app = 0;

  // --- flow-call attributes ----------------------------------------------
  std::optional<of::DatapathId> dpid;
  std::optional<of::FlowMatch> match;
  std::optional<of::ActionList> actions;
  std::optional<std::uint16_t> priority;
  /// True when the targeted flow(s) are owned by the caller. Populated by the
  /// ownership tracker for delete/modify/read; always true for inserts.
  bool ownFlow = true;
  /// Rules the app would have installed on the switch after this call
  /// (table-size filter input).
  std::optional<std::size_t> ruleCountAfter;

  // --- statistics ---------------------------------------------------------
  std::optional<of::StatsLevel> statsLevel;

  // --- packet-out ---------------------------------------------------------
  bool pktOutFromPacketIn = false;

  // --- events -------------------------------------------------------------
  std::optional<CallbackOp> callbackOp;

  // --- topology elements touched -----------------------------------------
  std::vector<of::DatapathId> topoSwitches;
  std::vector<std::pair<of::DatapathId, of::DatapathId>> topoLinks;

  // --- host system --------------------------------------------------------
  std::optional<of::Ipv4Address> remoteIp;
  std::optional<std::uint16_t> remotePort;
  std::optional<std::string> path;  ///< File path or process command line.

  /// "insert_flow app=3 dpid=1 match={...} ..." (audit summaries, deny
  /// reasons); appendTo() appends the same text to @p out.
  std::string toString() const;
  void appendTo(std::string& out) const;

  // --- factories for common call shapes ------------------------------------
  static ApiCall insertFlow(of::AppId app, of::DatapathId dpid,
                            const of::FlowMod& mod);
  static ApiCall deleteFlow(of::AppId app, of::DatapathId dpid,
                            const of::FlowMatch& match, bool ownFlow);
  static ApiCall readFlowTable(of::AppId app, of::DatapathId dpid);
  static ApiCall readStatistics(of::AppId app, const of::StatsRequest& req);
  static ApiCall sendPacketOut(of::AppId app, const of::PacketOut& pkt);
  static ApiCall readTopology(of::AppId app);
  static ApiCall hostNetwork(of::AppId app, of::Ipv4Address remoteIp,
                             std::uint16_t remotePort);
  static ApiCall fileSystem(of::AppId app, std::string path);
  static ApiCall processRuntime(of::AppId app, std::string command);
  static ApiCall subscribe(of::AppId app, ApiCallType eventType,
                           CallbackOp op = CallbackOp::kObserve);
  /// An app-market lifecycle call; @p operation names it for the audit log
  /// ("update_policy", "revoke 3", ...).
  static ApiCall marketAdmin(of::AppId app, std::string operation);
};

}  // namespace sdnshield::perm
