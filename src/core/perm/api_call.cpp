#include "core/perm/api_call.h"

namespace sdnshield::perm {

std::string toString(ApiCallType type) {
  switch (type) {
    case ApiCallType::kInsertFlow:
      return "insert_flow";
    case ApiCallType::kModifyFlow:
      return "modify_flow";
    case ApiCallType::kDeleteFlow:
      return "delete_flow";
    case ApiCallType::kReadFlowTable:
      return "read_flow_table";
    case ApiCallType::kSubscribeFlowEvent:
      return "subscribe_flow_event";
    case ApiCallType::kReadTopology:
      return "read_topology";
    case ApiCallType::kModifyTopology:
      return "modify_topology";
    case ApiCallType::kSubscribeTopologyEvent:
      return "subscribe_topology_event";
    case ApiCallType::kReadStatistics:
      return "read_statistics";
    case ApiCallType::kSubscribeErrorEvent:
      return "subscribe_error_event";
    case ApiCallType::kReadPayload:
      return "read_payload";
    case ApiCallType::kSendPacketOut:
      return "send_packet_out";
    case ApiCallType::kSubscribePacketIn:
      return "subscribe_packet_in";
    case ApiCallType::kHostNetworkAccess:
      return "host_network_access";
    case ApiCallType::kFileSystemAccess:
      return "file_system_access";
    case ApiCallType::kProcessRuntimeAccess:
      return "process_runtime_access";
    case ApiCallType::kMarketAdmin:
      return "market_admin";
  }
  return "unknown_call";
}

Token requiredToken(ApiCallType type) {
  switch (type) {
    case ApiCallType::kInsertFlow:
    case ApiCallType::kModifyFlow:
      return Token::kInsertFlow;  // Table II: insert covers modify.
    case ApiCallType::kDeleteFlow:
      return Token::kDeleteFlow;
    case ApiCallType::kReadFlowTable:
      return Token::kReadFlowTable;
    case ApiCallType::kSubscribeFlowEvent:
      return Token::kFlowEvent;
    case ApiCallType::kReadTopology:
      return Token::kVisibleTopology;
    case ApiCallType::kModifyTopology:
      return Token::kModifyTopology;
    case ApiCallType::kSubscribeTopologyEvent:
      return Token::kTopologyEvent;
    case ApiCallType::kReadStatistics:
      return Token::kReadStatistics;
    case ApiCallType::kSubscribeErrorEvent:
      return Token::kErrorEvent;
    case ApiCallType::kReadPayload:
      return Token::kReadPayload;
    case ApiCallType::kSendPacketOut:
      return Token::kSendPktOut;
    case ApiCallType::kSubscribePacketIn:
      return Token::kPktInEvent;
    case ApiCallType::kHostNetworkAccess:
      return Token::kHostNetwork;
    case ApiCallType::kFileSystemAccess:
      return Token::kFileSystem;
    case ApiCallType::kProcessRuntimeAccess:
      return Token::kProcessRuntime;
    case ApiCallType::kMarketAdmin:
      return Token::kMarketAdmin;
  }
  return Token::kProcessRuntime;
}

std::string ApiCall::toString() const {
  std::string out;
  out.reserve(160);
  appendTo(out);
  return out;
}

void ApiCall::appendTo(std::string& out) const {
  out += perm::toString(type);
  out += " app=";
  of::appendDecimal(out, app);
  if (dpid) {
    out += " dpid=";
    of::appendDecimal(out, *dpid);
  }
  if (match) {
    out += " match=";
    match->appendTo(out);
  }
  if (actions) {
    out += " actions=";
    of::appendTo(out, *actions);
  }
  if (priority) {
    out += " prio=";
    of::appendDecimal(out, *priority);
  }
  if (statsLevel) {
    out += " level=";
    out += of::toString(*statsLevel);
  }
  if (remoteIp) {
    out += " remote=";
    remoteIp->appendTo(out);
  }
  if (remotePort) {
    out += ':';
    of::appendDecimal(out, *remotePort);
  }
  if (path) {
    out += " path=";
    out += *path;
  }
}

ApiCall ApiCall::insertFlow(of::AppId app, of::DatapathId dpid,
                            const of::FlowMod& mod) {
  ApiCall call;
  call.type =
      mod.isModify() ? ApiCallType::kModifyFlow : ApiCallType::kInsertFlow;
  call.app = app;
  call.dpid = dpid;
  call.match = mod.match;
  call.actions = mod.actions;
  call.priority = mod.priority;
  return call;
}

ApiCall ApiCall::deleteFlow(of::AppId app, of::DatapathId dpid,
                            const of::FlowMatch& match, bool ownFlow) {
  ApiCall call;
  call.type = ApiCallType::kDeleteFlow;
  call.app = app;
  call.dpid = dpid;
  call.match = match;
  call.ownFlow = ownFlow;
  return call;
}

ApiCall ApiCall::readFlowTable(of::AppId app, of::DatapathId dpid) {
  ApiCall call;
  call.type = ApiCallType::kReadFlowTable;
  call.app = app;
  call.dpid = dpid;
  return call;
}

ApiCall ApiCall::readStatistics(of::AppId app, const of::StatsRequest& req) {
  ApiCall call;
  call.type = ApiCallType::kReadStatistics;
  call.app = app;
  call.dpid = req.dpid;
  call.statsLevel = req.level;
  if (req.level == of::StatsLevel::kFlow) call.match = req.match;
  return call;
}

ApiCall ApiCall::sendPacketOut(of::AppId app, const of::PacketOut& pkt) {
  ApiCall call;
  call.type = ApiCallType::kSendPacketOut;
  call.app = app;
  call.dpid = pkt.dpid;
  call.actions = pkt.actions;
  call.pktOutFromPacketIn = pkt.fromPacketIn;
  return call;
}

ApiCall ApiCall::readTopology(of::AppId app) {
  ApiCall call;
  call.type = ApiCallType::kReadTopology;
  call.app = app;
  return call;
}

ApiCall ApiCall::hostNetwork(of::AppId app, of::Ipv4Address remoteIp,
                             std::uint16_t remotePort) {
  ApiCall call;
  call.type = ApiCallType::kHostNetworkAccess;
  call.app = app;
  call.remoteIp = remoteIp;
  call.remotePort = remotePort;
  return call;
}

ApiCall ApiCall::fileSystem(of::AppId app, std::string path) {
  ApiCall call;
  call.type = ApiCallType::kFileSystemAccess;
  call.app = app;
  call.path = std::move(path);
  return call;
}

ApiCall ApiCall::processRuntime(of::AppId app, std::string command) {
  ApiCall call;
  call.type = ApiCallType::kProcessRuntimeAccess;
  call.app = app;
  call.path = std::move(command);
  return call;
}

ApiCall ApiCall::marketAdmin(of::AppId app, std::string operation) {
  ApiCall call;
  call.type = ApiCallType::kMarketAdmin;
  call.app = app;
  call.path = std::move(operation);  // Reuses the free-form text attribute.
  return call;
}

ApiCall ApiCall::subscribe(of::AppId app, ApiCallType eventType,
                           CallbackOp op) {
  ApiCall call;
  call.type = eventType;
  call.app = app;
  call.callbackOp = op;
  return call;
}

}  // namespace sdnshield::perm
