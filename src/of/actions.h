// Flow actions: what a rule (or a packet-out) does with a packet. A small
// OF 1.0-style action set, rich enough for the paper's action filters
// (DROP / FORWARD / MODIFY field) and the dynamic-flow-tunneling attack
// (header rewriting).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "of/match.h"
#include "of/types.h"

namespace sdnshield::of {

/// Send the packet out a port (possibly kFlood or kController).
struct OutputAction {
  PortNo port = ports::kNone;
  friend bool operator==(const OutputAction&, const OutputAction&) = default;
};

/// Rewrite a header field before subsequent actions.
struct SetFieldAction {
  MatchField field = MatchField::kIpDst;
  // Exactly one of the following is meaningful, depending on `field`.
  std::uint64_t intValue = 0;  ///< ports, ethType, vlan, ipProto, tp ports.
  MacAddress macValue;         ///< for kEthSrc / kEthDst.
  Ipv4Address ipValue;         ///< for kIpSrc / kIpDst.
  friend bool operator==(const SetFieldAction&,
                         const SetFieldAction&) = default;
};

/// Explicitly drop (also implied by an empty action list on a table hit).
struct DropAction {
  friend bool operator==(const DropAction&, const DropAction&) = default;
};

using Action = std::variant<OutputAction, SetFieldAction, DropAction>;
using ActionList = std::vector<Action>;

std::string toString(const Action& action);
/// "[output(2), drop]"; appendTo() appends the same text to @p out.
std::string toString(const ActionList& actions);
void appendTo(std::string& out, const Action& action);
void appendTo(std::string& out, const ActionList& actions);

/// True when the list contains any output (forwarding) action.
bool hasOutput(const ActionList& actions);

/// True when the list rewrites any header field.
bool modifiesHeaders(const ActionList& actions);

/// True when the list rewrites the given field.
bool modifiesField(const ActionList& actions, MatchField field);

/// True when the list is a drop (empty, or contains DropAction only).
bool isDrop(const ActionList& actions);

}  // namespace sdnshield::of
