// Flow-mod message and flow table entry definitions.
#pragma once

#include <cstdint>
#include <string>

#include "of/actions.h"
#include "of/match.h"

namespace sdnshield::of {

/// An application identifier, threaded through cookies for ownership
/// tracking. App id 0 is reserved for the controller kernel.
using AppId = std::uint32_t;
inline constexpr AppId kKernelAppId = 0;

enum class FlowModCommand {
  kAdd,
  kModify,        ///< Modify actions of all entries with overlapping match.
  kModifyStrict,  ///< Modify actions of the entry with identical match+prio.
  kDelete,        ///< Delete all entries subsumed by the match.
  kDeleteStrict,  ///< Delete the entry with identical match+prio.
};

std::string toString(FlowModCommand command);

struct FlowMod {
  FlowModCommand command = FlowModCommand::kAdd;
  FlowMatch match;
  std::uint16_t priority = 0;
  ActionList actions;
  std::uint64_t cookie = 0;  ///< Carries the issuing app id.
  std::uint32_t idleTimeout = 0;
  std::uint32_t hardTimeout = 0;

  /// True for kModify/kModifyStrict: rewrites existing entries, adds none.
  bool isModify() const {
    return command == FlowModCommand::kModify ||
           command == FlowModCommand::kModifyStrict;
  }
  bool addsRule() const { return command == FlowModCommand::kAdd; }
  bool isDelete() const {
    return command == FlowModCommand::kDelete ||
           command == FlowModCommand::kDeleteStrict;
  }

  friend bool operator==(const FlowMod&, const FlowMod&) = default;
  std::string toString() const;
};

/// An installed flow entry, including counters and (virtual-time) ages used
/// for idle/hard timeout expiry.
struct FlowEntry {
  FlowMatch match;
  std::uint16_t priority = 0;
  ActionList actions;
  std::uint64_t cookie = 0;
  std::uint32_t idleTimeout = 0;  ///< 0 = never idles out.
  std::uint32_t hardTimeout = 0;  ///< 0 = never hard-expires.
  std::uint64_t packetCount = 0;
  std::uint64_t byteCount = 0;
  std::uint32_t ageSeconds = 0;      ///< Virtual seconds since install.
  std::uint32_t idleSeconds = 0;     ///< Virtual seconds since last hit.

  std::string toString() const;
};

}  // namespace sdnshield::of
