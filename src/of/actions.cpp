#include "of/actions.h"

#include <algorithm>

namespace sdnshield::of {

std::string toString(const Action& action) {
  std::string out;
  appendTo(out, action);
  return out;
}

void appendTo(std::string& out, const Action& action) {
  if (const auto* output = std::get_if<OutputAction>(&action)) {
    switch (output->port) {
      case ports::kFlood:
        out += "output(FLOOD)";
        return;
      case ports::kController:
        out += "output(CONTROLLER)";
        return;
      default:
        out += "output(";
        appendDecimal(out, output->port);
        out += ')';
        return;
    }
  }
  if (const auto* set = std::get_if<SetFieldAction>(&action)) {
    out += "set(";
    out += toString(set->field);
    out += '=';
    switch (set->field) {
      case MatchField::kEthSrc:
      case MatchField::kEthDst:
        set->macValue.appendTo(out);
        break;
      case MatchField::kIpSrc:
      case MatchField::kIpDst:
        set->ipValue.appendTo(out);
        break;
      default:
        appendDecimal(out, set->intValue);
        break;
    }
    out += ')';
    return;
  }
  out += "drop";
}

std::string toString(const ActionList& actions) {
  std::string out;
  out.reserve(16 * actions.size() + 2);
  appendTo(out, actions);
  return out;
}

void appendTo(std::string& out, const ActionList& actions) {
  out += '[';
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += ", ";
    appendTo(out, actions[i]);
  }
  out += ']';
}

bool hasOutput(const ActionList& actions) {
  return std::any_of(actions.begin(), actions.end(), [](const Action& a) {
    return std::holds_alternative<OutputAction>(a);
  });
}

bool modifiesHeaders(const ActionList& actions) {
  return std::any_of(actions.begin(), actions.end(), [](const Action& a) {
    return std::holds_alternative<SetFieldAction>(a);
  });
}

bool modifiesField(const ActionList& actions, MatchField field) {
  return std::any_of(actions.begin(), actions.end(), [&](const Action& a) {
    const auto* set = std::get_if<SetFieldAction>(&a);
    return set != nullptr && set->field == field;
  });
}

bool isDrop(const ActionList& actions) {
  return !hasOutput(actions) && !modifiesHeaders(actions);
}

}  // namespace sdnshield::of
