#include "engine/stop_condition.hpp"

#include <stdexcept>
#include <string>

namespace divlib {

std::string_view to_string(StopKind kind) {
  switch (kind) {
    case StopKind::kConsensus:
      return "consensus";
    case StopKind::kTwoAdjacent:
      return "two-adjacent";
  }
  return "unknown";
}

StopKind parse_stop_kind(std::string_view name) {
  for (const StopKind kind : {StopKind::kConsensus, StopKind::kTwoAdjacent}) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown stop condition '" + std::string(name) +
                              "' (expected consensus|two-adjacent)");
}

bool is_satisfied(StopKind kind, const OpinionState& state) {
  switch (kind) {
    case StopKind::kConsensus:
      return state.is_consensus();
    case StopKind::kTwoAdjacent:
      return state.is_two_adjacent();
  }
  return false;
}

}  // namespace divlib
