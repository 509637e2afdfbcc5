// Stopping rules for asynchronous runs.
//
// The paper's analysis splits a run at two milestones: the end of the
// "reduction" phase (at most two consecutive opinions remain; Theorem 1's
// time T) and full consensus (a single absorbing opinion; Theorem 2's
// winner).  Runs can stop at either milestone or at a hard step cap.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/opinion_state.hpp"

namespace divlib {

enum class StopKind {
  kConsensus,    // stop when one opinion remains
  kTwoAdjacent,  // stop when max_active - min_active <= 1
};

std::string_view to_string(StopKind kind);
// Inverse of to_string; throws std::invalid_argument on unknown names.
StopKind parse_stop_kind(std::string_view name);

bool is_satisfied(StopKind kind, const OpinionState& state);

}  // namespace divlib
