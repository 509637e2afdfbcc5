// --batch-lanes validation and refusal text, shared by divsim and the CLI
// tests.
//
// The lane count reaches the tool as a raw u64 from Args::get_u64.  It used
// to be clamped with max(1, static_cast<unsigned>(raw)), which silently
// wrapped values above UINT_MAX (--batch-lanes 4294967297 ran with 1 lane)
// and silently promoted an explicit 0 to 1.  Both are caller mistakes, so
// validate_batch_lanes refuses them loudly instead; the accepted range is
// [1, kMaxBatchLanes] (engine/supervisor.hpp), matching the guard
// run_supervised_set applies to SupervisorOptions::batch_lanes.
//
// The refusal strings for the feature combinations `divsim run` cannot
// honor live here as constants so test_cli can assert the exact text users
// see.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "engine/supervisor.hpp"

namespace divlib {

// Refused combinations: the batch engines inline the plain DIV update rule
// and keep no per-step hooks, so decorated processes and tracing stay on
// the scalar engines.  (--engine jump is NOT refused: jump-chain runs batch
// through run_batch_jump.)
inline constexpr const char* kBatchLanesProcessRefusal =
    "--batch-lanes only supports --process div (the batch engine inlines "
    "the DIV update rule; other processes use the scalar engines)";
inline constexpr const char* kBatchLanesFaultRefusal =
    "--batch-lanes cannot honor --fault: decorated processes need the "
    "scalar engines' virtual dispatch";
inline constexpr const char* kBatchLanesTraceRefusal =
    "--batch-lanes does not support --trace (per-step tracing is a "
    "scalar-engine feature)";
// Fleet workers run in forked processes and send back only the journal
// payload, so a worker's trace never reaches the parent that prints it.
inline constexpr const char* kTraceProcessRefusal =
    "--trace is not supported with --isolation process (worker traces "
    "never reach the parent; use --isolation thread)";

// Validates a raw --batch-lanes value BEFORE any narrowing: 0 and anything
// above kMaxBatchLanes throw std::invalid_argument with the offending value
// in the message.  Returns the value as the unsigned the engines take.
inline unsigned validate_batch_lanes(std::uint64_t raw) {
  if (raw == 0 || raw > kMaxBatchLanes) {
    throw std::invalid_argument(
        "--batch-lanes must be in [1, " + std::to_string(kMaxBatchLanes) +
        "], got " + std::to_string(raw));
  }
  return static_cast<unsigned>(raw);
}

}  // namespace divlib
