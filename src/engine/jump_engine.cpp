#include "engine/jump_engine.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "core/discordance_tracker.hpp"
#include "core/div_process.hpp"

namespace divlib {

namespace {

// The state is frozen on every scheduled step in (from, to); replay the
// stride points those lazy steps cross so jump traces line up sample-for-
// sample with naive traces.
void record_lazy_strides(Trace& trace, std::uint64_t from,
                         std::uint64_t to_exclusive,
                         const OpinionState& state) {
  if (!trace.enabled()) {
    return;
  }
  const std::uint64_t stride = trace.stride();
  for (std::uint64_t step = (from / stride + 1) * stride; step < to_exclusive;
       step += stride) {
    trace.record(step, state);
  }
}

// Terminal-stretch variant of record_lazy_strides() for the frozen-state
// and watchdog exits, where the remaining stretch runs all the way to the
// step cap.  Replaying every stride point there materializes up to
// (max_steps - steps) / stride copies of the SAME state -- with a default
// 10^8 cap and stride 1 that is a multi-GiB allocation burst for zero
// information.  Since the state never changes again, the first and last
// crossed stride points summarize the stretch exactly; finalize() then
// dedupes the final record if it coincides.  Mid-run stretches keep the
// full replay so jump traces stay sample-for-sample aligned with naive
// traces.
void record_frozen_tail(Trace& trace, std::uint64_t from,
                        std::uint64_t to_exclusive,
                        const OpinionState& state) {
  if (!trace.enabled()) {
    return;
  }
  const std::uint64_t stride = trace.stride();
  const std::uint64_t first = (from / stride + 1) * stride;
  if (first >= to_exclusive) {
    return;
  }
  trace.record(first, state);
  const std::uint64_t last = ((to_exclusive - 1) / stride) * stride;
  if (last > first) {
    trace.record(last, state);
  }
}

void run_jump_loop(Process& process, OpinionState& state, Rng& rng,
                   const RunOptions& options, JumpRunResult& result) {
  auto* div = dynamic_cast<DivProcess*>(&process);
  if (div == nullptr) {
    throw std::invalid_argument(
        "run_jump: only the plain DIV process is supported (got '" +
        process.name() +
        "'); decorated or non-DIV dynamics must use the step engine");
  }
  process.begin_run(state);
  result.trace = Trace(options.trace_stride);
  result.trace.maybe_record(0, state);

  const Graph& graph = state.graph();
  const SelectionScheme scheme = div->scheme();
  // Starting in jump mode keeps the frozen-state detection of the pure jump
  // engine: a start that can never change state is diagnosed immediately
  // instead of after a naive window.  Dense starts pay one effective step
  // and then drop to naive mode via the active-probability check.
  DiscordanceTracker tracker(state, scheme);
  GeometricSkip skip;
  bool jump_mode = true;
  std::uint64_t window_steps = 0;
  std::uint64_t window_effective = 0;

  RunMetrics* metrics = options.metrics;
  auto segment_start = std::chrono::steady_clock::now();
  const auto wall_start = segment_start;
  // Closes the current wall-clock segment into the matching mode bucket.
  // Only called when metrics != nullptr.
  const auto close_segment = [&](bool was_jump) {
    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(now - segment_start).count();
    (was_jump ? metrics->wall_seconds_jump : metrics->wall_seconds_naive) +=
        seconds;
    segment_start = now;
  };
  if (metrics != nullptr) {
    metrics->record_mode_switch(0, /*jump_mode=*/true,
                                tracker.active_probability(),
                                tracker.total_discordant_pairs());
  }

  bool satisfied = is_satisfied(options.stop, state);
  bool cancelled = false;
  while (!satisfied && result.steps < options.max_steps) {
    // Same drain point as the naive engine: between scheduled iterations,
    // never inside a jump (so the scheduled clock stays consistent).
    if (options.cancel != nullptr && options.cancel->requested()) {
      cancelled = true;
      break;
    }
    if (jump_mode) {
      if (tracker.frozen()) {
        // Every pair agrees (each component is internally unanimous) but the
        // stop condition does not hold: no future step can change anything,
        // which is exactly the naive loop idling to the cap.
        record_frozen_tail(result.trace, result.steps, options.max_steps + 1,
                           state);
        if (metrics != nullptr) {
          metrics->frozen_tail_steps += options.max_steps - result.steps;
          metrics->lazy_steps_skipped += options.max_steps - result.steps;
        }
        result.steps = options.max_steps;
        break;
      }
      const std::uint64_t skipped =
          skip.draw(rng, tracker.active_probability());
      if (skipped >= options.max_steps - result.steps) {
        // The next effective step falls beyond the budget: the watchdog
        // fires mid-lazy-stretch, with the state unchanged.
        record_frozen_tail(result.trace, result.steps, options.max_steps + 1,
                           state);
        if (metrics != nullptr) {
          metrics->frozen_tail_steps += options.max_steps - result.steps;
          metrics->lazy_steps_skipped += options.max_steps - result.steps;
        }
        result.steps = options.max_steps;
        break;
      }
      record_lazy_strides(result.trace, result.steps,
                          result.steps + skipped + 1, state);
      result.steps += skipped + 1;

      const SelectedPair pair = tracker.sample_discordant_pair(rng);
      const Opinion own = state.opinion(pair.updater);
      state.set(pair.updater, DivProcess::updated_opinion(
                                  own, state.opinion(pair.observed)));
      tracker.apply_move(pair.updater, own);
      ++result.effective_steps;
      if (metrics != nullptr) {
        metrics->lazy_steps_skipped += skipped;
        if (metrics->activity_stride > 0 &&
            result.effective_steps % metrics->activity_stride == 0) {
          metrics->record_activity(result.steps, tracker.active_probability(),
                                   tracker.total_discordant_pairs());
        }
      }
      result.trace.maybe_record(result.steps, state);
      satisfied = is_satisfied(options.stop, state);
      if (!satisfied &&
          tracker.active_probability() > kJumpExitActiveProbability) {
        jump_mode = false;
        ++result.mode_switches;
        window_steps = 0;
        window_effective = 0;
        if (metrics != nullptr) {
          // The tracker is still fresh at a jump exit, so the switch entry
          // carries the exact activity that triggered it.
          metrics->record_mode_switch(result.steps, /*jump_mode=*/false,
                                      tracker.active_probability(),
                                      tracker.total_discordant_pairs());
          close_segment(/*was_jump=*/true);
        }
      }
    } else {
      // Naive mode: simulate the scheduled chain directly and leave the
      // tracker stale.  Both branches draw from the same process law, so
      // switching (a function of the past trajectory only) preserves the
      // exact distribution of the chain.
      const SelectedPair pair = select_pair(graph, scheme, rng);
      const Opinion own = state.opinion(pair.updater);
      const Opinion next =
          DivProcess::updated_opinion(own, state.opinion(pair.observed));
      ++result.steps;
      if (next != own) {
        state.set(pair.updater, next);
        ++result.effective_steps;
        ++window_effective;
      }
      result.trace.maybe_record(result.steps, state);
      satisfied = is_satisfied(options.stop, state);
      if (++window_steps == kNaiveWindow) {
        if (!satisfied && window_effective <= kJumpEnterEffectiveMax) {
          tracker.rebuild_counts();
          jump_mode = true;
          ++result.mode_switches;
          if (metrics != nullptr) {
            // rebuild_counts() just ran, so these values are exact again.
            metrics->record_mode_switch(result.steps, /*jump_mode=*/true,
                                        tracker.active_probability(),
                                        tracker.total_discordant_pairs());
            close_segment(/*was_jump=*/false);
          }
        }
        window_steps = 0;
        window_effective = 0;
      }
    }
  }
  result.status = satisfied    ? RunStatus::kCompleted
                  : cancelled  ? drained_status(*options.cancel)
                               : RunStatus::kCapped;
  if (metrics != nullptr) {
    close_segment(jump_mode);
    metrics->wall_seconds_total = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      wall_start)
                                      .count();
    metrics->scheduled_steps = result.steps;
    metrics->effective_steps = result.effective_steps;
    metrics->tracker_rebuilds = tracker.rebuilds();
  }
}

// Mirrors the naive engine's finalize(): aggregate snapshot + final trace
// sample.
void finalize(const OpinionState& state, JumpRunResult& result) {
  result.completed = result.status == RunStatus::kCompleted;
  result.min_active = state.min_active();
  result.max_active = state.max_active();
  result.num_active = state.num_active();
  result.final_sum = state.sum();
  result.final_z = state.z_total();
  if (state.is_consensus()) {
    result.winner = state.min_active();
  }
  if (result.trace.enabled() &&
      (result.trace.empty() ||
       result.trace.samples().back().step != result.steps)) {
    result.trace.record(result.steps, state);
  }
}

}  // namespace

JumpRunResult run_jump(Process& process, OpinionState& state, Rng& rng,
                       const RunOptions& options) {
  JumpRunResult result;
  run_jump_loop(process, state, rng, options, result);
  finalize(state, result);
  return result;
}

JumpRunResult run_jump_guarded(Process& process, OpinionState& state, Rng& rng,
                               const RunOptions& options) {
  JumpRunResult result;
  try {
    run_jump_loop(process, state, rng, options, result);
  } catch (const std::exception& error) {
    result.status = RunStatus::kFaulted;
    result.fault = error.what();
  } catch (...) {
    result.status = RunStatus::kFaulted;
    result.fault = "unknown exception";
  }
  finalize(state, result);
  return result;
}

}  // namespace divlib
