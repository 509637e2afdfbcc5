#include "engine/supervision_policy.hpp"

#include <algorithm>
#include <cmath>

namespace divlib {

namespace {

// Jitter stream salt: keeps backoff draws out of every replica stream
// (substream/retry seeds) while staying a pure function of the master seed.
constexpr std::uint64_t kBackoffSalt = 0xb0ff5eedULL;

// Registry name per SupervisionEvent::Kind, in enum order.
constexpr const char* kCounterNames[SupervisionEvent::kNumKinds] = {
    "supervisor_retries",
    "supervisor_fail_fasts",
    "supervisor_deadline_kills",
    "supervisor_speculative_launches",
    "supervisor_speculative_wins",
    "supervisor_quarantines",
    "fleet_worker_spawns",
    "fleet_worker_alive",
    "fleet_worker_suspects",
    "fleet_worker_deaths",
    "fleet_worker_dismissals",
    "supervisor_deadline_adapts",
    "supervisor_breaker_opens",
    "supervisor_breaker_closes",
};

bool is_worker_kind(std::size_t kind) {
  return kind >= static_cast<std::size_t>(SupervisionEvent::Kind::kWorkerSpawn) &&
         kind <= static_cast<std::size_t>(SupervisionEvent::Kind::kWorkerDismiss);
}

}  // namespace

std::chrono::milliseconds backoff_delay(const SupervisorOptions& options,
                                        std::size_t replica,
                                        unsigned attempt) {
  if (options.backoff_base.count() <= 0 || attempt == 0) {
    return std::chrono::milliseconds{0};
  }
  // base * 2^(attempt-1), exponent clamped so the double stays finite; the
  // cap below is what actually bounds the wait.
  const int exponent = static_cast<int>(std::min(attempt - 1, 20u));
  const double base = static_cast<double>(options.backoff_base.count()) *
                      std::ldexp(1.0, exponent);
  // Deterministic jitter: a private stream keyed by (master ^ salt, replica,
  // attempt), so the schedule replays exactly and never perturbs any replica
  // stream.  Uniform in [0.5x, 1.5x) -- desynchronizes retry herds while
  // keeping the expectation at the nominal delay.
  Rng jitter(Rng::retry_seed(options.master_seed ^ kBackoffSalt, replica,
                             attempt));
  double delay = base * (0.5 + jitter.uniform01());
  if (options.backoff_cap.count() > 0) {
    delay = std::min(delay, static_cast<double>(options.backoff_cap.count()));
  }
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(std::llround(delay)));
}

SupervisionPolicy::SupervisionPolicy(
    std::span<const std::size_t> replica_ids,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    const SupervisorOptions& options)
    : on_success_(on_success), options_(options) {
  states_.reserve(replica_ids.size());
  for (const std::size_t id : replica_ids) {
    ReplicaState state;
    state.id = id;
    states_.push_back(state);
  }
  if (options_.metrics != nullptr) {
    // Worker counters exist only where workers do, so a thread-mode
    // registry lists no fleet instruments.
    for (std::size_t kind = 0; kind < SupervisionEvent::kNumKinds; ++kind) {
      if (!is_worker_kind(kind) || options_.isolation == Isolation::kProcess) {
        counters_[kind] = &options_.metrics->counter(kCounterNames[kind]);
      }
    }
  }
}

bool SupervisionPolicy::start(Clock::time_point now) {
  report_.replicas = states_.size();
  if (states_.empty()) {
    return false;
  }
  if (options_.cancel != nullptr && options_.cancel->requested()) {
    // Preset cancel: nothing starts, everything re-runs on resume -- the
    // isolated driver's claim-nothing behavior.
    for (ReplicaState& state : states_) {
      settle(state, Phase::kUnfinished);
    }
    return false;
  }
  armed_deadline_ = options_.deadline;
  if (options_.breaker_enabled) {
    breaker_.emplace(options_.breaker, now);
  }
  for (std::size_t slot = 0; slot < states_.size(); ++slot) {
    ReplicaState& state = states_[slot];
    state.base_attempt =
        options_.first_attempt ? options_.first_attempt(state.id) : 0;
    state.next_attempt = state.base_attempt + 1;
    queue_.push({now, slot, state.base_attempt, false});
  }
  return true;
}

const SupervisionPolicy::WorkItem* SupervisionPolicy::peek() {
  while (!queue_.empty()) {
    const WorkItem& item = queue_.top();
    // A twin is valid only while the exact instance it duplicates is still
    // in flight; a primary only while its replica waits for it.
    const bool live = item.speculative ? running(item.slot, item.attempt)
                                       : states_[item.slot].phase ==
                                             Phase::kQueued;
    if (live) {
      return &item;
    }
    queue_.pop();
  }
  return nullptr;
}

SupervisionPolicy::WorkItem SupervisionPolicy::claim() {
  const WorkItem item = queue_.top();
  queue_.pop();
  if (!item.speculative) {
    ReplicaState& state = states_[item.slot];
    state.phase = Phase::kRunning;
    state.current_attempt = item.attempt;
  }
  return item;
}

void SupervisionPolicy::launch_twin(std::size_t slot, unsigned attempt,
                                    Clock::time_point now,
                                    std::string detail) {
  ++report_.speculative_launches;
  emit({SupervisionEvent::Kind::kSpeculativeLaunch, states_[slot].id, attempt,
        FailureClass::kTransient, 0.0, std::move(detail)});
  queue_.push({now, slot, attempt, true});
}

bool SupervisionPolicy::running(std::size_t slot, unsigned attempt) const {
  const ReplicaState& state = states_[slot];
  return state.phase == Phase::kRunning && state.current_attempt == attempt;
}

void SupervisionPolicy::settle(ReplicaState& state, Phase phase) {
  state.phase = phase;
  ++terminal_;
}

bool SupervisionPolicy::succeed(std::size_t slot, unsigned attempt,
                                double seconds, Clock::time_point now,
                                bool speculative, std::string&& payload) {
  if (!running(slot, attempt)) {
    return false;  // the duplicate already won; identical bytes, drop them
  }
  ReplicaState& state = states_[slot];
  settle(state, Phase::kDone);
  if (options_.estimator != nullptr) {
    options_.estimator->observe(seconds);
  }
  if (breaker_.has_value()) {
    publish_breaker(breaker_->record_success(now));
  }
  if (speculative) {
    ++report_.speculative_wins;
    emit({SupervisionEvent::Kind::kSpeculativeWin, state.id, attempt,
          FailureClass::kTransient, 0.0, {}});
  }
  if (options_.progress != nullptr) {
    options_.progress->completed.fetch_add(1, std::memory_order_relaxed);
  }
  on_success_(state.id, std::move(payload));
  return true;
}

void SupervisionPolicy::quarantine(ReplicaState& state, FailureClass failure,
                                   std::string message) {
  settle(state, Phase::kQuarantined);
  if (options_.progress != nullptr) {
    options_.progress->completed.fetch_add(1, std::memory_order_relaxed);
    options_.progress->errored.fetch_add(1, std::memory_order_relaxed);
  }
  // `attempts` is cumulative across resumes (base + consumed this run), so
  // a later poison-seed dodge resumes from a fresh retry_seed stream.
  const unsigned attempts = state.base_attempt + state.consumed;
  emit({SupervisionEvent::Kind::kQuarantine, state.id, attempts, failure, 0.0,
        message});
  report_.quarantined.push_back(
      {state.id, attempts, failure, std::move(message)});
}

void SupervisionPolicy::fail(std::size_t slot, unsigned attempt,
                             FailureClass failure, std::string message,
                             Clock::time_point now) {
  if (!running(slot, attempt)) {
    return;  // stale: the instance already reached a verdict elsewhere
  }
  ReplicaState& state = states_[slot];
  ++state.consumed;
  if (cancelling_) {
    // Draining on operator cancel: no retries during shutdown; the resume
    // re-runs the replica from its true seed.
    settle(state, Phase::kUnfinished);
    return;
  }
  if (failure == FailureClass::kDeterministic) {
    ++report_.fail_fasts;
    emit({SupervisionEvent::Kind::kFailFast, state.id, attempt, failure, 0.0,
          message});
    quarantine(state, failure, std::move(message));
    return;
  }
  // Transient/resource failures (worker crashes included, until they are
  // reclassified) are load signals; a deterministic bug is not, so it never
  // feeds the breaker.
  if (breaker_.has_value()) {
    publish_breaker(breaker_->record_failure(now));
  }
  if (state.next_attempt - state.base_attempt >=
      std::max(1u, options_.max_attempts)) {
    quarantine(state, failure, std::move(message));
    return;
  }
  const unsigned next = state.next_attempt++;
  std::chrono::milliseconds delay = backoff_delay(options_, state.id, next);
  if (breaker_.has_value() && breaker_->backoff_multiplier() > 1.0) {
    // Global widening while the breaker is open; the cap still rules.
    double widened =
        static_cast<double>(delay.count()) * breaker_->backoff_multiplier();
    if (options_.backoff_cap.count() > 0) {
      widened =
          std::min(widened, static_cast<double>(options_.backoff_cap.count()));
    }
    delay = std::chrono::milliseconds(
        static_cast<std::int64_t>(std::llround(widened)));
  }
  ++report_.retries;
  report_.backoff_wait_ms += static_cast<double>(delay.count());
  if (options_.progress != nullptr) {
    options_.progress->retried.fetch_add(1, std::memory_order_relaxed);
  }
  emit({SupervisionEvent::Kind::kRetry, state.id, next, failure,
        static_cast<double>(delay.count()), message});
  state.phase = Phase::kQueued;
  queue_.push({now + delay, slot, next, false});
}

std::string SupervisionPolicy::deadline_kill(std::size_t slot,
                                             unsigned attempt,
                                             const std::string& suffix) {
  std::string detail =
      (armed_learned_ ? "learned deadline of " : "wall-clock deadline of ") +
      std::to_string(armed_deadline_.count()) + "ms exceeded" + suffix;
  ++report_.deadline_kills;
  // A deadline kill is a retryable failure: the wall clock says nothing
  // about determinism, and a fresh stream may well miss the tail.
  emit({SupervisionEvent::Kind::kDeadlineKill, states_[slot].id, attempt,
        FailureClass::kTransient, 0.0, detail});
  return detail;
}

void SupervisionPolicy::drain(std::size_t slot, unsigned attempt) {
  if (running(slot, attempt)) {
    settle(states_[slot], Phase::kUnfinished);
  }
}

void SupervisionPolicy::cancel() {
  if (cancelling_) {
    return;
  }
  cancelling_ = true;
  // Fresh items whose replica never started become unfinished (a resume
  // re-runs them from their true seeds); twins simply vanish.
  while (!queue_.empty()) {
    const WorkItem item = queue_.top();
    queue_.pop();
    ReplicaState& state = states_[item.slot];
    if (!item.speculative && state.phase == Phase::kQueued) {
      settle(state, Phase::kUnfinished);
    }
  }
}

void SupervisionPolicy::tick(Clock::time_point now) {
  if (breaker_.has_value()) {
    publish_breaker(breaker_->tick(now));
  }
  rearm_deadline();
}

void SupervisionPolicy::emit(const SupervisionEvent& event) {
  Counter* counter = counters_[static_cast<std::size_t>(event.kind)];
  if (counter != nullptr) {
    counter->add();
  }
  if (options_.on_event) {
    options_.on_event(event);
  }
}

// Reports circuit-breaker transitions (HalfOpen probes stay internal: the
// externally visible states are "backpressure on" and "backpressure off").
// Only the fleet caps width (engine/fleet's pool sizing); its note says by
// how much.
void SupervisionPolicy::publish_breaker(
    const std::vector<BreakerTransition>& moved) {
  for (const BreakerTransition& transition : moved) {
    if (transition.to == BreakerState::kOpen) {
      ++report_.breaker_opens;
      emit({SupervisionEvent::Kind::kBreakerOpen, 0, 0,
            FailureClass::kTransient, 0.0,
            "failure spike (" + std::to_string(transition.failures_in_window) +
                " in window): backoff x" +
                std::to_string(options_.breaker.backoff_multiplier) + ", " +
                (breaker_note_
                     ? breaker_note_(transition.to)
                     : "width cap applies only under --isolation process")});
    } else if (transition.to == BreakerState::kClosed) {
      ++report_.breaker_closes;
      emit({SupervisionEvent::Kind::kBreakerClose, 0, 0,
            FailureClass::kTransient, 0.0,
            "quiet period: " + (breaker_note_ ? breaker_note_(transition.to)
                                              : "normal backoff restored")});
    }
  }
}

// Re-arms the effective per-attempt deadline from the estimator.  The armed
// value drifts with every accepted sample, so kDeadlineAdapt events fire
// only on the confidence-gate edge or a >10% move -- a journal line per
// sample would be noise, not explanation.
void SupervisionPolicy::rearm_deadline() {
  if (!options_.deadline_auto || options_.estimator == nullptr) {
    return;
  }
  const bool confident = options_.estimator->confident();
  const std::chrono::milliseconds next =
      confident ? options_.estimator->deadline(options_.deadline)
                : options_.deadline;
  if (confident) {
    report_.learned_deadline_ms = static_cast<double>(next.count());
  }
  const double previous = static_cast<double>(armed_deadline_.count());
  const double current = static_cast<double>(next.count());
  const bool edge = confident != armed_learned_;
  const bool moved = confident && !edge && previous > 0.0 &&
                     std::abs(current - previous) > 0.10 * previous;
  if (confident && (edge || moved)) {
    ++report_.deadline_adapts;
    const EstimatorSnapshot snap = options_.estimator->stats();
    emit({SupervisionEvent::Kind::kDeadlineAdapt, 0, 0,
          FailureClass::kTransient, current,
          "adaptive deadline now " + std::to_string(next.count()) + "ms (q" +
              std::to_string(options_.estimator->options().quantile) +
              " x safety " +
              std::to_string(options_.estimator->options().safety_factor) +
              ", " + std::to_string(snap.samples) + " samples)"});
  }
  armed_deadline_ = next;
  armed_learned_ = confident;
}

SupervisorReport SupervisionPolicy::finish() {
  if (!states_.empty()) {
    for (const ReplicaState& state : states_) {
      if (state.phase == Phase::kDone) {
        ++report_.succeeded;
      } else if (state.phase == Phase::kUnfinished) {
        ++report_.unfinished;
      }
    }
    std::sort(report_.quarantined.begin(), report_.quarantined.end(),
              [](const QuarantineRecord& a, const QuarantineRecord& b) {
                return a.replica < b.replica;
              });
    report_.cancelled =
        options_.cancel != nullptr && options_.cancel->requested();
  }
  return std::move(report_);
}

}  // namespace divlib
