// The supervision policy both executors share.
//
// run_supervised_set has two executors: a thread pool (engine/supervisor)
// and a forked worker fleet (engine/fleet).  They differ in HOW an attempt
// runs and how a verdict comes back, never in what the verdict means.  This
// class is that meaning: per-replica budget accounting, the ready heap with
// its jittered backoff, fail-fast and quarantine, the circuit breaker's
// publication and backoff widening, the learned-deadline re-arm, the cancel
// drain, success accounting, and the final report.  Every SupervisionEvent
// a policy decision produces is emitted here, with its counter.
//
// Like CircuitBreaker and LivenessTracker, the class is pure: timestamps
// and verdicts go in, decisions come out, and nothing sleeps or spawns.  It
// is not thread-safe -- the thread executor calls it under its own lock, the
// fleet from its single monitor loop.  That is also what makes it
// property-testable without threads (tests/test_supervision_policy.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "engine/adaptive/breaker.hpp"
#include "engine/supervisor.hpp"

namespace divlib {

class SupervisionPolicy {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Phase { kQueued, kRunning, kDone, kQuarantined, kUnfinished };

  struct ReplicaState {
    std::size_t id = 0;
    Phase phase = Phase::kQueued;
    unsigned base_attempt = 0;     // first seed index (poison-seed dodge)
    unsigned next_attempt = 0;     // next fresh seed index to schedule
    unsigned current_attempt = 0;  // seed index of the in-flight instance
    unsigned consumed = 0;         // attempt instances that reached a failure
  };

  // One schedulable attempt instance: a primary, or a speculative twin of
  // the running instance on the same seed.
  struct WorkItem {
    Clock::time_point ready_at;
    std::size_t slot = 0;
    unsigned attempt = 0;
    bool speculative = false;
  };

  // `slot` indexes replica_ids; events and the report use the ids.
  // on_success must outlive the policy.
  SupervisionPolicy(
      std::span<const std::size_t> replica_ids,
      const std::function<void(std::size_t, std::string&&)>& on_success,
      const SupervisorOptions& options);

  // Start-up.  False when there is nothing to execute: an empty set, or a
  // cancel that fired before the call (every replica is then unfinished,
  // none started).  Otherwise arms the breaker and the fixed deadline and
  // queues each replica's first attempt (options.first_attempt) at `now`.
  bool start(Clock::time_point now);

  // The earliest queued item, after dropping stale ones (a twin whose
  // instance already moved on); nullptr when nothing is queued.
  const WorkItem* peek();
  // Pops peek()'s item.  A primary moves its replica to kRunning.
  WorkItem claim();
  bool queue_empty() const { return queue_.empty(); }

  // Queues a twin of the running (slot, attempt) instance and reports the
  // launch.
  void launch_twin(std::size_t slot, unsigned attempt, Clock::time_point now,
                   std::string detail);

  // Verdicts for (slot, attempt).  Each ignores a stale instance -- one that
  // is no longer the replica's running attempt.  succeed() returns whether
  // the payload won; it then reaches on_success exactly once per replica.
  bool succeed(std::size_t slot, unsigned attempt, double seconds,
               Clock::time_point now, bool speculative, std::string&& payload);
  // Consumes one unit of budget, then retries after backoff, fails fast
  // (deterministic), or quarantines (budget spent).  While cancelling, the
  // replica ends unfinished instead.
  void fail(std::size_t slot, unsigned attempt, FailureClass failure,
            std::string message, Clock::time_point now);
  // Reports a deadline kill and returns its detail, which the executor
  // passes on to fail() as a transient failure.  `suffix` adds executor
  // context (which worker died).
  std::string deadline_kill(std::size_t slot, unsigned attempt,
                            const std::string& suffix = {});
  // An operator drain (or a task that declined): the replica ends
  // unfinished and re-runs on resume.
  void drain(std::size_t slot, unsigned attempt);

  // Operator cancel, once: queued work becomes unfinished and no failure is
  // retried from here on.
  void cancel();
  bool cancelling() const { return cancelling_; }
  // Clock edge: breaker cooldown and learned-deadline re-arm.
  void tick(Clock::time_point now);

  std::chrono::milliseconds armed_deadline() const { return armed_deadline_; }
  const std::optional<CircuitBreaker>& breaker() const { return breaker_; }
  // Appended to breaker-open/-close details; the fleet reports its pool
  // size here.  Unset, the details say the width cap does not apply.
  void set_breaker_note(std::function<std::string(BreakerState)> note) {
    breaker_note_ = std::move(note);
  }

  const ReplicaState& state(std::size_t slot) const { return states_[slot]; }
  bool running(std::size_t slot, unsigned attempt) const;
  std::size_t replicas() const { return states_.size(); }
  std::size_t remaining() const { return states_.size() - terminal_; }
  bool finished() const { return terminal_ == states_.size(); }

  // Counts the event's counter and hands it to options.on_event.
  void emit(const SupervisionEvent& event);
  // Executor-owned fields (worker_*, batch_*) are bumped through this.
  SupervisorReport& report() { return report_; }
  // Fills succeeded/unfinished/cancelled and sorts the quarantine list.
  SupervisorReport finish();

 private:
  struct ReadyLater {
    bool operator()(const WorkItem& a, const WorkItem& b) const {
      // Min-heap on ready_at; ties go to the lowest slot, so a fresh set
      // is claimed in replica order and a cancel leaves a prefix done.
      if (a.ready_at != b.ready_at) {
        return a.ready_at > b.ready_at;
      }
      return a.slot > b.slot;
    }
  };

  void settle(ReplicaState& state, Phase phase);
  void quarantine(ReplicaState& state, FailureClass failure,
                  std::string message);
  void publish_breaker(const std::vector<BreakerTransition>& moved);
  void rearm_deadline();

  const std::function<void(std::size_t, std::string&&)>& on_success_;
  const SupervisorOptions& options_;
  std::vector<ReplicaState> states_;
  std::priority_queue<WorkItem, std::vector<WorkItem>, ReadyLater> queue_;
  std::size_t terminal_ = 0;  // replicas in kDone/kQuarantined/kUnfinished
  bool cancelling_ = false;
  // Effective per-attempt deadline: options.deadline until the estimator's
  // confidence gate opens, the learned quantile x safety after.
  std::chrono::milliseconds armed_deadline_{0};
  bool armed_learned_ = false;
  std::optional<CircuitBreaker> breaker_;
  std::function<std::string(BreakerState)> breaker_note_;
  Counter* counters_[SupervisionEvent::kNumKinds] = {};
  SupervisorReport report_;
};

}  // namespace divlib
