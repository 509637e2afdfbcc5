#include "engine/supervisor.hpp"

#include <algorithm>
#include <condition_variable>
#include <list>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "engine/fleet.hpp"
#include "engine/supervision_policy.hpp"
#include "obs/jsonl.hpp"

namespace divlib {

const char* to_string(FailureClass failure) {
  switch (failure) {
    case FailureClass::kTransient:
      return "transient";
    case FailureClass::kResource:
      return "resource";
    case FailureClass::kDeterministic:
      return "deterministic";
  }
  return "unknown";
}

FailureClass parse_failure_class(std::string_view name) {
  for (const FailureClass failure :
       {FailureClass::kTransient, FailureClass::kResource,
        FailureClass::kDeterministic}) {
    if (name == to_string(failure)) {
      return failure;
    }
  }
  throw std::invalid_argument("unknown failure class '" + std::string(name) +
                              "'");
}

FailureClass classify_failure(const std::exception& error) {
  // Order matters only for documentation: the three bases are disjoint.
  // system_error subsumes std::ios_base::failure (C++11 and later), so all
  // I/O failures land in kResource without naming iostreams here.
  if (dynamic_cast<const std::bad_alloc*>(&error) != nullptr ||
      dynamic_cast<const std::system_error*>(&error) != nullptr) {
    return FailureClass::kResource;
  }
  if (dynamic_cast<const std::logic_error*>(&error) != nullptr) {
    return FailureClass::kDeterministic;
  }
  return FailureClass::kTransient;
}

const char* to_string(Isolation isolation) {
  switch (isolation) {
    case Isolation::kThread:
      return "thread";
    case Isolation::kProcess:
      return "process";
  }
  return "unknown";
}

Isolation parse_isolation(std::string_view name) {
  for (const Isolation isolation : {Isolation::kThread, Isolation::kProcess}) {
    if (name == to_string(isolation)) {
      return isolation;
    }
  }
  throw std::invalid_argument("unknown isolation mode '" + std::string(name) +
                              "' (expected 'thread' or 'process')");
}

const char* to_string(SupervisionEvent::Kind kind) {
  switch (kind) {
    case SupervisionEvent::Kind::kRetry:
      return "retry";
    case SupervisionEvent::Kind::kFailFast:
      return "fail-fast";
    case SupervisionEvent::Kind::kDeadlineKill:
      return "deadline-kill";
    case SupervisionEvent::Kind::kSpeculativeLaunch:
      return "speculative-launch";
    case SupervisionEvent::Kind::kSpeculativeWin:
      return "speculative-win";
    case SupervisionEvent::Kind::kQuarantine:
      return "quarantine";
    case SupervisionEvent::Kind::kWorkerSpawn:
      return "worker-spawn";
    case SupervisionEvent::Kind::kWorkerAlive:
      return "worker-alive";
    case SupervisionEvent::Kind::kWorkerSuspect:
      return "worker-suspect";
    case SupervisionEvent::Kind::kWorkerDead:
      return "worker-dead";
    case SupervisionEvent::Kind::kWorkerDismiss:
      return "worker-dismiss";
    case SupervisionEvent::Kind::kDeadlineAdapt:
      return "deadline-adapt";
    case SupervisionEvent::Kind::kBreakerOpen:
      return "breaker-open";
    case SupervisionEvent::Kind::kBreakerClose:
      return "breaker-close";
  }
  return "unknown";
}

std::string SupervisionEvent::to_json() const {
  JsonObject object;
  object.field("kind", to_string(kind))
      .field("replica", static_cast<std::uint64_t>(replica))
      .field("attempt", static_cast<std::uint64_t>(attempt))
      .field("failure", to_string(failure))
      .field("backoff_ms", backoff_ms)
      .field("detail", detail);
  if (worker >= 0) {
    object.field("worker", static_cast<std::uint64_t>(worker));
  }
  return object.str();
}

namespace {

using Clock = std::chrono::steady_clock;

// Monitor poll cadence: bounds the deadline-kill and cancel-propagation
// latency.  5ms is invisible next to a replica run but keeps the idle scan
// (a walk over the in-flight list) essentially free.
constexpr std::chrono::milliseconds kMonitorPoll{5};

// One in-flight execution of (slot, attempt).  At most two exist per slot:
// the primary and a speculative duplicate on the same seed.  Lives in a
// std::list so the token's address stays stable while the task polls it
// without the lock.  The engines poll that token every iteration, so the
// record gets a cache line of its own: unaligned, the line also held small
// chunks that glibc's per-thread cache hands across threads, another
// worker's hot data landed there, and the poll paid a coherence miss per
// iteration (a 512-replica cycle-jump run took ~9% more CPU; with the
// tcache disabled the unaligned build was as fast as the aligned one).
struct alignas(64) Execution {
  std::size_t slot = 0;
  unsigned attempt = 0;
  bool speculative = false;
  CancelToken token;
  Clock::time_point started;
};

// The thread executor: a worker pool runs attempts, the calling thread is
// the monitor, and every decision goes through the policy under mu_.
class SupervisorRun {
 public:
  SupervisorRun(SupervisionPolicy& policy, const SupervisedTask& task,
                const SupervisorOptions& options)
      : policy_(policy),
        task_(task),
        options_(options),
        twin_launched_(policy.replicas(), false) {
    if (options_.metrics != nullptr) {
      batch_groups_counter_ =
          &options_.metrics->counter("supervisor_batch_groups");
      batched_attempts_counter_ =
          &options_.metrics->counter("supervisor_batched_attempts");
    }
  }

  void run() {
    if (!policy_.start(Clock::now())) {
      return;
    }
    unsigned workers = options_.num_threads;
    if (workers == 0) {
      const unsigned hardware = std::thread::hardware_concurrency();
      workers = hardware > 0 ? hardware : 1;
    }
    workers = static_cast<unsigned>(
        std::min<std::size_t>(workers, policy_.replicas()));
    // Workers execute attempts; the calling thread is the monitor (deadline
    // arming, straggler checks, cancel propagation) until the batch drains.
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      pool.emplace_back([this] { worker_loop(); });
    }
    monitor_loop();
    for (std::thread& thread : pool) {
      thread.join();
    }
  }

 private:
  // A live duplicate on the same seed defers a failure or drain verdict to
  // the survivor, so the shared attempt is never consumed twice.
  bool other_execution_live_locked(std::size_t slot) const {
    for (const Execution& execution : live_) {
      if (execution.slot == slot) {
        return true;
      }
    }
    return false;
  }

  void supersede_twin_locked(std::size_t slot, unsigned attempt) {
    for (Execution& execution : live_) {
      if (execution.slot == slot && execution.attempt == attempt) {
        execution.token.request(CancelReason::kSuperseded);
      }
    }
  }

  std::list<Execution>::iterator start_execution_locked(
      const SupervisionPolicy::WorkItem& item, Clock::time_point now) {
    if (!item.speculative) {
      twin_launched_[item.slot] = false;
    }
    const auto execution = live_.emplace(live_.end());
    execution->slot = item.slot;
    execution->attempt = item.attempt;
    execution->speculative = item.speculative;
    execution->started = now;
    return execution;
  }

  void handle_verdict_locked(std::list<Execution>::iterator execution,
                             std::optional<std::string> payload, bool threw,
                             FailureClass failure, std::string message) {
    const std::size_t slot = execution->slot;
    const unsigned attempt = execution->attempt;
    const bool speculative = execution->speculative;
    const CancelReason reason = execution->token.reason();
    const auto now = Clock::now();
    const double seconds =
        std::chrono::duration<double>(now - execution->started).count();
    live_.erase(execution);

    if (payload.has_value()) {
      if (policy_.succeed(slot, attempt, seconds, now, speculative,
                          std::move(*payload))) {
        durations_.insert(
            std::upper_bound(durations_.begin(), durations_.end(), seconds),
            seconds);
        supersede_twin_locked(slot, attempt);
      }
      return;
    }
    // nullopt: the attempt drained on its token (or declined on its own).
    const bool killed = !threw && reason == CancelReason::kDeadline;
    if (!threw && reason == CancelReason::kSuperseded) {
      return;  // the twin won; this result is unwanted by construction
    }
    if (killed) {
      message = policy_.deadline_kill(slot, attempt);
      failure = FailureClass::kTransient;
    }
    if (other_execution_live_locked(slot)) {
      return;
    }
    if (threw || killed) {
      policy_.fail(slot, attempt, failure, std::move(message), now);
    } else {
      // Operator cancel (or a task-level drain): unfinished, never retried.
      policy_.drain(slot, attempt);
    }
  }

  // Runs one claimed attempt (or lock-step group) outside the lock and
  // hands each verdict back to the policy.
  void execute_locked(std::unique_lock<std::mutex>& lock,
                      std::vector<std::list<Execution>::iterator>& group) {
    std::vector<std::optional<std::string>> verdicts;
    bool threw = false;
    FailureClass failure = FailureClass::kTransient;
    std::string message;
    std::vector<BatchLane> lanes(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      lanes[i].replica = policy_.state(group[i]->slot).id;
      lanes[i].seed = Rng::retry_seed(options_.master_seed, lanes[i].replica,
                                      group[i]->attempt);
      lanes[i].cancel = &group[i]->token;
    }
    lock.unlock();
    try {
      if (group.size() == 1) {
        Rng rng(lanes[0].seed);
        verdicts.push_back(task_(lanes[0].replica, rng, group[0]->token));
      } else {
        verdicts = options_.batch_task(lanes);
        if (verdicts.size() != lanes.size()) {
          threw = true;
          failure = FailureClass::kDeterministic;
          message = "batch_task returned " + std::to_string(verdicts.size()) +
                    " verdicts for " + std::to_string(lanes.size()) +
                    " lanes";
        }
      }
    } catch (const std::exception& error) {
      threw = true;
      message = error.what();
      failure =
          options_.classify ? options_.classify(error) : classify_failure(error);
    } catch (...) {
      threw = true;
      message = "unknown exception";
    }
    if (threw) {
      verdicts.clear();
    }
    verdicts.resize(group.size());
    lock.lock();
    // A thrown exception fails every lane of a group with one shared
    // classification: the lanes shared the execution that died.
    for (std::size_t i = 0; i < group.size(); ++i) {
      handle_verdict_locked(group[i], std::move(verdicts[i]), threw, failure,
                            message);
    }
    work_cv_.notify_all();
    monitor_cv_.notify_one();
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      const SupervisionPolicy::WorkItem* top = policy_.peek();
      if (top == nullptr) {
        if (policy_.finished()) {
          return;
        }
        work_cv_.wait(lock);
        continue;
      }
      const auto now = Clock::now();
      if (top->ready_at > now) {
        // Backoff without blocking a replica's worth of work would need a
        // timer wheel; with replica-scale queue depths, sleeping on the
        // earliest ready_at is equivalent and simpler.  Any earlier enqueue
        // notifies and re-sorts under us.
        work_cv_.wait_until(lock, top->ready_at);
        continue;
      }
      const SupervisionPolicy::WorkItem item = policy_.claim();
      std::vector<std::list<Execution>::iterator> group{
          start_execution_locked(item, now)};

      // Lock-step batching: a non-speculative claim greedily absorbs up to
      // batch_lanes - 1 more ready non-speculative queued items into one
      // group for options_.batch_task.  The scan stops at the first
      // ineligible queue top (future ready_at or a speculative twin) --
      // peeking deeper would perturb the heap for nothing, and stragglers
      // simply form smaller groups.  A slot can appear at most once per
      // group: claiming flips it to kRunning, and peek() drops a second
      // queued primary for a running slot.
      if (!item.speculative && options_.batch_lanes > 1 &&
          options_.batch_task) {
        while (group.size() < options_.batch_lanes) {
          const SupervisionPolicy::WorkItem* mate = policy_.peek();
          if (mate == nullptr || mate->speculative || mate->ready_at > now) {
            break;
          }
          group.push_back(start_execution_locked(policy_.claim(), now));
        }
      }
      if (group.size() > 1) {
        SupervisorReport& report = policy_.report();
        ++report.batch_groups;
        report.batched_attempts += group.size();
        if (batch_groups_counter_ != nullptr) {
          batch_groups_counter_->add();
          batched_attempts_counter_->add(
              static_cast<std::uint64_t>(group.size()));
        }
      }
      execute_locked(lock, group);
    }
  }

  // Launches speculative twins for attempts past the straggler threshold.
  void speculate_locked(Clock::time_point now) {
    // Predictive speculation once the estimator is confident: an attempt
    // already past the learned quantile is in the worst (1-P) tail, so its
    // projected finish exceeds what the distribution promises -- speculate
    // NOW instead of waiting for factor x median of this run's own
    // (possibly sparse) durations.  Reactive median is the fallback.
    double threshold = 0.0;
    bool predictive = false;
    if (options_.estimator != nullptr && options_.estimator->confident()) {
      threshold = options_.estimator->quantile_seconds();
      predictive = threshold > 0.0;
    }
    if (!predictive) {
      if (durations_.size() <
          std::max<std::size_t>(1, options_.straggler_warmup)) {
        return;
      }
      threshold = options_.straggler_factor * durations_[durations_.size() / 2];
    }
    if (threshold <= 0.0) {
      return;
    }
    for (Execution& execution : live_) {
      if (execution.speculative || twin_launched_[execution.slot] ||
          !policy_.running(execution.slot, execution.attempt) ||
          execution.token.requested()) {
        continue;
      }
      const double elapsed =
          std::chrono::duration<double>(now - execution.started).count();
      if (elapsed > threshold) {
        twin_launched_[execution.slot] = true;
        policy_.launch_twin(
            execution.slot, execution.attempt, now,
            predictive
                ? "projected finish past learned q" +
                      std::to_string(options_.estimator->options().quantile) +
                      " (" + std::to_string(threshold) + "s)"
                : "elapsed exceeds " +
                      std::to_string(options_.straggler_factor) + "x median");
        work_cv_.notify_all();
      }
    }
  }

  void monitor_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!policy_.finished() || !live_.empty() || !policy_.queue_empty()) {
      const auto now = Clock::now();
      if (!policy_.cancelling() && options_.cancel != nullptr &&
          options_.cancel->requested()) {
        policy_.cancel();
        for (Execution& execution : live_) {
          execution.token.request(CancelReason::kUser);
        }
        work_cv_.notify_all();
      }
      policy_.tick(now);
      const std::chrono::milliseconds deadline = policy_.armed_deadline();
      if (deadline.count() > 0) {
        for (Execution& execution : live_) {
          if (!execution.token.requested() &&
              now - execution.started >= deadline) {
            execution.token.request(CancelReason::kDeadline);
          }
        }
      }
      if (options_.straggler_factor > 0.0) {
        speculate_locked(now);
      }
      monitor_cv_.wait_for(lock, kMonitorPoll);
    }
    work_cv_.notify_all();
  }

  SupervisionPolicy& policy_;
  const SupervisedTask& task_;
  const SupervisorOptions& options_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable monitor_cv_;
  std::list<Execution> live_;
  std::vector<bool> twin_launched_;  // per slot: current instance has a twin
  std::vector<double> durations_;  // successful attempt durations, sorted
  Counter* batch_groups_counter_ = nullptr;
  Counter* batched_attempts_counter_ = nullptr;
};

}  // namespace

SupervisorReport run_supervised_set(
    std::span<const std::size_t> replica_ids, const SupervisedTask& task,
    const std::function<void(std::size_t, std::string&&)>& on_success,
    const SupervisorOptions& options) {
  // Same bound divsim enforces on --batch-lanes: a zero or absurd lane
  // count is a caller bug, not a tunable.
  if (options.batch_lanes == 0 || options.batch_lanes > kMaxBatchLanes) {
    throw std::invalid_argument(
        "run_supervised_set: batch_lanes must be in [1, " +
        std::to_string(kMaxBatchLanes) + "], got " +
        std::to_string(options.batch_lanes));
  }
  SupervisionPolicy policy(replica_ids, on_success, options);
  if (options.isolation == Isolation::kProcess) {
    execute_on_fleet(policy, task, options);
  } else {
    SupervisorRun(policy, task, options).run();
  }
  return policy.finish();
}

}  // namespace divlib
