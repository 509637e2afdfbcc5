#include "engine/supervision_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "engine/adaptive/estimator.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"

namespace divlib {
namespace {

using Clock = SupervisionPolicy::Clock;
using Phase = SupervisionPolicy::Phase;
using std::chrono::milliseconds;

// Fixed case count: every run checks the same schedules.
constexpr int kCases = 300;
constexpr int kMaxSteps = 20000;

std::string describe(const SupervisorReport& report) {
  std::string out = "replicas=" + std::to_string(report.replicas) +
                    " succeeded=" + std::to_string(report.succeeded) +
                    " unfinished=" + std::to_string(report.unfinished) +
                    " retries=" + std::to_string(report.retries) +
                    " fail_fasts=" + std::to_string(report.fail_fasts) +
                    " deadline_kills=" + std::to_string(report.deadline_kills) +
                    " spec=" + std::to_string(report.speculative_launches) +
                    "/" + std::to_string(report.speculative_wins) +
                    " adapts=" + std::to_string(report.deadline_adapts) +
                    " breaker=" + std::to_string(report.breaker_opens) + "/" +
                    std::to_string(report.breaker_closes) +
                    " learned=" + std::to_string(report.learned_deadline_ms) +
                    " backoff=" + std::to_string(report.backoff_wait_ms) +
                    " cancelled=" + std::to_string(report.cancelled);
  for (const QuarantineRecord& record : report.quarantined) {
    out += " q(" + std::to_string(record.replica) + "," +
           std::to_string(record.attempts) + "," + to_string(record.failure) +
           "," + record.message + ")";
  }
  return out;
}

// One attempt instance the simulated executor holds in flight.
struct Instance {
  std::size_t slot = 0;
  unsigned attempt = 0;
  bool speculative = false;
  Clock::time_point started;
  bool superseded = false;  // its twin won; it may still report
};

// Everything a drive observed, for the property checks.
struct Outcome {
  std::string transcript;  // every event's JSON, then the report
  SupervisorReport report;
  std::vector<std::size_t> ids;
  std::vector<unsigned> base;
  unsigned budget = 1;
  std::vector<SupervisionPolicy::ReplicaState> states;
  std::vector<int> successes;  // on_success calls per slot
  std::vector<std::vector<unsigned>> claimed;  // primary attempts per slot
  std::vector<SupervisionEvent> events;
  bool drained = false;  // the loop ended with every replica terminal
};

// A single-threaded executor fed by `seed`: random replica sets, budgets,
// poison-seed bases, breaker and learned-deadline settings, a random
// in-flight width, speculative twins, and a random verdict per step on a
// random clock -- including an operator cancel at a random step.  It obeys
// the executor contract: a failure or drain verdict waits while a twin of
// the same slot is still live, and a win supersedes the twin -- which may
// still report a payload or a failure before it notices.
Outcome drive(std::uint64_t seed) {
  Rng rng(seed);
  Outcome out;
  const std::size_t n = 1 + rng.uniform_below(10);
  for (std::size_t slot = 0; slot < n; ++slot) {
    out.ids.push_back(5 + 3 * slot);  // ids differ from slots on purpose
    out.base.push_back(rng.uniform_below(3) == 0
                           ? static_cast<unsigned>(rng.uniform_below(4))
                           : 0u);
  }
  SupervisorOptions options;
  options.master_seed = rng.next();
  options.max_attempts = static_cast<unsigned>(rng.uniform_below(5));
  out.budget = std::max(1u, options.max_attempts);
  options.backoff_base = milliseconds(rng.uniform_below(40));
  options.backoff_cap = milliseconds(rng.uniform_below(300));
  options.deadline = milliseconds(rng.uniform_below(2) * 50);
  options.first_attempt = [&out](std::size_t id) {
    return out.base[(id - 5) / 3];
  };
  options.breaker_enabled = rng.uniform_below(2) == 1;
  options.breaker.failure_threshold = 1 + rng.uniform_below(3);
  options.breaker.window = milliseconds(20 + rng.uniform_below(200));
  options.breaker.cooldown = milliseconds(10 + rng.uniform_below(100));
  EstimatorOptions estimator_options;
  estimator_options.min_samples = 1 + rng.uniform_below(4);
  CompletionEstimator estimator(estimator_options);
  if (rng.uniform_below(2) == 1) {
    options.estimator = &estimator;
    options.deadline_auto = rng.uniform_below(2) == 1;
  }
  CancelToken cancel;
  options.cancel = &cancel;
  const int cancel_at = rng.uniform_below(4) == 0
                            ? static_cast<int>(rng.uniform_below(40))
                            : -1;
  options.on_event = [&out](const SupervisionEvent& event) {
    out.transcript += event.to_json() + "\n";
    out.events.push_back(event);
  };
  out.successes.assign(n, 0);
  out.claimed.assign(n, {});
  const std::function<void(std::size_t, std::string&&)> on_success =
      [&out](std::size_t id, std::string&&) { ++out.successes[(id - 5) / 3]; };

  auto now = Clock::time_point{} + std::chrono::hours(1);
  if (cancel_at == 0) {
    cancel.request(CancelReason::kUser);
  }
  SupervisionPolicy policy(out.ids, on_success, options);
  std::vector<Instance> live;
  std::vector<bool> twinned(n, false);
  if (policy.start(now)) {
    for (int step = 1; step < kMaxSteps; ++step) {
      if (policy.finished() && live.empty()) {
        break;
      }
      now += milliseconds(rng.uniform_below(25));
      if (step == cancel_at) {
        cancel.request(CancelReason::kUser);
        policy.cancel();
      }
      policy.tick(now);
      // Claim ready work up to this step's width.
      const std::size_t width = 1 + rng.uniform_below(4);
      while (live.size() < width) {
        const SupervisionPolicy::WorkItem* top = policy.peek();
        if (top == nullptr || top->ready_at > now) {
          break;
        }
        const SupervisionPolicy::WorkItem item = policy.claim();
        if (!item.speculative) {
          twinned[item.slot] = false;
          out.claimed[item.slot].push_back(item.attempt);
        }
        live.push_back({item.slot, item.attempt, item.speculative, now});
      }
      if (live.empty()) {
        // Idle: sleep to the earliest backoff, like the thread executor.
        const SupervisionPolicy::WorkItem* top = policy.peek();
        if (top == nullptr) {
          break;  // wedged: nothing queued, nothing running
        }
        now = std::max(now, top->ready_at);
        continue;
      }
      // Sometimes a straggler draws a twin.
      const Instance& pick = live[rng.uniform_below(live.size())];
      if (rng.uniform_below(5) == 0 && !pick.speculative &&
          !twinned[pick.slot] && policy.running(pick.slot, pick.attempt)) {
        twinned[pick.slot] = true;
        policy.launch_twin(pick.slot, pick.attempt, now, "straggler");
      }
      // One verdict for a random in-flight instance.
      const std::size_t index = rng.uniform_below(live.size());
      const Instance done = live[index];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      const bool twin_live =
          std::any_of(live.begin(), live.end(), [&](const Instance& other) {
            return other.slot == done.slot;
          });
      const double seconds =
          std::chrono::duration<double>(now - done.started).count() + 0.001;
      const std::string where = std::to_string(done.attempt);
      if (done.superseded) {
        if (rng.uniform_below(2) == 0) {
          EXPECT_FALSE(policy.succeed(done.slot, done.attempt, seconds, now,
                                      done.speculative, "late " + where));
        } else if (!twin_live) {
          policy.fail(done.slot, done.attempt, FailureClass::kTransient,
                      "late " + where, now);
        }
        continue;
      }
      switch (rng.uniform_below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          if (policy.succeed(done.slot, done.attempt, seconds, now,
                             done.speculative, "payload " + where)) {
            for (Instance& other : live) {
              other.superseded = other.superseded || other.slot == done.slot;
            }
          }
          break;
        case 4:
        case 5:
        case 6:
        case 7: {
          const FailureClass failure =
              static_cast<FailureClass>(rng.uniform_below(3));
          if (!twin_live) {
            policy.fail(done.slot, done.attempt, failure, "boom " + where,
                        now);
          }
          break;
        }
        case 8:
          if (policy.armed_deadline().count() > 0) {
            std::string detail = policy.deadline_kill(done.slot, done.attempt);
            if (!twin_live) {
              policy.fail(done.slot, done.attempt, FailureClass::kTransient,
                          std::move(detail), now);
            }
          } else if (!twin_live) {
            policy.fail(done.slot, done.attempt, FailureClass::kResource,
                        "io " + where, now);
          }
          break;
        default:
          if (!twin_live) {
            policy.drain(done.slot, done.attempt);
          }
          break;
      }
    }
  }
  out.drained = policy.finished() && live.empty();
  for (std::size_t slot = 0; slot < n; ++slot) {
    out.states.push_back(policy.state(slot));
  }
  out.report = policy.finish();
  out.transcript += describe(out.report);
  return out;
}

// Every replica ends in exactly one terminal state, and the report's
// counts partition the set.
TEST(SupervisionPolicyPropertyTest, EveryReplicaEndsInExactlyOneTerminalState) {
  for (int c = 0; c < kCases; ++c) {
    const Outcome out = drive(0x5e1ec7ULL + static_cast<std::uint64_t>(c));
    ASSERT_TRUE(out.drained) << "case " << c;
    EXPECT_EQ(out.report.succeeded + out.report.quarantined.size() +
                  out.report.unfinished,
              out.report.replicas)
        << "case " << c;
    for (std::size_t slot = 0; slot < out.ids.size(); ++slot) {
      const Phase phase = out.states[slot].phase;
      const auto quarantines = std::count_if(
          out.report.quarantined.begin(), out.report.quarantined.end(),
          [&](const QuarantineRecord& r) { return r.replica == out.ids[slot]; });
      EXPECT_EQ(out.successes[slot], phase == Phase::kDone ? 1 : 0)
          << "case " << c << " slot " << slot;
      EXPECT_EQ(quarantines, phase == Phase::kQuarantined ? 1 : 0)
          << "case " << c << " slot " << slot;
      EXPECT_TRUE(phase == Phase::kDone || phase == Phase::kQuarantined ||
                  phase == Phase::kUnfinished)
          << "case " << c << " slot " << slot;
    }
  }
}

// Attempts consumed never exceed the budget, counted from the replica's
// own base, and every attempt that ran used a seed inside that window.
TEST(SupervisionPolicyPropertyTest, AttemptsStayInsideTheBudget) {
  for (int c = 0; c < kCases; ++c) {
    const Outcome out = drive(0xb0d9e7ULL + static_cast<std::uint64_t>(c));
    ASSERT_TRUE(out.drained) << "case " << c;
    for (std::size_t slot = 0; slot < out.ids.size(); ++slot) {
      const SupervisionPolicy::ReplicaState& state = out.states[slot];
      EXPECT_LE(state.consumed, out.budget) << "case " << c;
      EXPECT_LE(out.claimed[slot].size(), out.budget) << "case " << c;
      for (const unsigned attempt : out.claimed[slot]) {
        EXPECT_GE(attempt, out.base[slot]) << "case " << c;
        EXPECT_LT(attempt, out.base[slot] + out.budget) << "case " << c;
      }
    }
    for (const SupervisionEvent& event : out.events) {
      if (event.kind == SupervisionEvent::Kind::kRetry) {
        const unsigned base = out.base[(event.replica - 5) / 3];
        EXPECT_LT(event.attempt, base + out.budget) << "case " << c;
      }
    }
  }
}

// A replica is quarantined only after its whole budget failed or on a
// deterministic failure, which is reported as a fail-fast first.
TEST(SupervisionPolicyPropertyTest, QuarantineOnlyAfterBudgetOrDeterministic) {
  std::size_t budget_quarantines = 0;
  std::size_t fail_fast_quarantines = 0;
  for (int c = 0; c < kCases; ++c) {
    const Outcome out = drive(0x9a7a1eULL + static_cast<std::uint64_t>(c));
    ASSERT_TRUE(out.drained) << "case " << c;
    for (const QuarantineRecord& record : out.report.quarantined) {
      const std::size_t slot = (record.replica - 5) / 3;
      if (record.failure == FailureClass::kDeterministic) {
        ++fail_fast_quarantines;
        const bool reported = std::any_of(
            out.events.begin(), out.events.end(),
            [&](const SupervisionEvent& e) {
              return e.kind == SupervisionEvent::Kind::kFailFast &&
                     e.replica == record.replica;
            });
        EXPECT_TRUE(reported) << "case " << c;
      } else {
        ++budget_quarantines;
        EXPECT_EQ(record.attempts, out.base[slot] + out.budget)
            << "case " << c << " replica " << record.replica;
      }
      EXPECT_EQ(record.attempts,
                out.base[slot] + out.states[slot].consumed)
          << "case " << c;
    }
  }
  // The schedules reach both paths.
  EXPECT_GT(budget_quarantines, 0u);
  EXPECT_GT(fail_fast_quarantines, 0u);
}

// The same input sequence gives a byte-identical event stream and report.
TEST(SupervisionPolicyPropertyTest, SameInputsGiveByteIdenticalTranscripts) {
  SupervisorReport total;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t seed = 0xde7e4ULL + static_cast<std::uint64_t>(c);
    const Outcome first = drive(seed);
    const Outcome second = drive(seed);
    ASSERT_EQ(first.transcript, second.transcript) << "case " << c;
    total.succeeded += first.report.succeeded;
    total.unfinished += first.report.unfinished;
    total.speculative_wins += first.report.speculative_wins;
    total.deadline_kills += first.report.deadline_kills;
    total.deadline_adapts += first.report.deadline_adapts;
    total.breaker_closes += first.report.breaker_closes;
  }
  // The schedules reach every kind of decision the transcript records.
  EXPECT_GT(total.succeeded, 0u);
  EXPECT_GT(total.unfinished, 0u);
  EXPECT_GT(total.speculative_wins, 0u);
  EXPECT_GT(total.deadline_kills, 0u);
  EXPECT_GT(total.deadline_adapts, 0u);
  EXPECT_GT(total.breaker_closes, 0u);
}

TEST(SupervisionPolicyTest, EmptySetAndPresetCancelStartNothing) {
  SupervisorOptions options;
  const std::function<void(std::size_t, std::string&&)> sink =
      [](std::size_t, std::string&&) { FAIL() << "nothing may succeed"; };
  SupervisionPolicy empty({}, sink, options);
  EXPECT_FALSE(empty.start(Clock::now()));
  EXPECT_EQ(describe(empty.finish()), describe(SupervisorReport{}));

  CancelToken cancel;
  cancel.request(CancelReason::kUser);
  options.cancel = &cancel;
  const std::vector<std::size_t> ids{3, 1, 2};
  SupervisionPolicy cancelled(ids, sink, options);
  EXPECT_FALSE(cancelled.start(Clock::now()));
  const SupervisorReport report = cancelled.finish();
  EXPECT_EQ(report.replicas, 3u);
  EXPECT_EQ(report.unfinished, 3u);
  EXPECT_TRUE(report.cancelled);
}

// Only the fleet caps width, so only its breaker events may claim a cap.
TEST(SupervisionPolicyTest, BreakerDetailsClaimAWidthCapOnlyWithANote) {
  SupervisorOptions options;
  options.backoff_base = milliseconds(0);
  options.max_attempts = 10;
  options.breaker_enabled = true;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown = milliseconds(10);
  std::vector<std::string> details;
  options.on_event = [&details](const SupervisionEvent& event) {
    if (event.kind == SupervisionEvent::Kind::kBreakerOpen ||
        event.kind == SupervisionEvent::Kind::kBreakerClose) {
      details.push_back(event.detail);
    }
  };
  const std::function<void(std::size_t, std::string&&)> sink =
      [](std::size_t, std::string&&) {};
  const std::vector<std::size_t> ids{0};
  for (const bool fleet : {false, true}) {
    details.clear();
    SupervisionPolicy policy(ids, sink, options);
    if (fleet) {
      policy.set_breaker_note([](BreakerState to) {
        return to == BreakerState::kOpen ? std::string("pool 2 of 4")
                                         : std::string("pool regrowing");
      });
    }
    auto now = Clock::time_point{} + std::chrono::hours(1);
    ASSERT_TRUE(policy.start(now));
    SupervisionPolicy::WorkItem item = policy.claim();
    policy.fail(item.slot, item.attempt, FailureClass::kTransient, "x", now);
    now += milliseconds(20);
    policy.tick(now);  // Open -> HalfOpen
    item = policy.claim();
    policy.succeed(item.slot, item.attempt, 0.1, now, false, "ok");
    ASSERT_EQ(details.size(), 2u);
    if (fleet) {
      EXPECT_NE(details[0].find("backoff x"), std::string::npos);
      EXPECT_NE(details[0].find(", pool 2 of 4"), std::string::npos);
      EXPECT_EQ(details[1], "quiet period: pool regrowing");
    } else {
      EXPECT_NE(
          details[0].find("width cap applies only under --isolation process"),
          std::string::npos);
      EXPECT_EQ(details[1], "quiet period: normal backoff restored");
    }
  }
}

// fleet_* counters exist only where workers do.
TEST(SupervisionPolicyTest, WorkerCountersRegisterOnlyUnderProcessIsolation) {
  const std::function<void(std::size_t, std::string&&)> sink =
      [](std::size_t, std::string&&) {};
  for (const Isolation isolation : {Isolation::kThread, Isolation::kProcess}) {
    MetricsRegistry registry;
    SupervisorOptions options;
    options.metrics = &registry;
    options.isolation = isolation;
    SupervisionPolicy policy({}, sink, options);
    std::vector<std::string> names;
    for (const InstrumentSnapshot& snap : registry.snapshot()) {
      names.push_back(snap.name);
    }
    const bool fleet_listed =
        std::find(names.begin(), names.end(), "fleet_worker_spawns") !=
        names.end();
    EXPECT_EQ(fleet_listed, isolation == Isolation::kProcess);
    EXPECT_EQ(names.front(), "supervisor_retries");
    EXPECT_EQ(names.back(), "supervisor_breaker_closes");
  }
}

}  // namespace
}  // namespace divlib
