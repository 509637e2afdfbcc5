// Process-isolated worker fleet: the crash barrier under Isolation::kProcess.
//
// The thread executor (engine/supervisor) retries exceptions, but a
// replica that SIGSEGVs, smashes its stack, or aborts takes the whole
// campaign with it -- no C++ mechanism catches a fatal signal usefully.  The
// fleet moves each attempt behind a process boundary: the parent forks one
// worker per pool slot and speaks a length-prefixed, CRC-framed pipe
// protocol (io/wire) to it,
//
//   parent -> worker : "work <replica> <attempt>" | "quit"
//   worker -> parent : "beat"
//                    | "ok <replica> <attempt> <payload bytes...>"
//                    | "err <replica> <attempt> <class> <message...>"
//                    | "drain <replica> <attempt> <reason>"
//
// so a dying worker costs exactly its in-flight attempt.  Workers emit
// heartbeats on the obs/Heartbeat cadence; the parent folds beats, frames,
// timer ticks, and waitpid into a per-worker LivenessTracker
// (Unknown -> Alive -> Suspect -> Dead) and publishes every transition as a
// SupervisionEvent plus a fleet_* counter.
//
// Every policy decision -- budget, backoff, quarantine, breaker, deadline
// re-arm -- belongs to engine/supervision_policy; this file executes them.
// Crash reclassification bridges process death into its failure taxonomy:
// a first worker death on a replica is kTransient (re-queued through the
// usual jittered backoff on a fresh retry_seed stream); the Nth death on the
// SAME replica (FleetOptions::max_worker_deaths_per_replica) is
// kDeterministic -- a reproducible crash -- and quarantines the replica.  A
// replacement worker is forked whenever live workers undershoot the
// remaining work.
//
// Deadlines are cooperative-then-forceful: the parent SIGUSR1s the worker
// (its handler fires the attempt's CancelToken with kDeadline, draining at a
// step boundary); a worker that keeps beating but never drains is SIGKILLed
// after a dead_after grace.  Operator cancel is SIGTERM (kUser), leaving
// replicas unfinished for resume, exactly like thread mode.
//
// Determinism: attempts run the same (master_seed, replica, attempt) streams
// as thread mode, so healthy replicas produce bit-identical payload bytes
// under either isolation.  Straggler speculation is a thread-mode policy and
// is ignored here -- the deadline + liveness machinery covers hung workers.
#pragma once

#include "engine/supervision_policy.hpp"

namespace divlib {

// The process executor behind run_supervised_set under Isolation::kProcess:
// drives `policy` (not yet started) until every replica is terminal, with
// the same report shape as thread mode plus the worker_* fleet fields.  The
// calling thread becomes the fleet monitor; worker processes never return
// from this call (they _exit).
void execute_on_fleet(SupervisionPolicy& policy, const SupervisedTask& task,
                      const SupervisorOptions& options);

}  // namespace divlib
