// Durable, resumable Monte-Carlo campaigns.
//
// A campaign is a replicated experiment whose per-replica results are
// journaled to disk as they complete, so hours of finished work survive a
// SIGKILL, OOM kill, or machine preemption.  Layout of a checkpoint
// directory:
//
//   <dir>/campaign.meta     -- caller-supplied configuration fingerprint,
//                              written atomically before the first record;
//                              resume refuses a mismatching config.
//   <dir>/results.journal   -- append-only CRC-framed log (io/journal.*);
//                              one record per finished replica:
//                              "<replica-id> <payload>".
//
// A restart with resume = true recovers the journal (truncating a torn
// tail), loads the finished replicas, and re-runs ONLY the missing ones.
// Because every replica is seeded from its true id via
// Rng::retry_seed(master_seed, replica, attempt), the merged results are
// bit-identical to an uninterrupted run -- interruption is invisible in the
// data.
//
// Campaigns run under the policy layer from engine/supervisor.hpp
// (run_supervised_campaign): poison replicas that exhaust their attempt
// budget are written as quarantine records ("quarantine <id> <class>
// <attempts> <message>") so a resume SKIPS them instead of re-poisoning the
// run, and the campaign completes in a graded CampaignStatus -- kDegraded
// when the success quorum holds, kFailed when it does not.  Cancellation
// composes: when SupervisorOptions::cancel fires, queued replicas stay
// unclaimed and in-flight ones drain on their lease tokens; a drained
// replica whose task returns nullopt is NOT journaled and re-runs on resume.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/montecarlo.hpp"
#include "engine/supervisor.hpp"

namespace divlib {

struct CampaignOptions {
  // Checkpoint directory; created (recursively) when missing.
  std::string directory;
  // Journal flush + fsync cadence in records; 1 = every record is crash-safe
  // the moment it lands, larger values trade at most that many replicas of
  // lost work for fewer fsyncs.
  std::uint64_t flush_every = 1;
  // false: the directory must not already hold a journal (guards against
  // silently mixing two campaigns); true: load it and skip finished work.
  bool resume = false;
  // Configuration fingerprint (graph spec, k, seed, ...).  Stored on first
  // run; a resume whose meta differs throws -- resuming under a different
  // configuration would corrupt the merged results.
  std::string meta;
  // Unused: no library code reads it.  Seeds, threads, cancellation and
  // progress come from the SupervisorOptions passed alongside.
  MonteCarloOptions mc;
  // Optional heartbeat: the campaign beats it with reason "flush" after
  // every journal flush (including the final one), so the telemetry stream
  // always carries a progress record at least as fresh as the last durable
  // replica.
  Heartbeat* heartbeat = nullptr;
  // Resumes only: re-admit journal-quarantined replicas with the
  // poison-seed dodge -- each re-admitted replica starts at the attempt
  // index AFTER the ones its quarantine record consumed, so the retry runs
  // on fresh Rng::retry_seed streams instead of replaying the seeds that
  // already failed deterministically.  A replica that fails again is
  // re-quarantined with an updated (cumulative) attempt count.
  bool retry_quarantined = false;
};

// Journal payload helpers shared by the driver and tools: records are
// "<replica-id> <payload-bytes>" with the id in decimal.
std::string encode_campaign_record(std::size_t replica,
                                   std::string_view payload);
// Throws std::invalid_argument on a malformed record.
std::pair<std::size_t, std::string> decode_campaign_record(
    std::string_view record);

// How a supervised campaign ended.
enum class CampaignStatus {
  kComplete,   // every replica has a journaled payload
  kDegraded,   // quarantines exist but success_fraction meets the quorum
  kFailed,     // quarantines pushed success below min_success_fraction
  kCancelled,  // operator cancel left resumable (non-quarantined) work
};

const char* to_string(CampaignStatus status);

// Quarantine journal records.  They share the results.journal framing but
// carry a non-numeric "quarantine" prefix, so a payload reader fails
// loudly (decode_campaign_record throws) instead of misreading one.
std::string encode_quarantine_record(const QuarantineRecord& record);
bool is_quarantine_record(std::string_view record);
// Throws std::invalid_argument on a malformed record.
QuarantineRecord decode_quarantine_record(std::string_view record);

// Supervision-decision records ("supervision <event-json>").  A supervised
// campaign journals its deadline kills, adaptive-deadline changes, and
// circuit-breaker trips next to the results they shaped, so `divsim journal
// --json` can explain every kill after the fact.  The payload is the
// event's to_json() verbatim.  Like quarantine records, the non-numeric
// prefix makes a payload reader fail loudly.
std::string encode_supervision_record(const SupervisionEvent& event);
bool is_supervision_record(std::string_view record);
// Returns the event JSON carried by the record (no re-parse; emitters embed
// it verbatim).  Throws std::invalid_argument on a missing prefix.
std::string_view decode_supervision_record(std::string_view record);

struct SupervisedCampaignResult {
  // One slot per replica: the journaled payload, or nullopt when the replica
  // is quarantined, unfinished, or cancelled.
  std::vector<std::optional<std::string>> payloads;
  std::size_t resumed = 0;  // payload records loaded from the journal
  std::size_t ran = 0;      // replicas executed and journaled this session
  // Quarantined replicas -- journaled in earlier sessions plus this one --
  // sorted by replica id.  A resume never re-runs these.
  std::vector<QuarantineRecord> quarantined;
  CampaignStatus status = CampaignStatus::kComplete;
  SupervisorReport report;  // THIS session's supervision summary
  bool complete() const { return resumed + ran == payloads.size(); }
};

// Runs the replicas missing from the journal (skipping quarantined ids)
// under run_supervised_set, journaling each winning payload.  Seeds, thread
// count, cancellation, and progress come from `supervision`; when
// supervision.progress is set, its `total` and `resumed` counters are
// seeded before any replica runs.  Quarantine records are flushed to the
// journal the moment they happen, so even a SIGKILLed degraded campaign
// resumes without re-running its poison replicas.  Throws
// std::runtime_error on directory/journal failures, an existing journal
// without options.resume, or a meta mismatch.
SupervisedCampaignResult run_supervised_campaign(
    std::size_t replicas, const SupervisedTask& task,
    const CampaignOptions& options, const SupervisorOptions& supervision);

}  // namespace divlib
