#include "engine/campaign.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "io/atomic_file.hpp"
#include "io/journal.hpp"
#include "temp_path.hpp"

namespace divlib {
namespace {

namespace fs = std::filesystem;

// A task whose payload depends on the replica's RNG stream: any seeding
// mistake (batch-index instead of true-id seeds) shows up as a payload
// mismatch, not just a count mismatch.
std::optional<std::string> rng_payload_task(std::size_t replica, Rng& rng,
                                            const CancelToken&) {
  return "r" + std::to_string(replica) + ":" + std::to_string(rng.next());
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_dir("divlib_campaign_test");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CampaignOptions options(bool resume = false) const {
    CampaignOptions opts;
    opts.directory = dir_.string();
    opts.resume = resume;
    opts.meta = "test-campaign 1\nk=3 seed=42\n";
    return opts;
  }

  static SupervisorOptions supervision() {
    SupervisorOptions sup;
    sup.master_seed = 42;
    sup.num_threads = 2;
    return sup;
  }

  SupervisedCampaignResult run(std::size_t replicas,
                               const SupervisedTask& task,
                               const CampaignOptions& opts) const {
    return run_supervised_campaign(replicas, task, opts, supervision());
  }

  std::string journal_path() const {
    return (dir_ / "results.journal").string();
  }

  fs::path dir_;
};

TEST_F(CampaignTest, FreshCampaignJournalsEveryReplica) {
  const SupervisedCampaignResult result =
      run(8, rng_payload_task, options());
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.status, CampaignStatus::kComplete);
  EXPECT_EQ(result.ran, 8u);
  EXPECT_EQ(result.resumed, 0u);
  ASSERT_EQ(result.payloads.size(), 8u);
  for (std::size_t r = 0; r < 8; ++r) {
    ASSERT_TRUE(result.payloads[r].has_value()) << "replica " << r;
  }
  const JournalRecovery recovery = read_journal(journal_path());
  EXPECT_FALSE(recovery.torn());
  EXPECT_EQ(recovery.records.size(), 8u);
  // The meta fingerprint was persisted alongside.
  EXPECT_EQ(read_file((dir_ / "campaign.meta").string()), options().meta);
}

TEST_F(CampaignTest, ResumeOfFinishedCampaignRunsNothing) {
  const SupervisedCampaignResult first = run(8, rng_payload_task, options());
  const SupervisedCampaignResult second =
      run(8, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.resumed, 8u);
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.payloads, first.payloads);
}

TEST_F(CampaignTest, PartialResumeMergesBitIdenticallyWithUninterruptedRun) {
  // Baseline: an uninterrupted campaign in a sibling directory.
  const fs::path baseline_dir = dir_.string() + "_baseline";
  fs::remove_all(baseline_dir);
  CampaignOptions baseline_opts = options();
  baseline_opts.directory = baseline_dir.string();
  const SupervisedCampaignResult baseline =
      run(10, rng_payload_task, baseline_opts);
  ASSERT_TRUE(baseline.complete());

  // Simulate a crash that persisted only the even replicas: hand-write the
  // meta and a journal containing their records.
  fs::create_directories(dir_);
  atomic_write_file((dir_ / "campaign.meta").string(), options().meta);
  {
    JournalWriter writer(journal_path());
    for (std::size_t r = 0; r < 10; r += 2) {
      writer.append(encode_campaign_record(r, *baseline.payloads[r]));
    }
  }

  const SupervisedCampaignResult resumed =
      run(10, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(resumed.ran, 5u);  // only the odd replicas re-ran
  // The merged payloads are bit-identical to the uninterrupted run, which
  // requires the re-run replicas to be seeded from their TRUE ids.
  EXPECT_EQ(resumed.payloads, baseline.payloads);
  fs::remove_all(baseline_dir);
}

TEST_F(CampaignTest, TornJournalTailIsRecoveredOnResume) {
  const SupervisedCampaignResult first = run(6, rng_payload_task, options());
  ASSERT_TRUE(first.complete());
  // Tear the last record mid-frame, as a crash between write() calls would.
  const auto size = fs::file_size(journal_path());
  fs::resize_file(journal_path(), size - 3);

  const SupervisedCampaignResult resumed =
      run(6, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 5u);  // the torn record was dropped...
  EXPECT_EQ(resumed.ran, 1u);      // ...and its replica re-ran
  EXPECT_EQ(resumed.payloads, first.payloads);
  EXPECT_FALSE(read_journal(journal_path()).torn());
}

TEST_F(CampaignTest, ExistingJournalWithoutResumeFlagThrows) {
  run(2, rng_payload_task, options());
  EXPECT_THROW(run(2, rng_payload_task, options(/*resume=*/false)),
               std::runtime_error);
}

TEST_F(CampaignTest, MetaMismatchOnResumeThrows) {
  run(2, rng_payload_task, options());
  CampaignOptions changed = options(/*resume=*/true);
  changed.meta = "test-campaign 1\nk=4 seed=42\n";
  EXPECT_THROW(run(2, rng_payload_task, changed), std::runtime_error);
}

TEST_F(CampaignTest, PresetCancelJournalsNothingAndResumeFinishes) {
  CancelToken token;
  token.request();
  SupervisorOptions cancelled_sup = supervision();
  cancelled_sup.cancel = &token;
  const SupervisedCampaignResult cancelled = run_supervised_campaign(
      5, rng_payload_task, options(), cancelled_sup);
  EXPECT_EQ(cancelled.status, CampaignStatus::kCancelled);
  EXPECT_FALSE(cancelled.complete());
  EXPECT_EQ(cancelled.ran, 0u);
  EXPECT_EQ(read_journal(journal_path()).records.size(), 0u);

  const SupervisedCampaignResult resumed =
      run(5, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.ran, 5u);
}

// Regression for the fires-after-last-claim race: a token that fires while
// the FINAL replica is in flight leaves the batch complete.  The report
// still records that the token fired, but the campaign is finished --
// there is nothing to resume -- so its status must not be kCancelled
// (documented as "resume to finish the rest").
TEST_F(CampaignTest, CancelDuringFinalReplicaLeavesCampaignComplete) {
  CancelToken token;
  SupervisorOptions sup = supervision();
  sup.cancel = &token;
  sup.num_threads = 1;  // sequential claims: replica 4 is the last
  const SupervisedTask task = [&](std::size_t replica, Rng& rng,
                                  const CancelToken& lease)
      -> std::optional<std::string> {
    if (replica == 4) {
      token.request();  // fires after the last slot was claimed
    }
    return rng_payload_task(replica, rng, lease);
  };
  const SupervisedCampaignResult result =
      run_supervised_campaign(5, task, options(), sup);
  EXPECT_TRUE(result.report.cancelled);  // the token DID fire
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.ran, 5u);
  EXPECT_EQ(result.status, CampaignStatus::kComplete);  // nothing to resume
  EXPECT_EQ(read_journal(journal_path()).records.size(), 5u);
}

// The campaign beats an attached heartbeat at every journal flush, so the
// telemetry stream is always at least as fresh as the last durable replica.
TEST_F(CampaignTest, HeartbeatBeatsOnEveryJournalFlush) {
  BatchProgress progress;
  std::vector<HeartbeatRecord> records;
  std::mutex records_mutex;
  Heartbeat heartbeat(
      progress,
      [&](const HeartbeatRecord& record) {
        const std::lock_guard<std::mutex> lock(records_mutex);
        records.push_back(record);
      },
      std::chrono::milliseconds(0));  // manual beats only
  CampaignOptions opts = options();
  opts.flush_every = 2;
  opts.heartbeat = &heartbeat;
  SupervisorOptions sup = supervision();
  sup.progress = &progress;
  const SupervisedCampaignResult result =
      run_supervised_campaign(4, rng_payload_task, opts, sup);
  heartbeat.stop();
  ASSERT_TRUE(result.complete());
  // 4 records with flush_every=2: in-loop flushes after records 2 and 4,
  // plus the unconditional end-of-batch flush, then stop()'s final.
  std::size_t flush_beats = 0;
  for (const HeartbeatRecord& record : records) {
    if (record.reason == "flush") {
      ++flush_beats;
    }
  }
  EXPECT_EQ(flush_beats, 3u);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().reason, "final");
  EXPECT_EQ(records.back().total, 4u);
  EXPECT_EQ(records.back().done, 4u);
  // The campaign seeded the progress totals before any replica ran.
  EXPECT_EQ(progress.total.load(), 4u);
  EXPECT_EQ(progress.completed.load(), 4u);
}

TEST_F(CampaignTest, NulloptTaskResultsAreNotJournaled) {
  // A task that declines replica 3 (the drain convention).
  const SupervisedTask task = [](std::size_t replica, Rng& rng,
                                 const CancelToken& lease)
      -> std::optional<std::string> {
    if (replica == 3) {
      return std::nullopt;
    }
    return rng_payload_task(replica, rng, lease);
  };
  const SupervisedCampaignResult result = run(5, task, options());
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.ran, 4u);
  EXPECT_FALSE(result.payloads[3].has_value());
  EXPECT_EQ(read_journal(journal_path()).records.size(), 4u);

  const SupervisedCampaignResult resumed =
      run(5, rng_payload_task, options(/*resume=*/true));
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 4u);
  EXPECT_EQ(resumed.ran, 1u);
}

// A replica that fails every attempt gets no payload record: it is
// quarantined instead, and the journal says so.
TEST_F(CampaignTest, PersistentlyFailingReplicaIsReportedNotJournaled) {
  const SupervisedTask task = [](std::size_t replica, Rng& rng,
                                 const CancelToken& lease)
      -> std::optional<std::string> {
    if (replica == 1) {
      throw std::runtime_error("injected fault");
    }
    return rng_payload_task(replica, rng, lease);
  };
  const SupervisedCampaignResult result = run(4, task, options());
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.status, CampaignStatus::kFailed);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].replica, 1u);
  EXPECT_EQ(result.quarantined[0].message, "injected fault");
  EXPECT_FALSE(result.payloads[1].has_value());
  const JournalRecovery recovery = read_journal(journal_path());
  ASSERT_EQ(recovery.records.size(), 4u);
  std::size_t quarantine_records = 0;
  for (const std::string& record : recovery.records) {
    quarantine_records += is_quarantine_record(record) ? 1 : 0;
  }
  EXPECT_EQ(quarantine_records, 1u);
}

TEST(CampaignRecord, EncodeDecodeRoundTrips) {
  const std::string record = encode_campaign_record(42, "completed 17 3 -");
  EXPECT_EQ(record, "42 completed 17 3 -");
  const auto [replica, payload] = decode_campaign_record(record);
  EXPECT_EQ(replica, 42u);
  EXPECT_EQ(payload, "completed 17 3 -");
  // Payloads may themselves contain spaces and be empty.
  EXPECT_EQ(decode_campaign_record(encode_campaign_record(0, "")).second, "");
}

TEST(CampaignRecord, MalformedRecordsThrow) {
  EXPECT_THROW(decode_campaign_record(""), std::invalid_argument);
  EXPECT_THROW(decode_campaign_record("notanumber x"), std::invalid_argument);
  EXPECT_THROW(decode_campaign_record("12"), std::invalid_argument);
}

}  // namespace
}  // namespace divlib
