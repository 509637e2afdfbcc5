"""What the benchmark runs and what its metrics mean, keyed by name.

BENCHMARK.json at the repo root holds the workload names and reasons and
each metric's unit, direction and bound; run.py reads them from there.
This file holds only what the JSON has no room for: each workload's
command and sizes, each end-to-end metric's definition, and for each layer
metric where it is measured and which end-to-end metric and workload it
should move.
"""

# Threads or fleet workers of every divsim invocation: min(4, nproc).
MAX_THREADS = 4

# In the commands, T is the thread count and s the workload seed (--seed of
# run.py); run workloads alternate divsim seeds 2s and 2s+1.

WORKLOADS = {
    "expander-reduce": {
        "kind": "run",
        "command": "divsim run --graph regular:131072:16 --k 8 --scheme edge "
                   "--engine step --stop two-adjacent --replicas 64 "
                   "--threads T --seed 2s|2s+1",
        "spec": "regular:131072:16", "k": 8, "scheme": "edge",
        "engine": "step", "stop": "two-adjacent", "replicas": 64,
        # Traced-run sizes: campaigns of 4 replicas keep the supervisor and
        # pipeline sections near one second on this graph.
        "trace_campaigns": 2, "trace_campaign_replicas": 4,
    },
    "cycle-jump": {
        "kind": "run",
        "command": "divsim run --graph cycle:1024 --k 4 --scheme vertex "
                   "--engine jump --stop consensus --replicas 512 --threads T "
                   "--max-steps 100000000000 --seed 2s|2s+1",
        "spec": "cycle:1024", "k": 4, "scheme": "vertex", "engine": "jump",
        "stop": "consensus", "replicas": 512,
        # Run to consensus: the default watchdog (n^2 * 1000 = 8.6x the mean
        # consensus time) caps about one replica in a few thousand here.
        "max_steps": 100_000_000_000,
        "trace_campaigns": 2, "trace_campaign_replicas": 8,
    },
    "queue-campaigns": {
        "kind": "queue",
        "command": "closed loop, per campaign i of C=50: divsim queue submit "
                   "--dir Q --graph=regular:65536:8 --k=8 --replicas=4 "
                   "--stop=two-adjacent "
                   "--seed=(s*1000+r)*100+ceil(i/2) in round r (odd i "
                   "--threads=T, even i "
                   "--isolation=process --workers=T); divsim queue run --dir "
                   "Q --max-campaigns 1 --no-wait",
        "spec": "regular:65536:8", "k": 8, "scheme": "edge",
        "engine": "step",
        # Campaigns of ~250-350 ms (the host's speed drifts), one replica
        # per worker.  Next to the same `divsim run` outside the queue,
        # process start, queue mutations, supervision, fleet, fsyncs and the
        # lease poll add 10-40 ms (medians of ten alternating pairs).  Lighter campaigns were mostly that
        # path, and it is what a shared host disturbs: fsync latency on a
        # shared VM disk drifts 4x for minutes at a time (p50 100-470 us,
        # p90 to 2 ms) while CPU time holds, and the lease heartbeat's 20 ms
        # sleep step turns a few ms of drift into a whole step.  At ~30 ms
        # (complete:64) campaign p50 and p90 spread 16% and 58% (IQR /
        # median, ten seeds); at ~90 ms (regular:20480:8) wall_s, p50 and
        # p90 spread up to 36%, 29% and 44% between runs of one commit.
        # Here the ~20 fsyncs a campaign makes stay small beside its kernel
        # work even at 2 ms each, and one heartbeat step is 6% of a
        # campaign.  Four replicas, one per worker: each replica costs two
        # more fsyncs (results and calibration journals).
        "stop": "two-adjacent", "replicas": 4, "campaigns": 50,
        "trace_campaigns": 20, "trace_campaign_replicas": 4,
    },
}


# name -> definition.  Timing bounds in BENCHMARK.json sit at the 0.25
# maximum: on a shared 4-vCPU VM (~10% steal), expander-reduce's wall time
# spread 7-16% (IQR / median) over ten seeds whose work differs by ~2%, and
# its CPU time per unit of work moved as much -- host noise, which a
# tighter bound would report as regression.
END_TO_END = {
    "wall_s":
        "run workloads: median wall time of one `divsim run`; queue workload: "
        "median over rounds of first submit to last complete",
    "replica_steps_per_s":
        "scheduled steps summed over completed replicas / wall_s, median over "
        "invocations (rounds)",
    "replicas_per_s":
        "completed replicas / wall_s, median over invocations (rounds)",
    "campaign_p50_s":
        "queue workload: submit-to-complete time per campaign, median over "
        "every campaign of the run (>= 2 rounds of C = 50); run workloads, "
        "where one `divsim run` is one campaign: median invocation",
    "campaign_p90_s":
        "queue workload: nearest-rank p90 over every campaign of the run (>= "
        "100, so >= 10 samples beyond it); run workloads (too few invocations "
        "for a p90): the slowest of the first 4 invocations, a fixed count so "
        "the statistic does not depend on how many fit in --seconds",
    "setup_s":
        "run workloads: median of the same command with --replicas 0, "
        "sampled in a slot before every measured invocation; queue workload: "
        "median first submit into an empty directory, sampled before every "
        "fifth campaign and left out of the round's wall time",
    "cpu_s":
        "user + sys CPU of the children (wait4 rusage), median per invocation "
        "(round)",
    "peak_rss_mb":
        "maximum ru_maxrss over the children",
    "ok_share":
        "1 - error_rate: error_rate (failed / attempted, see stats.Tally) "
        "is 0 in a healthy run, and an end-to-end metric must never be 0",
}

# name -> (measured at, moves -> on)
PER_LAYER = {
    "divsim.exec_ms": (
        "`divsim queue status` on an empty directory, median of 21",
        "campaign_p50_s -> queue-campaigns"),
    "graph.build_s": (
        "make_graph_from_spec on the workload spec",
        "setup_s -> expander-reduce"),
    "graph.neighbor_pick_ns": (
        "Graph::neighbors + Rng::uniform_below at uniform random vertices",
        "replica_steps_per_s -> expander-reduce"),
    "rng.uniform_below_ns": (
        "Rng::uniform_below",
        "replica_steps_per_s -> expander-reduce"),
    "rng.geometric_ns": (
        "Rng::geometric(1/416)",
        "replica_steps_per_s -> cycle-jump"),
    "core.div_step_ns": (
        "DivProcess::step on a live state",
        "replica_steps_per_s -> expander-reduce"),
    "core.stop_probe_ns": (
        "OpinionState::is_two_adjacent / is_consensus on a live state",
        "replica_steps_per_s -> expander-reduce"),
    "core.tracker.sample_ns": (
        "DiscordanceTracker::sample_discordant_pair",
        "replica_steps_per_s -> cycle-jump"),
    "core.tracker.apply_move_ns": (
        "OpinionState::set + DiscordanceTracker::apply_move (a move loop "
        "minus its samples)",
        "replica_steps_per_s -> cycle-jump"),
    "core.tracker.rebuild_ms": (
        "DiscordanceTracker::rebuild_counts",
        "replica_steps_per_s -> cycle-jump"),
    "engine.run.steps_per_s": (
        "one replica through run() on one thread (cap 2^22 steps)",
        "replica_steps_per_s -> expander-reduce"),
    "engine.run_jump.effective_steps_per_s": (
        "run_jump() with a RunMetrics sink, 4 replicas",
        "replica_steps_per_s -> cycle-jump"),
    "engine.run_jump.effective_ratio": (
        "effective / scheduled steps in those runs",
        "replica_steps_per_s -> cycle-jump"),
    "engine.run_jump.mode_switches": (
        "JumpRunResult::mode_switches summed",
        "replica_steps_per_s -> cycle-jump"),
    "engine.run_jump.tracker_rebuilds": (
        "RunMetrics::tracker_rebuilds summed",
        "replica_steps_per_s -> cycle-jump"),
    "engine.run_jump.jump_wall_share": (
        "RunMetrics wall_seconds_jump / wall_seconds_total",
        "replica_steps_per_s -> cycle-jump"),
    "engine.run_batch1_over_run": (
        "ns/step of run_batch at 1 lane over run(), same seeds, bit-identical",
        "replica_steps_per_s -> expander-reduce"),
    "engine.run_batch16_per_lane_over_batch1": (
        "ns per lane-step of run_batch at 16 lanes over 1 lane",
        "replica_steps_per_s -> expander-reduce"),
    "engine.montecarlo.imbalance_s": (
        "run_replicas_isolated span minus (sum of replica spans / T)",
        "wall_s -> cycle-jump and expander-reduce"),
    "engine.supervisor.attempt_self_us": (
        "run_supervised_set, thread mode: span minus union of attempts, per "
        "attempt",
        "campaign_p50_s and ok_share -> queue-campaigns (odd)"),
    "engine.supervisor.attempts": (
        "attempt spans per run_supervised_set call",
        "campaign_p50_s -> queue-campaigns (odd)"),
    "engine.supervisor.retries": (
        "SupervisorReport::retries per call",
        "ok_share -> queue-campaigns"),
    "engine.fleet.attempt_self_us": (
        "the same call with Isolation::kProcess (worker spans merged from the "
        "fork)",
        "campaign_p50_s and campaign_p90_s -> queue-campaigns (even)"),
    "engine.fleet.spawns": (
        "SupervisorReport::worker_spawns per call",
        "campaign_p90_s -> queue-campaigns (even)"),
    "engine.campaign.replica_self_us": (
        "run_supervised_campaign span minus union of its attempts, per "
        "replica: its results and calibration journal appends (one fsync "
        "each per replica) and the estimator's work",
        "campaign_p50_s -> queue-campaigns"),
    "io.journal.append_fsync_p50_us": (
        "JournalWriter::append + flush with the workload's payloads",
        "campaign_p50_s -> queue-campaigns"),
    "io.journal.append_fsync_p90_us": (
        "p90 of the same",
        "campaign_p90_s -> queue-campaigns"),
    "io.journal.bytes_per_replica": (
        "results.journal size / replicas of a workload campaign",
        "campaign_p50_s -> queue-campaigns"),
    "io.atomic_write_us": (
        "atomic_write_file of campaign.meta",
        "campaign_p50_s -> queue-campaigns"),
    "io.wire.roundtrip_us": (
        "wire_write_frame + WireReader::pump/next over a pipe",
        "campaign_p50_s -> queue-campaigns (even)"),
    "queue.submit_ms": (
        "CampaignQueue::submit as the journal grows",
        "campaign_p90_s -> queue-campaigns"),
    "queue.lease_ms": (
        "CampaignQueue::lease_next",
        "campaign_p90_s -> queue-campaigns"),
    "queue.finish_ms": (
        "CampaignQueue::finish",
        "campaign_p90_s -> queue-campaigns"),
    "queue.replay_records": (
        "queue.journal records after the traced campaigns",
        "campaign_p90_s -> queue-campaigns"),
    "queue.coordinator_self_ms": (
        "run_coordinator span minus its campaign span, per campaign (includes "
        "the lease heartbeat's 20 ms sleep poll)",
        "campaign_p50_s -> queue-campaigns"),
    "trace.overhead_share": (
        "traced / untraced wall of the same in-process replay, minus 1",
        "(reported per workload)"),
}
