"""End-to-end runs: the shipped divsim binary, untraced, one invocation at a
time from this single client process.

Each returns (metrics, samples, tally): metric name -> value, metric name
-> sample count behind it, and the stats.Tally of attempts and failures.
"""

import json
import math
import os
import re
import shutil
import time

import proc
import stats

SUMMARY = re.compile(
    r"^completed (\d+)/(\d+) replicas(.*?); E\[steps\] = ([0-9.]+) ")


def parse_run(stdout):
    """The result summary of `divsim run`: completed, requested, capped-or-
    faulted note, mean scheduled steps, winners -- and the summary lines
    verbatim, which must repeat exactly for a repeated seed."""
    lines = [line for line in stdout.splitlines()
             if line.startswith(("completed ", "jump engine:", "winners:"))]
    match = next(filter(None, map(SUMMARY.match, lines)), None)
    if match is None:
        return None
    winners = {}
    for line in lines:
        if line.startswith("winners:"):
            for value, count in re.findall(r"(-?\d+) x(\d+)", line):
                winners[int(value)] = int(count)
    return {
        "completed": int(match.group(1)),
        "requested": int(match.group(2)),
        "note": match.group(3).strip(),
        "mean_steps": float(match.group(4)),
        "winners": winners,
        "summary": "\n".join(lines),
    }


# Set-up samples are taken in a short slot before every measured invocation
# (on the queue workload, before every fifth campaign), not all up front: the
# host's speed drifts over seconds, and interleaved samples see the same
# stretch of it as the measured work.
SETUP_SLOT_S = 0.1

# Every run workload makes at least this many invocations; the slowest of
# the first this many stands in for campaign_p90_s.
MIN_INVOCATIONS = 4


def repeat_until(seconds, minimum, body, maximum=10_000):
    start = time.perf_counter()
    count = 0
    while count < minimum or (time.perf_counter() - start < seconds
                              and count < maximum):
        body(count)
        count += 1


def run_argv(w, divsim, threads, seed, replicas):
    argv = [divsim, "run", "--graph", w["spec"], "--k", str(w["k"]),
            "--scheme", w["scheme"], "--engine", w["engine"],
            "--stop", w["stop"], "--threads", str(threads),
            "--replicas", str(replicas), "--seed", str(seed)]
    if "max_steps" in w:
        argv += ["--max-steps", str(w["max_steps"])]
    return argv


def run_workload(w, divsim, threads, seed, seconds, scratch):
    # Invocations alternate between two divsim seeds derived from the
    # workload seed, each run at least twice: the median then averages two
    # draws of the random work (which varies most on cycle-jump), and every
    # seed's summary can be compared across its repetitions.
    seeds = (2 * seed, 2 * seed + 1)
    tally = stats.Tally()

    # Set-up: process start, spec parse and graph build.
    setups = []

    def setup(_):
        setups.append(proc.run(run_argv(w, divsim, threads, seeds[0], 0),
                               scratch))

    children, results = [], []

    def invoke(n):
        repeat_until(SETUP_SLOT_S, 1, setup, maximum=10)
        child = proc.run(run_argv(w, divsim, threads, seeds[n % 2],
                                  w["replicas"]), scratch)
        children.append(child)
        results.append(parse_run(child.stdout))

    repeat_until(seconds, MIN_INVOCATIONS, invoke)
    for child in setups:
        tally.check(child.code == 0, "setup exited %d" % child.code)

    steps_rate, replica_rate = [], []
    for n, (child, result) in enumerate(zip(children, results)):
        ok = tally.check(child.code == 0 and result is not None,
                         "divsim run exited %d: %s"
                         % (child.code, child.stderr.strip()[-200:]))
        if not ok:
            tally.replicas(w["replicas"], 0)
            continue
        tally.replicas(w["replicas"], result["completed"])
        tally.check(result["requested"] == w["replicas"] and
                    result["note"] == "",
                    "replicas capped or faulted: %s" % result["note"])
        first = results[n % 2]
        tally.check(first is not None and
                    result["summary"] == first["summary"],
                    "seed %d summary differs between repetitions"
                    % seeds[n % 2])
        # Under --stop two-adjacent, `completed` already means the range
        # collapsed to two adjacent values before the cap.
        if w["stop"] == "consensus":
            tally.check(sum(result["winners"].values()) ==
                        result["completed"] and
                        all(1 <= v <= w["k"] for v in result["winners"]),
                        "winners outside [1, k] or missing: %s"
                        % result["winners"])
        steps = result["mean_steps"] * result["completed"]
        steps_rate.append(steps / child.wall_s)
        replica_rate.append(result["completed"] / child.wall_s)

    walls = [child.wall_s for child in children]
    metrics = {
        "wall_s": stats.median(walls),
        "replica_steps_per_s": stats.median(steps_rate or [0.0]),
        "replicas_per_s": stats.median(replica_rate or [0.0]),
        "campaign_p50_s": stats.median(walls),
        "campaign_p90_s": max(walls[:MIN_INVOCATIONS]),
        "setup_s": stats.median([child.wall_s for child in setups]),
        "cpu_s": stats.median([child.cpu_s for child in children]),
        "peak_rss_mb": max(child.maxrss_mb for child in children + setups),
    }
    samples = {name: len(children) for name in metrics}
    samples["campaign_p90_s"] = MIN_INVOCATIONS
    samples["setup_s"] = len(setups)
    samples["peak_rss_mb"] = len(children) + len(setups)
    samples["raw"] = {"wall_s": walls,
                      "setup_s": [child.wall_s for child in setups]}
    return metrics, samples, tally


def campaign_replicas(divsim, campaign_dir, scratch):
    child = proc.run([divsim, "journal", "--dir", campaign_dir, "--json"],
                     scratch)
    if child.code != 0:
        return None
    return json.loads(child.stdout)["replicas"]


def queue_workload(w, divsim, threads, seed, seconds, scratch):
    tally = stats.Tally()
    campaigns = w["campaigns"]

    def submit_argv(qdir, i, r):
        # Round r's pair ceil(i/2) shares one seed; rounds draw fresh seeds
        # so the median over rounds averages the random work.
        pair_seed = (seed * 1000 + r) * 100 + math.ceil(i / 2)
        argv = [divsim, "queue", "submit", "--dir", qdir,
                "--graph=" + w["spec"], "--k=%d" % w["k"],
                "--replicas=%d" % w["replicas"], "--stop=" + w["stop"],
                "--seed=%d" % pair_seed]
        if i % 2 == 1:
            return argv + ["--threads=%d" % threads]
        return argv + ["--isolation=process", "--workers=%d" % threads]

    # Set-up: the first submit into an empty queue directory.
    setups = []

    def setup(_):
        qdir = os.path.join(scratch, "setup")
        shutil.rmtree(qdir, ignore_errors=True)
        setups.append(proc.run(submit_argv(qdir, 1, 0), scratch))
        tally.check(setups[-1].code == 0, "setup submit failed")
        shutil.rmtree(qdir, ignore_errors=True)

    latencies, rounds = [], []

    def one_round(r):
        qdir = os.path.join(scratch, "queue")
        shutil.rmtree(qdir, ignore_errors=True)
        children, campaign_s = [], []
        start = time.perf_counter()
        setup_s = 0.0
        for i in range(1, campaigns + 1):
            if i % 5 == 1:
                # Set-up samples are spread over the round, as the run
                # workloads' are over the run, and left out of its wall.
                slot_start = time.perf_counter()
                setup(i)
                setup_s += time.perf_counter() - slot_start
            submit_start = time.perf_counter()
            submitted = proc.run(submit_argv(qdir, i, r), scratch)
            ran = proc.run([divsim, "queue", "run", "--dir", qdir,
                            "--max-campaigns", "1", "--no-wait"], scratch)
            campaign_s.append(time.perf_counter() - submit_start)
            children += [submitted, ran]
            complete = (submitted.code == 0 and ran.code == 0 and
                        "1 complete" in ran.stdout)
            tally.campaign(complete)
        wall = time.perf_counter() - start - setup_s

        # Output checks, outside the timed loop.
        journals = [campaign_replicas(
            divsim, os.path.join(qdir, "campaigns", str(i)), scratch)
            for i in range(1, campaigns + 1)]
        steps = completed = 0
        for replicas in journals:
            done = [r for r in replicas or []
                    if r["payload"].startswith("completed ")]
            tally.replicas(w["replicas"], len(done))
            completed += len(done)
            steps += sum(int(r["payload"].split()[1]) for r in done)
        for i in range(0, campaigns - 1, 2):
            tally.check(journals[i] is not None and
                        journals[i] == journals[i + 1],
                        "round %d: thread and process journals of campaigns "
                        "%d/%d differ" % (r, i + 1, i + 2))
        latencies.extend(campaign_s)
        rounds.append({
            "wall": wall, "steps": steps, "completed": completed,
            "cpu": sum(child.cpu_s for child in children),
            "rss": max(child.maxrss_mb for child in children),
        })

    # At least two rounds, so that the percentiles pool >= 2C = 100
    # campaigns and 10 lie beyond the p90.
    repeat_until(seconds, 2, one_round)
    p90, beyond = stats.tail_percentile(latencies, 0.9)
    metrics = {
        "wall_s": stats.median([r["wall"] for r in rounds]),
        "replica_steps_per_s": stats.median(
            [r["steps"] / r["wall"] for r in rounds]),
        "replicas_per_s": stats.median(
            [r["completed"] / r["wall"] for r in rounds]),
        "campaign_p50_s": stats.median(latencies),
        "campaign_p90_s": p90,
        "setup_s": stats.median([child.wall_s for child in setups]),
        "cpu_s": stats.median([r["cpu"] for r in rounds]),
        "peak_rss_mb": max([r["rss"] for r in rounds] +
                           [child.maxrss_mb for child in setups]),
    }
    samples = {name: len(rounds) for name in metrics}
    samples["campaign_p50_s"] = len(latencies)
    samples["campaign_p90_s"] = "%d, %d beyond" % (len(latencies), beyond)
    samples["setup_s"] = len(setups)
    samples["raw"] = {"campaign_s": latencies,
                      "wall_s": [r["wall"] for r in rounds],
                      "setup_s": [child.wall_s for child in setups]}
    return metrics, samples, tally
