"""The traced run: per-layer metrics from layer_trace's spans.

layer_trace replays the workload's inputs through the library's public
functions and writes every span (id, parent, name, start, end, ops) it
recorded around a call into a layer.  This module turns them into the
per-layer metrics of BENCHMARK.json, defined in catalog.PER_LAYER.  Self
times use stats.self_time: a span minus the union of its children, which
on parallel threads overlap.
"""

import collections
import json
import os

import proc
import stats


class Spans:
    def __init__(self, rows):
        self.by_name = collections.defaultdict(list)
        self.children = collections.defaultdict(list)
        for span_id, parent, name, start, end, ops in rows:
            span = (span_id, start, end, ops)
            self.by_name[name].append(span)
            self.children[parent].append((start, end))

    def durations(self, name):
        return [end - start for _, start, end, _ in self.by_name[name]]

    def ns_per_op(self, name):
        """Median over the named spans of duration / ops."""
        spans = self.by_name[name]
        if not spans:
            raise KeyError("no %s spans" % name)
        return stats.median([(end - start) / ops
                             for _, start, end, ops in spans])

    def pooled_ns_per_op(self, name):
        spans = self.by_name[name]
        return (sum(end - start for _, start, end, _ in spans) /
                sum(ops for _, _, _, ops in spans))

    def self_times(self, name):
        """(self time, child count, ops) per named span."""
        return [(stats.self_time((start, end), self.children[span_id]),
                 len(self.children[span_id]), ops)
                for span_id, start, end, ops in self.by_name[name]]


def layer_metrics(doc, threads, exec_ms):
    spans = Spans(doc["spans"])
    counts = doc["counts"]
    ns = 1e-9

    def self_per_child(name):
        return stats.median([t / max(n, 1) for t, n, _ in
                             spans.self_times(name)]) * ns * 1e6

    driver = spans.by_name["engine.montecarlo"][-1]
    replica_total = sum(end - start for start, end in
                        spans.children[driver[0]])
    journal = spans.durations("io.journal.append_fsync")
    metrics = {
        "divsim.exec_ms": exec_ms,
        "graph.build_s": spans.durations("graph.build")[0] * ns,
        "graph.neighbor_pick_ns": spans.ns_per_op("graph.neighbor_pick"),
        "rng.uniform_below_ns": spans.ns_per_op("rng.uniform_below"),
        "rng.geometric_ns": spans.ns_per_op("rng.geometric"),
        "core.div_step_ns": spans.ns_per_op("core.div_step"),
        "core.stop_probe_ns": spans.ns_per_op("core.stop_probe"),
        "core.tracker.sample_ns": spans.pooled_ns_per_op(
            "core.tracker.sample"),
        "core.tracker.apply_move_ns":
            spans.pooled_ns_per_op("core.tracker.move") -
            spans.pooled_ns_per_op("core.tracker.sample"),
        "core.tracker.rebuild_ms":
            stats.median(spans.durations("core.tracker.rebuild")) * ns * 1e3,
        "engine.run.steps_per_s": 1e9 / spans.pooled_ns_per_op("engine.run"),
        "engine.run_jump.effective_steps_per_s":
            1e9 / spans.pooled_ns_per_op("engine.run_jump"),
        "engine.run_jump.effective_ratio":
            counts["engine.run_jump.effective_ratio"],
        "engine.run_jump.mode_switches":
            counts["engine.run_jump.mode_switches"],
        "engine.run_jump.tracker_rebuilds":
            counts["engine.run_jump.tracker_rebuilds"],
        "engine.run_jump.jump_wall_share":
            counts["engine.run_jump.jump_wall_share"],
        "engine.run_batch1_over_run":
            spans.pooled_ns_per_op("engine.perf1.batch1") /
            spans.pooled_ns_per_op("engine.perf1.run"),
        "engine.run_batch16_per_lane_over_batch1":
            spans.pooled_ns_per_op("engine.perf1.batch16") /
            spans.pooled_ns_per_op("engine.perf1.batch1"),
        "engine.montecarlo.imbalance_s":
            ((driver[2] - driver[1]) - replica_total / threads) * ns,
        "engine.supervisor.attempt_self_us":
            self_per_child("engine.supervisor"),
        "engine.supervisor.attempts": stats.median(
            [n for _, n, _ in spans.self_times("engine.supervisor")]),
        "engine.supervisor.retries": counts["engine.supervisor.retries"],
        "engine.fleet.attempt_self_us": self_per_child("engine.fleet"),
        "engine.fleet.spawns": counts["engine.fleet.spawns"],
        "engine.campaign.replica_self_us": stats.median(
            [t / ops for t, _, ops in spans.self_times("engine.campaign")])
        * ns * 1e6,
        "io.journal.append_fsync_p50_us": stats.median(journal) * ns * 1e6,
        "io.journal.append_fsync_p90_us":
            stats.tail_percentile(journal, 0.9)[0] * ns * 1e6,
        "io.journal.bytes_per_replica":
            counts["io.journal.bytes_per_replica"],
        "io.atomic_write_us":
            stats.median(spans.durations("io.atomic_write")) * ns * 1e6,
        "io.wire.roundtrip_us":
            stats.median(spans.durations("io.wire.roundtrip")) * ns * 1e6,
        "queue.submit_ms":
            stats.median(spans.durations("queue.submit")) * ns * 1e3,
        "queue.lease_ms":
            stats.median(spans.durations("queue.lease")) * ns * 1e3,
        "queue.finish_ms":
            stats.median(spans.durations("queue.finish")) * ns * 1e3,
        "queue.replay_records": counts["queue.replay_records"],
        "queue.coordinator_self_ms": stats.median(
            [t for t, _, _ in spans.self_times("queue.coordinator")])
        * ns * 1e3,
        "trace.overhead_share":
            counts["replay.traced_s"] / counts["replay.untraced_s"] - 1.0,
    }
    samples = {name: "%d %s spans" % (len(spans.by_name[source]), source)
               for name, source in SOURCES.items()}
    samples.update({name: "counted" for name in metrics
                    if name not in samples})
    samples["divsim.exec_ms"] = "21 invocations"
    return metrics, samples


# The spans each timed layer metric is computed from.
SOURCES = {
    "graph.build_s": "graph.build",
    "graph.neighbor_pick_ns": "graph.neighbor_pick",
    "rng.uniform_below_ns": "rng.uniform_below",
    "rng.geometric_ns": "rng.geometric",
    "core.div_step_ns": "core.div_step",
    "core.stop_probe_ns": "core.stop_probe",
    "core.tracker.sample_ns": "core.tracker.sample",
    "core.tracker.apply_move_ns": "core.tracker.move",
    "core.tracker.rebuild_ms": "core.tracker.rebuild",
    "engine.run.steps_per_s": "engine.run",
    "engine.run_jump.effective_steps_per_s": "engine.run_jump",
    "engine.run_batch1_over_run": "engine.perf1.batch1",
    "engine.run_batch16_per_lane_over_batch1": "engine.perf1.batch16",
    "engine.montecarlo.imbalance_s": "replica",
    "engine.supervisor.attempt_self_us": "engine.supervisor",
    "engine.supervisor.attempts": "engine.supervisor",
    "engine.fleet.attempt_self_us": "engine.fleet",
    "engine.campaign.replica_self_us": "engine.campaign",
    "io.journal.append_fsync_p50_us": "io.journal.append_fsync",
    "io.journal.append_fsync_p90_us": "io.journal.append_fsync",
    "io.atomic_write_us": "io.atomic_write",
    "io.wire.roundtrip_us": "io.wire.roundtrip",
    "queue.submit_ms": "queue.submit",
    "queue.lease_ms": "queue.lease",
    "queue.finish_ms": "queue.finish",
    "queue.coordinator_self_ms": "queue.coordinator",
}


def divsim_exec_ms(divsim, scratch, tally):
    """A no-op divsim: `queue status` on an empty queue directory."""
    empty = os.path.join(scratch, "empty-queue")
    walls = []
    for _ in range(21):
        child = proc.run([divsim, "queue", "status", "--dir", empty], scratch)
        tally.check(child.code == 0, "queue status exited %d" % child.code)
        walls.append(child.wall_s)
    return stats.median(walls) * 1e3


def traced_workload(w, layer_trace, divsim, threads, seed, scratch, tally):
    exec_ms = divsim_exec_ms(divsim, scratch, tally)
    out = os.path.join(scratch, "spans.json")
    argv = [layer_trace, "--spec", w["spec"], "--k", str(w["k"]),
            "--scheme", w["scheme"], "--engine", w["engine"],
            "--stop", w["stop"], "--replicas", str(w["replicas"]),
            "--threads", str(threads), "--seed", str(seed),
            "--replay", "pipeline" if w["kind"] == "queue" else "montecarlo",
            "--campaigns", str(w["trace_campaigns"]),
            "--campaign-replicas", str(w["trace_campaign_replicas"]),
            "--dir", os.path.join(scratch, "trace"),
            "--out", out]
    if "max_steps" in w:
        argv += ["--max-steps", str(w["max_steps"])]
    child = proc.run(argv, scratch)
    if child.code == 2 or not os.path.exists(out):
        raise RuntimeError("layer_trace failed (exit %d): %s"
                           % (child.code, child.stderr.strip()[-400:]))
    with open(out) as f:
        doc = json.load(f)
    tally.attempted += doc["checks"]
    tally.failed += doc["misses"]
    tally.misses += doc["notes"]
    return layer_metrics(doc, threads, exec_ms)
