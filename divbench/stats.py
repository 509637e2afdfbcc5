"""The benchmark's own arithmetic: medians, the tail-percentile rule, span
self time and the failure accounting behind error_rate.

Pure functions with no I/O, so test_stats.py can pin every rule down.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise a single outlier would move it.
MIN_TAIL_SAMPLES = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values, fraction):
    """Nearest-rank percentile, refused unless MIN_TAIL_SAMPLES lie beyond.

    Returns (value, samples_beyond).  The nearest-rank value is the
    ceil(fraction * n)-th smallest sample; the samples beyond it are the
    n - ceil(fraction * n) larger ranks.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    ordered = sorted(values)
    # Rounded first so that 0.9 * 100 is rank 90, not 91 from float error.
    rank = math.ceil(round(fraction * len(ordered), 9))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            "p%g of %d samples has %d beyond it; need %d"
            % (fraction * 100, len(ordered), max(beyond, 0), MIN_TAIL_SAMPLES))
    return ordered[rank - 1], beyond


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(span, children):
    """A span's duration minus the part of it its children cover.

    Children may run on parallel threads and overlap each other; the part
    of the parent they cover is the union of their intervals, clipped to
    the parent.  `span` and each child are (start, end) pairs.
    """
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([(s, e) for s, e in clipped if e > s])


class Tally:
    """Attempted and failed operations behind error_rate.

    Every replica asked of divsim, every campaign submitted and every output
    check made is one attempt.  A replica fails when it is capped, faulted,
    quarantined or missing from the output; a campaign when it does not
    end `complete`; a check when it misses.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def replicas(self, requested, completed):
        self.attempted += requested
        self.failed += max(requested - completed, 0)

    def campaign(self, complete):
        self.attempted += 1
        self.failed += 0 if complete else 1

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)
        return ok

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0
