"""Statistics, Prometheus and span helpers of the perfbench benchmark.

Pure functions only, so `test_benchlib.py` can pin them without a
build: quartiles and spreads, the tail-percentile rule, the host's
steal share from `/proc/stat`, `/metrics` parsing and deltas, and
per-layer self times from a span list.
"""

import math
import re
import statistics
from fractions import Fraction

# Percentile levels the tail rule chooses from, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Samples a reported percentile must have beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)`."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def _rank(level, count):
    """1-based nearest rank of percentile `level` among `count` samples,
    in exact arithmetic (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(level)) * count / 100))


def percentile(values, level):
    """Nearest-rank percentile: the smallest sample with at least
    `level` percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(level, len(ordered)) - 1]


def tail_level(count):
    """The highest percentile level with at least ten samples beyond
    its nearest-rank sample, or None when even the median has fewer."""
    for level in TAIL_LEVELS:
        if count - _rank(level, count) >= TAIL_MIN_BEYOND:
            return level
    return None


def timing_summary(values):
    """Median, spread and rule-chosen tail percentile of a list of
    timings, with the sample count."""
    out = {"n": len(values), "p50": median(values) if values else None}
    out["spread"] = spread(values) if len(values) >= 2 else None
    level = tail_level(len(values))
    out["tail_level"] = level
    out["tail"] = percentile(values, level) if level is not None else None
    return out


def cpu_ticks(stat_text):
    """`(busy, steal)` jiffies summed over all CPUs, from the first line
    of `/proc/stat`: busy is user + nice + system + irq + softirq, steal
    is the time a runnable virtual CPU waited for the hypervisor."""
    fields = [int(v) for v in stat_text.split("\n", 1)[0].split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def steal_share(before, after):
    """Share of the runnable CPU time between two `cpu_ticks` readings
    that the hypervisor gave to other guests. An idle virtual CPU is
    never stolen from, so this is the share by which the work that ran
    was slowed, whether it used one CPU or all of them."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def steal_free(seconds, before, after):
    """Wall seconds measured between two `cpu_ticks` readings, with the
    stolen share taken out: the time the work would have taken on CPUs
    the hypervisor did not share."""
    return seconds * (1.0 - steal_share(before, after))


_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Samples of a Prometheus text exposition, keyed by
    `(name, ((label, value), ...))` with labels sorted."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("bad exposition line: " + line)
        labels = tuple(sorted(_LABEL.findall(m.group(3) or "")))
        samples[(m.group(1), labels)] = float(m.group(4))
    return samples


def delta(before, after):
    """Per-sample change between two parsed expositions. A series absent
    before counts from zero."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def counter_total(samples, name, **match):
    """Sum of every series of `name` whose labels include `match`."""
    total = 0.0
    for (n, labels), value in samples.items():
        if n == name and all(dict(labels).get(k) == v for k, v in match.items()):
            total += value
    return total


def histogram_by_label(samples, name, label, **match):
    """`{label value: (sum, count)}` of a histogram's `_sum`/`_count`
    series split by one label, over series whose labels include
    `match`."""
    out = {}
    for suffix, slot in (("_sum", 0), ("_count", 1)):
        for (n, labels), value in samples.items():
            d = dict(labels)
            if n != name + suffix or not all(d.get(k) == v for k, v in match.items()):
                continue
            key = d.get(label)
            pair = out.setdefault(key, [0.0, 0.0])
            pair[slot] += value
    return {k: (v[0], v[1]) for k, v in out.items()}


def self_times(spans):
    """`{name: (self_ns, calls)}`: each span's duration minus the part
    its child spans cover, summed per name. Children of one span never
    overlap (spans are recorded in stack order)."""
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        total, calls = out.get(s["name"], (0, 0))
        out[s["name"]] = (total + own, calls + 1)
    return out
