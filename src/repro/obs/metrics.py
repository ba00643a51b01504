"""A small metrics registry: named counters and histograms.

Counters count events (collections, compilations, transformer
invocations); histograms summarize distributions (safe-point wait,
restricted-set sizes, cells copied per collection). Values come from the
simulated clock and simulated work counts, so snapshots are deterministic
and can be asserted exactly in tests.

Series can carry **labels** (``metrics.inc("fleet.sessions", member="m2")``)
— the fleet layer uses one label per fleet member so a single registry
holds the whole fleet's per-member health series. Labelled series are
stored under a Prometheus-style flattened name (``fleet.sessions{member=m2}``)
so snapshots stay plain string-keyed dicts.

Histograms additionally retain a bounded sample buffer, giving exact
percentiles (p50/p99 tail latency) for the session-latency series the
rollback policy watches; the buffer is capped so memory stays bounded on
long campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: retained observations per histogram; beyond this, percentile() refuses
#: to answer rather than report on a prefix (count/total/min/max stay exact)
_SAMPLE_CAP = 8192


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile of a non-empty ascending sequence
    (``fraction`` 0.5 = median, 0.99 = p99)."""
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


def _series_name(name: str, labels: Dict[str, str]) -> str:
    """Flatten ``name`` + labels into one stable registry key."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


@dataclass
class Counter:
    """A monotonically increasing event count."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming summary of an observed distribution (count / sum /
    min / max / mean), plus a bounded sample buffer for percentiles."""

    name: str
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    #: most recent observation, handy for "the last update's X" queries
    last: Optional[float] = None
    #: retained observations (capped at ``_SAMPLE_CAP``)
    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.last = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < _SAMPLE_CAP:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Exact percentile over the retained samples (0.99 = p99).

        An empty histogram has no percentiles: asking for one is a caller
        bug (a silent 0.0 here once masqueraded as a perfect p99), so it
        raises :class:`ValueError` with the series name — as does a series
        that outgrew the sample buffer, whose percentiles would silently
        describe only its first ``_SAMPLE_CAP`` observations. A
        single-sample series returns that sample for every fraction."""
        if not self.samples:
            raise ValueError(
                f"percentile({fraction}) of empty histogram "
                f"{self.name!r}: no samples recorded"
            )
        if self.count > len(self.samples):
            raise ValueError(
                f"percentile({fraction}) of histogram {self.name!r}: only "
                f"the first {len(self.samples)} of {self.count} "
                f"observations were retained"
            )
        return nearest_rank(sorted(self.samples), fraction)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "last": self.last if self.last is not None else 0.0,
            "mean": self.mean,
        }


@dataclass
class Metrics:
    """Get-or-create registry of counters and histograms."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str, **labels: str) -> Counter:
        key = _series_name(name, labels)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = Counter(key)
        return counter

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = _series_name(name, labels)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(key)
        return histogram

    # Convenience single-call forms.

    def inc(self, name: str, amount: int = 1, **labels: str) -> None:
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    def labelled(self, name: str, **labels: str) -> str:
        """The flattened registry key a labelled series is stored under."""
        return _series_name(name, labels)

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict snapshot (stable key order) for JSON export and
        snapshot tests."""
        return {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
        }
