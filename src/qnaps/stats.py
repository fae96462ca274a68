"""Per-replication metric samples and independent-replication statistics.

Estimates are order-invariant: per-replication values are kept keyed by
replication index, sorted by it and reduced with math.fsum, so adding
replications in any order gives bit-identical confidence intervals.

The interval half-width uses the two-sided 99% Student-t quantile from
scipy.special.stdtrit, the inverse CDF that scipy.stats.t.ppf evaluates
itself; importing scipy.special alone keeps scipy.stats (most of the
package's import time) off the start-up path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import stdtrit

METRICS = (
    "utilization",
    "response-time-msec",
    "throughput-per-msec",
    "queue-length",
    "dropped-count",
    "dropped-rate-per-msec",
)

CI_LEVEL = 0.99


class EstimateError(ValueError):
    pass


@dataclass(frozen=True)
class MetricSample:
    station: str
    job_class: str
    metric: str
    value: float

    @property
    def key(self):
        return (self.station, self.job_class, self.metric)


@dataclass
class ReplicationResult:
    seed: int
    horizon: float
    warmup: float
    samples: list[MetricSample] = field(default_factory=list)

    def table(self) -> dict:
        return {s.key: s.value for s in self.samples}


@dataclass(frozen=True)
class ConfidenceInterval:
    mean: float
    half_width: float
    level: float
    n: int

    def covers(self, value: float) -> bool:
        return abs(self.mean - value) <= self.half_width


_TQ_CACHE: dict[int, float] = {}


def _t_quantile(dof: int) -> float:
    # two-sided 99 percent -> 0.995 quantile, Student t with n-1 dof
    q = _TQ_CACHE.get(dof)
    if q is None:
        q = float(stdtrit(dof, 0.5 + CI_LEVEL / 2.0))
        _TQ_CACHE[dof] = q
    return q


def _interval(by_rep: dict[int, float]) -> ConfidenceInterval:
    n = len(by_rep)
    if n < 2:
        raise EstimateError(f"need at least 2 replications, got {n}")
    vals = [v for _, v in sorted(by_rep.items())]
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    half = _t_quantile(n - 1) * math.sqrt(var / n)
    return ConfidenceInterval(mean, half, CI_LEVEL, n)


class MetricAccumulator:
    """Collects per-replication samples keyed by replication index."""

    def __init__(self):
        self._cells: dict[tuple, dict[int, float]] = {}
        self._reps: set[int] = set()

    def __len__(self):
        return len(self._reps)

    def key_space(self) -> frozenset:
        return frozenset(self._cells)

    def add(self, rep_index: int, result: ReplicationResult) -> None:
        if rep_index in self._reps:
            raise EstimateError(f"replication index {rep_index} already present")
        if self._reps:
            incoming = frozenset(s.key for s in result.samples)
            if incoming != self.key_space():
                raise EstimateError("replication sample key space does not match accumulator")
        self._reps.add(rep_index)
        for s in result.samples:
            self._cells.setdefault(s.key, {})[rep_index] = s.value

    def estimate(self, station: str, job_class: str, metric: str) -> ConfidenceInterval:
        cell = self._cells.get((station, job_class, metric))
        if cell is None:
            raise KeyError((station, job_class, metric))
        return _interval(cell)

    def estimates(self) -> dict[tuple, ConfidenceInterval]:
        return {key: _interval(cell) for key, cell in sorted(self._cells.items())}


def estimate(results: list[ReplicationResult]) -> dict[tuple, ConfidenceInterval]:
    """CIs over a batch of replications (needs at least 2)."""
    acc = MetricAccumulator()
    for i, r in enumerate(results):
        acc.add(i, r)
    return acc.estimates()


def utilization_error(eg_percent: float, qn_percent: float) -> float:
    """Absolute distance between the two utilizations, in percentage points."""
    return abs(eg_percent - qn_percent)


def response_time_error(eg_msec: float, qn_mean_msec: float) -> float:
    """Absolute percentage error of the analytic response time against the
    simulated mean (the simulated mean is the denominator)."""
    if qn_mean_msec == 0:
        raise EstimateError("response_time_error undefined for a zero simulated mean")
    return 100.0 * abs(eg_msec - qn_mean_msec) / qn_mean_msec


def littles_law_rows(estimates: dict[tuple, ConfidenceInterval]) -> list[dict]:
    """Per-class system-level N, X and R means with the relative gap
    |N - X*R| / N (zero-activity classes report a gap of 0)."""
    classes = sorted(
        cls for (st, cls, metric) in estimates
        if st == "system" and metric == "queue-length"
    )
    rows = []
    for cls in classes:
        n_bar = estimates[("system", cls, "queue-length")].mean
        x = estimates[("system", cls, "throughput-per-msec")].mean
        r = estimates[("system", cls, "response-time-msec")].mean
        gap = abs(n_bar - x * r)
        rel = 0.0 if n_bar == 0 else gap / n_bar
        rows.append({"job_class": cls, "n_bar": n_bar, "throughput": x, "response": r, "relative_gap": rel})
    return rows
