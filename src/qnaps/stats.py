"""Per-replication metric samples and independent-replication statistics.

Estimates are order-invariant: per-replication values are kept keyed by
replication index, sorted by it and reduced with math.fsum, so adding
replications in any order gives bit-identical confidence intervals.

A replication whose metric has no sample (a response time where nothing
completed in the window) reports NaN. An interval is estimated over the
replications that report a number, and its n counts them; with fewer
than two, its mean and half-width are NaN.

The interval half-width uses the two-sided 99% Student-t quantile,
computed here with the standard library and correctly rounded: the double
nearest the true quantile, found with the CDF evaluated in decimal. So the
CSV bytes depend on no library's special functions.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

from .records import Field, FrozenRecord, Record

CI_LEVEL = 0.99


class EstimateError(ValueError):
    pass


class MetricSample(FrozenRecord):
    station: str
    job_class: str
    metric: str
    value: float

    @property
    def key(self):
        return (self.station, self.job_class, self.metric)


class ReplicationResult(Record):
    seed: int
    horizon: float
    warmup: float
    samples: list[MetricSample] = Field(factory=list)


class ConfidenceInterval(FrozenRecord):
    mean: float
    half_width: float
    level: float
    n: int


_TQ_CACHE: dict[int, float] = {}


def _t_quantile(dof: int) -> float:
    # two-sided 99 percent -> 0.995 quantile, Student t with n-1 dof
    q = _TQ_CACHE.get(dof)
    if q is None:
        q = _TQ_CACHE[dof] = _t_ppf(dof, 0.5 + CI_LEVEL / 2.0)
    return q


def _t_ppf(nu: int, p: float, prec: int = 50) -> float:
    """The double nearest the p-quantile of Student t with integer nu >= 1
    dof, for 0.5 < p < 1. Newton steps in decimal reach the quantile to
    prec / 2 digits; the candidate double then moves by one ulp until the
    CDF brackets p between its two half-ulp midpoints.

    Newton starts at t = 0, and the CDF is concave for t > 0, so the steps
    rise to the root without overshooting it: 13 steps at nu = 1, 11 at
    nu = 9999."""
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
    with localcontext() as ctx:
        ctx.prec = prec
        a = 2 * Decimal(p) - 1  # target of P(|T| < t)
        t = Decimal(0)
        while True:
            # the density in floats is close enough: each step still gains
            # about 12 digits once Newton is near the root
            slope = 2 * math.exp(log_c - (nu + 1) / 2 * math.log1p(float(t) ** 2 / nu))
            step = (_two_sided_cdf(nu, t) - a) / Decimal(slope)
            t -= step
            if abs(step) < t.scaleb(-prec // 2):
                break
        q = float(t)
        while True:
            below, above = math.nextafter(q, 0.0), math.nextafter(q, math.inf)
            gaps = [_two_sided_cdf(nu, (Decimal(q) + Decimal(x)) / 2) - a for x in (below, above)]
            if min(abs(g) for g in gaps) < Decimal(10) ** (10 - prec):
                return _t_ppf(nu, p, 2 * prec)  # too close to call at this precision
            if gaps[0] > 0:
                q = below
            elif gaps[1] < 0:
                q = above
            else:
                return q


def _two_sided_cdf(nu: int, t: Decimal) -> Decimal:
    """P(|T| < t) for integer nu dof: the finite series in theta =
    atan(t / sqrt(nu)) of Abramowitz & Stegun 26.7.3 (even nu) and 26.7.4
    (odd nu), with sin(theta) and cos(theta)^2 taken algebraically."""
    r2 = nu + t * t
    cos2 = nu / r2
    sin = t / r2.sqrt()
    if nu % 2 == 0:
        term = series = Decimal(1)
        for k in range(1, nu // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            series += term
        return sin * series
    series = Decimal(0)
    if nu > 1:
        term = series = cos2.sqrt()
        for k in range(1, (nu - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            series += term
    return (_atan(t / Decimal(nu).sqrt()) + sin * series) / (2 * _atan(Decimal(1)))


def _atan(x: Decimal) -> Decimal:
    # atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))): halve until the Taylor
    # series converges in a dozen terms, then sum it to working precision
    halvings = 0
    while abs(x) > Decimal("0.01"):
        x /= 1 + (1 + x * x).sqrt()
        halvings += 1
    total, power, k = x, x, 1
    while True:
        power *= -x * x
        k += 2
        term = power / k
        if total + term == total:
            return total * 2**halvings
        total += term


def _interval(by_rep: dict[int, float]) -> ConfidenceInterval:
    if len(by_rep) < 2:
        raise EstimateError(f"need at least 2 replications, got {len(by_rep)}")
    vals = [v for _, v in sorted(by_rep.items()) if not math.isnan(v)]
    n = len(vals)
    if n < 2:
        return ConfidenceInterval(math.nan, math.nan, CI_LEVEL, n)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    half = _t_quantile(n - 1) * math.sqrt(var / n)
    return ConfidenceInterval(mean, half, CI_LEVEL, n)


class MetricAccumulator:
    """Collects per-replication samples keyed by replication index."""

    def __init__(self):
        self._cells: dict[tuple, dict[int, float]] = {}
        self._reps: set[int] = set()

    def add(self, rep_index: int, result: ReplicationResult) -> None:
        if rep_index in self._reps:
            raise EstimateError(f"replication index {rep_index} already present")
        if self._reps:
            incoming = frozenset(s.key for s in result.samples)
            if incoming != frozenset(self._cells):
                raise EstimateError("replication sample key space does not match accumulator")
        self._reps.add(rep_index)
        for s in result.samples:
            self._cells.setdefault(s.key, {})[rep_index] = s.value

    def estimates(self) -> dict[tuple, ConfidenceInterval]:
        return {key: _interval(cell) for key, cell in sorted(self._cells.items())}


def utilization_error(eg_percent: float, qn_percent: float) -> float:
    """Absolute distance between the two utilizations, in percentage points."""
    return abs(eg_percent - qn_percent)


def response_time_error(eg_msec: float, qn_mean_msec: float) -> float:
    """Absolute percentage error of the analytic response time against the
    simulated mean (the simulated mean is the denominator)."""
    if qn_mean_msec == 0:
        raise EstimateError("response_time_error undefined for a zero simulated mean")
    return 100.0 * abs(eg_msec - qn_mean_msec) / qn_mean_msec

