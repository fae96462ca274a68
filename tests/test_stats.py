"""Replication statistics: intervals, order invariance, derived error metrics."""

import math
import random

import pytest
import scipy.stats

from qnaps.stats import (
    CI_LEVEL,
    ConfidenceInterval,
    EstimateError,
    MetricAccumulator,
    MetricSample,
    ReplicationResult,
    estimate,
    littles_law_rows,
    response_time_error,
    _t_quantile,
    utilization_error,
)
from qnaps.kernel import run_replication

from _helpers import mm1_model


def _result(rep_values, seed=0):
    """One ReplicationResult carrying a single metric value."""
    return ReplicationResult(
        seed=seed,
        horizon=100.0,
        warmup=0.0,
        samples=[MetricSample("Q", "Jobs", "utilization", rep_values)],
    )


def _make_results(values):
    return [_result(v, seed=i) for i, v in enumerate(values)]


def _t_995(dof):
    """Exact Student-t 0.995 quantile for dof 2 and 4, from the closed forms in
    Shaw, "Sampling Student's T distribution", J. Comp. Finance 2006."""
    p = 0.995
    if dof == 2:
        # 40-digit mpmath root of the CDF: 9.924843200918293114...
        return (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    assert dof == 4
    # 40-digit mpmath root of the CDF: 4.604094871349993225...
    alpha = 4 * p * (1 - p)
    theta = math.acos(math.sqrt(alpha))
    return 2 * math.sqrt(math.cos(theta / 3) / math.sqrt(alpha) - 1)


def test_interval_matches_hand_computation():
    # values 1..n: mean (n+1)/2, s^2 = n(n+1)/12, hw = t_{0.995,n-1} * sqrt(s^2/n).
    # n = 5 (nu = 4): s^2 = 2.5; n = 3 (nu = 2): s^2 = 1. These are the two
    # replication counts the shipped configs use.
    for n, var in ((5, 2.5), (3, 1.0)):
        results = _make_results([float(v) for v in range(1, n + 1)])
        ci = estimate(results)[("Q", "Jobs", "utilization")]
        mean = (n + 1) / 2
        assert ci.n == n and ci.level == CI_LEVEL == 0.99
        assert ci.mean == pytest.approx(mean, rel=1e-15)
        assert ci.half_width == pytest.approx(_t_995(n - 1) * math.sqrt(var / n), rel=1e-12)
        assert ci.covers(mean) and ci.covers(mean + ci.half_width)
        assert not ci.covers(mean + ci.half_width * 1.0000001)


def test_interval_needs_two_replications():
    acc = MetricAccumulator()
    acc.add(0, _result(1.0))
    with pytest.raises(EstimateError):
        acc.estimate("Q", "Jobs", "utilization")


def test_quantile_matches_scipy_stats_exactly():
    # stdtrit is the inverse CDF that t.ppf evaluates, so the CSV bytes do
    # not depend on which of the two entry points stats uses
    for dof in range(1, 61):
        assert _t_quantile(dof) == float(scipy.stats.t.ppf(0.995, dof)), dof


def test_add_order_invariance_is_exact():
    values = [0.93, 0.11, 0.54, 0.72, 0.38, 0.65]
    results = _make_results(values)

    fwd = MetricAccumulator()
    for i, r in enumerate(results):
        fwd.add(i, r)
    a = fwd.estimate("Q", "Jobs", "utilization")

    rng = random.Random(5)
    for _ in range(10):
        order = list(enumerate(results))
        rng.shuffle(order)
        shuffled = MetricAccumulator()
        for i, r in order:
            shuffled.add(i, r)
        b = shuffled.estimate("Q", "Jobs", "utilization")
        assert (a.mean, a.half_width, a.n) == (b.mean, b.half_width, b.n)  # bit-identical


def test_duplicate_replication_index_rejected():
    acc = MetricAccumulator()
    acc.add(0, _result(1.0))
    with pytest.raises(EstimateError):
        acc.add(0, _result(2.0))


def test_half_width_shrinks_with_more_replications():
    m = mm1_model(lam=0.5, mu=1.0)
    results = [
        run_replication(m, seed=s, horizon=4000.0, warmup=400.0) for s in range(12)
    ]
    few = estimate(results[:4])[("Queue", "Jobs", "utilization")]
    many = estimate(results)[("Queue", "Jobs", "utilization")]
    assert many.half_width < few.half_width
    assert many.covers(0.5)


def test_error_metrics():
    assert utilization_error(17.4, 17.8) == pytest.approx(0.4)
    assert utilization_error(17.8, 17.4) == pytest.approx(0.4)  # symmetric distance
    assert response_time_error(5.53, 5.35) == pytest.approx(100 * 0.18 / 5.35, rel=1e-12)
    with pytest.raises(EstimateError):
        response_time_error(1.0, 0.0)


def test_littles_law_rows_flags_gap():
    def ci(v):
        return ConfidenceInterval(v, 0.0, 0.99, 5)

    est = {
        ("system", "A", "queue-length"): ci(4.0),
        ("system", "A", "throughput-per-msec"): ci(0.8),
        ("system", "A", "response-time-msec"): ci(5.0),
        ("system", "B", "queue-length"): ci(2.0),
        ("system", "B", "throughput-per-msec"): ci(1.0),
        ("system", "B", "response-time-msec"): ci(1.8),
    }
    rows = {r["job_class"]: r for r in littles_law_rows(est)}
    assert rows["A"]["relative_gap"] == pytest.approx(0.0, abs=1e-15)
    assert rows["B"]["relative_gap"] == pytest.approx(0.1, rel=1e-12)
    assert rows["A"]["n_bar"] == 4.0 and rows["A"]["throughput"] == 0.8


def test_estimates_cover_every_sampled_key():
    m = mm1_model()
    results = [run_replication(m, seed=s, horizon=2000.0, warmup=100.0) for s in range(3)]
    est = estimate(results)
    assert set(est) == set(results[0].table())
    for ci in est.values():
        assert ci.n == 3
