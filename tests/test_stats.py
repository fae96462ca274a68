"""Replication statistics: intervals, order invariance, derived error metrics."""

import math
import random

import pytest

from qnaps.stats import (
    CI_LEVEL,
    ConfidenceInterval,
    EstimateError,
    MetricAccumulator,
    MetricSample,
    ReplicationResult,
    response_time_error,
    _t_ppf,
    _t_quantile,
    utilization_error,
)
from qnaps.kernel import run_replication

from _helpers import covers, estimate, mm1_model, table


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
    """Exact Student-t 0.995 quantile for dof 1, 2 and 4, from the closed forms
    in Shaw, "Sampling Student's T distribution", J. Comp. Finance 2006."""
    p = 0.995
    if dof == 1:
        # 40-digit mpmath root of the CDF: 63.656741162871524447...
        return 1 / math.tan(math.pi * (1 - p))
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


def test_interval_needs_two_replications():
    acc = MetricAccumulator()
    acc.add(0, _result(1.0))
    with pytest.raises(EstimateError):
        acc.estimates()


def test_interval_leaves_out_replications_without_a_value():
    # NaN is a replication whose metric has no sample: the interval is over
    # the others and n counts them; under two, the interval is NaN
    key = ("Q", "Jobs", "utilization")
    with_gap = estimate(_make_results([1.0, math.nan, 2.0, 4.0]))[key]
    assert with_gap == estimate(_make_results([1.0, 2.0, 4.0]))[key]
    assert with_gap.n == 3
    for values in ([math.nan, 4.0], [math.nan, math.nan, math.nan]):
        ci = estimate(_make_results(values))[key]
        assert math.isnan(ci.mean) and math.isnan(ci.half_width)
        assert ci.n == sum(not math.isnan(v) for v in values)


def test_response_time_is_estimated_over_the_replications_that_complete():
    # about 2 arrivals a replication, so some replications complete no job
    # in the window: their response time is NaN, not 0.0, and the
    # interval is over the replications that complete one
    reps = [run_replication(mm1_model(lam=2e-5), seed=s, horizon=1e5, warmup=1e4)
            for s in range(20)]
    for station in ("Queue", "system"):
        key = (station, "Jobs", "response-time-msec")
        values = [table(r)[key] for r in reps]
        completed = [table(r)[(station, "Jobs", "throughput-per-msec")] > 0 for r in reps]
        assert [not math.isnan(v) for v in values] == completed
        done = [v for v in values if not math.isnan(v)]
        assert 2 <= len(done) < len(values)
        ci = estimate(reps)[key]
        assert ci.n == len(done)
        assert ci.mean == math.fsum(done) / len(done)


# The double nearest the Student-t quantile at p = 0.5 + 0.99 / 2, by dof.
_CORRECTLY_ROUNDED_T_995 = {
    1: 63.656741162871526, 2: 9.92484320091829, 3: 5.840909309733355,
    4: 4.604094871349992, 5: 4.032142983555227, 6: 3.707428021324779,
    7: 3.4994832973504932, 8: 3.355387331333395, 9: 3.249835541592126,
    10: 3.169272672616951, 11: 3.1058065155392804, 12: 3.0545395893929017,
    13: 3.012275838716578, 14: 2.9768427343708344, 15: 2.9467128834752385,
    16: 2.9207816224250998, 17: 2.8982305196774183, 18: 2.8784404727386077,
    19: 2.860934606464979, 20: 2.845339709786108, 21: 2.8313595580230495,
    22: 2.818756060600143, 23: 2.8073356837699985, 24: 2.796939504774456,
    25: 2.78743581367697, 26: 2.778714533329683, 27: 2.7706829571222116,
    28: 2.7632624554614442, 29: 2.7563859036706053, 30: 2.749995653567225,
    31: 2.744041919294269, 32: 2.7384814820121877, 33: 2.733276642350836,
    34: 2.72839436707072, 35: 2.7238055892080912, 36: 2.7194846304500078,
    37: 2.715408721549988, 38: 2.7115576019130825, 39: 2.7079131835176615,
    40: 2.7044592674331622, 41: 2.701181303578522, 42: 2.698066186219984,
    43: 2.695102079157675, 44: 2.6922782656930218, 45: 2.6895850193746424,
    46: 2.6870134922422158, 47: 2.684555617866524, 48: 2.6822040269502154,
    49: 2.679951973631552, 50: 2.677793270940844, 51: 2.6757222341106472,
    52: 2.6737336306472193, 53: 2.6718226362410036, 54: 2.6699847957348912,
    55: 2.668215988486194, 56: 2.666512397556063, 57: 2.6648704822419713,
    58: 2.6632869535376584, 59: 2.6617587521629673, 60: 2.6602830288550368,
    99: 2.626405457280827, 999: 2.5807596372676365, 9999: 2.5763210958565974,
}


def test_quantile_is_correctly_rounded():
    """_t_quantile returns the frozen correctly rounded quantiles, made with

        import mpmath
        mpmath.mp.dps = 60
        p = mpmath.mpf(0.5 + 0.99 / 2)
        def q(nu):
            cdf = lambda t: 1 - mpmath.betainc(
                nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2
            return float(mpmath.findroot(lambda t: cdf(t) - p, (1, 70), solver="illinois"))

    for dof 1-60, 99, 999 and 9999. mpmath rounds the 60-digit root to the
    nearest double, and each root lies strictly between the half-ulp
    midpoints around its double."""
    for dof, q in _CORRECTLY_ROUNDED_T_995.items():
        assert _t_quantile(dof) == q, dof
    for dof in (1, 2, 4):
        assert _t_quantile(dof) == pytest.approx(_t_995(dof), rel=1e-14), dof


def test_quantile_retries_at_higher_precision_when_too_close_to_call():
    # at 12 digits no half-ulp midpoint can be told from the root, so the
    # search doubles its precision until it can
    for dof in (2, 3, 4):
        assert _t_ppf(dof, 0.995, prec=12) == _CORRECTLY_ROUNDED_T_995[dof]


def test_add_order_invariance_is_exact():
    values = [0.93, 0.11, 0.54, 0.72, 0.38, 0.65]
    results = _make_results(values)

    fwd = MetricAccumulator()
    for i, r in enumerate(results):
        fwd.add(i, r)
    a = fwd.estimates()[("Q", "Jobs", "utilization")]

    rng = random.Random(5)
    for _ in range(10):
        order = list(enumerate(results))
        rng.shuffle(order)
        shuffled = MetricAccumulator()
        for i, r in order:
            shuffled.add(i, r)
        b = shuffled.estimates()[("Q", "Jobs", "utilization")]
        assert (a.mean, a.half_width, a.n) == (b.mean, b.half_width, b.n)  # bit-identical


def test_duplicate_replication_index_rejected():
    acc = MetricAccumulator()
    acc.add(0, _result(1.0))
    with pytest.raises(EstimateError):
        acc.add(0, _result(2.0))


def test_replication_with_another_key_space_rejected():
    # a missing key, an extra key and a different key: each leaves the
    # accumulator as it was
    acc = MetricAccumulator()
    acc.add(0, _result(1.0))
    other = MetricSample("Q", "Jobs", "queue-length", 2.0)
    for samples in ([], [*_result(2.0).samples, other], [other]):
        with pytest.raises(EstimateError, match="key space does not match"):
            acc.add(1, ReplicationResult(seed=1, horizon=100.0, warmup=0.0, samples=samples))
    acc.add(1, _result(3.0))
    assert acc.estimates()[("Q", "Jobs", "utilization")].mean == 2.0


def test_half_width_shrinks_with_more_replications():
    m = mm1_model(lam=0.5, mu=1.0)
    results = [
        run_replication(m, seed=s, horizon=4000.0, warmup=400.0) for s in range(12)
    ]
    few = estimate(results[:4])[("Queue", "Jobs", "utilization")]
    many = estimate(results)[("Queue", "Jobs", "utilization")]
    assert many.half_width < few.half_width
    assert covers(many, 0.5)


def test_error_metrics():
    assert utilization_error(17.4, 17.8) == pytest.approx(0.4)
    assert utilization_error(17.8, 17.4) == pytest.approx(0.4)  # symmetric distance
    assert response_time_error(5.53, 5.35) == pytest.approx(100 * 0.18 / 5.35, rel=1e-12)
    with pytest.raises(EstimateError):
        response_time_error(1.0, 0.0)


def test_estimates_cover_every_sampled_key():
    m = mm1_model()
    results = [run_replication(m, seed=s, horizon=2000.0, warmup=100.0) for s in range(3)]
    est = estimate(results)
    assert set(est) == set(table(results[0]))
    for ci in est.values():
        assert ci.n == 3
