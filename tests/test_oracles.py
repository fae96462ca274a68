"""Oracle self-checks: frozen expected values for every analytic reference.

These tests pin the oracles themselves (closed forms, exact MVA, path
enumeration) against hand-derived numbers so the simulator comparisons
elsewhere rest on verified ground.
"""

import math

import numpy as np
import pytest

from qnaps.egraph import Basic, Branch, Loop, Sequence, reduce as eg_reduce

from _helpers import (
    eg_expectation_by_paths,
    exact_mva,
    mg1_class_responses,
    mm1_queue_length,
    mm1_response,
    mm1_utilization,
    mm1k_drop_probability,
    random_eg,
)


def test_mm1_closed_forms():
    assert mm1_utilization(0.8, 1.0) == 0.8
    assert mm1_response(0.8, 1.0) == pytest.approx(5.0, rel=1e-15)
    assert mm1_queue_length(0.8, 1.0) == pytest.approx(4.0, rel=1e-15)
    # low-load sanity point
    assert mm1_response(0.1, 1.0) == pytest.approx(1.0 / 0.9, rel=1e-15)


def test_mm1k_drop_closed_form():
    # rho = 0.5, K = 3: (1-rho) rho^3 / (1-rho^4) = (1/16)/(15/16) = 1/15
    assert mm1k_drop_probability(0.5, 1.0, 3) == pytest.approx(1.0 / 15.0, rel=1e-15)
    assert mm1k_drop_probability(1.0, 1.0, 3) == pytest.approx(0.25, rel=1e-15)
    # K -> large approaches 0 for rho < 1
    assert mm1k_drop_probability(0.5, 1.0, 40) < 1e-12


def test_mg1_class_responses_closed_form():
    # rho = 0.3 / 1 + 0.1 / 0.25 = 0.7, lam E[S^2] = 0.3 * 2 + 0.1 * 32 = 3.8,
    # so every class waits 3.8 / 0.6 = 6.333 ms before its own service
    t_a, t_b = mg1_class_responses((0.3, 0.1), (1.0, 0.25))
    assert t_a == pytest.approx(1.0 + 19.0 / 3.0, rel=1e-15)
    assert t_b == pytest.approx(4.0 + 19.0 / 3.0, rel=1e-15)
    # one class is the M/M/1 queue
    assert mg1_class_responses((0.8,), (1.0,)) == pytest.approx((mm1_response(0.8, 1.0),), rel=1e-15)


# X(n) for demands (1.0, 0.6), n = 1..10, from the MVA recursion done by hand
_MVA_X = (
    0.625,
    0.8163265306122448,
    0.9007352941176471,
    0.9437890353920888,
    0.9673737916219118,
    0.9808001264189208,
    0.9886112731211465,
    0.9932131400890227,
    0.9959443989311987,
    0.9975725462291838,
)


def test_exact_mva_frozen_values():
    rows = exact_mva((1.0, 0.6), 10)
    assert [n for n, _, _ in rows] == list(range(1, 11))
    for (n, x, q), expected in zip(rows, _MVA_X):
        assert x == pytest.approx(expected, rel=1e-12)
        # populations must add up and throughput obeys the bottleneck bound
        assert math.fsum(q) == pytest.approx(n, rel=1e-12)
        assert x <= 1.0 / max(1.0, 0.6) + 1e-12


def test_exact_mva_single_station_is_mm1_like():
    # one station, one job: X = 1/D exactly per the recursion base case
    rows = exact_mva((2.0,), 3)
    assert rows[0][1] == pytest.approx(0.5, rel=1e-15)
    # with n jobs and one station, R = n * D so X = 1/D for every n
    for n, x, _ in rows:
        assert x == pytest.approx(0.5, rel=1e-12)


def test_eg_enumeration_matches_hand_case():
    g = Sequence(
        Basic({"A": 1.0}),
        Branch((0.3, Basic({"A": 2.0})), (0.7, Basic({"B": 4.0}))),
        Loop(2, Basic({"B": 0.5})),
    )
    exp = eg_expectation_by_paths(g)
    assert exp["A"] == pytest.approx(1.0 + 0.3 * 2.0, rel=1e-15)
    assert exp["B"] == pytest.approx(0.7 * 4.0 + 2 * 0.5, rel=1e-15)
    red = eg_reduce(g)
    assert set(red) == set(exp)
    for res in exp:
        assert red[res] == pytest.approx(exp[res], rel=1e-12)


def test_eg_enumeration_agrees_with_reduce_on_random_graphs():
    rng = np.random.default_rng(20260815)
    for _ in range(100):
        g = random_eg(rng, max_depth=4)
        exp = eg_expectation_by_paths(g)
        red = eg_reduce(g)
        # a zero-count loop leaves a 0.0 entry in reduce but no path at
        # all in the enumeration; absent and zero mean the same demand
        for res in set(red) | set(exp):
            assert math.isclose(
                red.get(res, 0.0), exp.get(res, 0.0), rel_tol=1e-9, abs_tol=1e-12
            ), f"resource {res}: reduce {red.get(res)} vs enumeration {exp.get(res)}"
