"""The log every exponential, Erlang and arrival-gap value is made with.

_loop.c's log_unit is fdlibm's log, in plain double operations, so its
bits are the same on every IEEE machine; _log of tests/_reference.py is
its port to Python, its specification. The samplers call it on
1 - u, u = (w >> 11) * 2**-53, which is exact, so the arguments are the
multiples of 2**-53 in (0, 1]. Its error is checked against mpmath at
120 bits on the ends of that range, on powers of two and their
neighbours, on the edges of its branches and on 20,000 arguments from a
stream; and on 2,000,000 more against the platform's long double log,
which the first set checks against mpmath in turn. The port must give
the extension's bits on every argument.
"""

from array import array

import mpmath
import numpy as np
import pytest

import _reference
from qnaps import kernel
from qnaps.kernel import _U01, _spec


def log(x) -> np.ndarray:
    """The log of each x, from the extension."""
    return np.frombuffer(kernel._loop.log(np.ascontiguousarray(x, dtype=np.float64)))


def uniforms(name: str, n: int) -> np.ndarray:
    """The first n uniforms of the stream called name."""
    return np.frombuffer(kernel._loop.fill(_spec(_U01, name), 0, n))


def _near(x: float, k: int = 2) -> list[float]:
    """x and the k doubles on either side of it that lie in (0, 1]."""
    out = [x]
    for toward in (0.0, 1.0):
        y = x
        for _ in range(k):
            y = np.nextafter(y, toward)
            out.append(float(y))
    return sorted({v for v in out if 0.0 < v <= 1.0})


def _with_fraction(hx: int, low: int) -> float:
    """The double in [0.5, 1) whose fraction has top 20 bits hx and low
    32 bits low: log_unit branches on hx."""
    return float(np.array([(0x3FE00000 | hx) << 32 | low], dtype=np.uint64).view(np.float64)[0])


def mpmath_arguments() -> np.ndarray:
    """The arguments checked against mpmath: the ends, u = 0 and
    u = 1 - 2**-53, every power of two between and its neighbours, 1 - u
    for small u, the edges of log_unit's branches, and 20,000 from a
    stream."""
    xs = [1.0, 2.0**-53]
    for j in range(54):
        xs += _near(2.0**-j)
    xs += [1.0 - m * 2.0**-53 for m in range(1, 65)]
    xs += [1.0 - 2.0**-j for j in range(1, 53)]
    for hx in (0, 1, 2, 0x6147A, 0x6147B, 0x6A09D, 0x6A09E, 0x6A09F, 0x6B850, 0x6B851, 0x6B852,
               0xFFFFD, 0xFFFFE, 0xFFFFF):
        for low in (0, 1, 0x7FFFFFFF, 0xFFFFFFFF):
            xs.append(_with_fraction(hx, low))
    u = uniforms("2021|log|test|mpmath", 20000)
    return np.concatenate([np.array(xs), 1.0 - u])


def mpmath_ulps(xs, ys) -> list[float]:
    """|y - log x| in ulps of log x, with log x from mpmath at 120 bits;
    0 where log x is 0 and y is 0, inf where log x is 0 and y is not."""
    errors = []
    with mpmath.workprec(120):
        for x, y in zip(xs.tolist(), ys.tolist()):
            exact = mpmath.log(mpmath.mpf(x))
            if exact == 0:
                errors.append(0.0 if y == 0.0 else float("inf"))
                continue
            _, e = mpmath.frexp(exact)
            errors.append(float(abs(mpmath.mpf(y) - exact) / mpmath.ldexp(1, e - 53)))
    return errors


LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63  # x87 extended: 64-bit significand


def long_double_ulps(xs, ys) -> np.ndarray:
    """|y - log x| in ulps of log x, with log x from the long double log,
    which has 11 more bits than a double."""
    exact = np.log(xs.astype(np.longdouble))
    _, e = np.frexp(exact)
    err = np.abs(ys.astype(np.longdouble) - exact) / np.ldexp(np.longdouble(1), e - 53)
    return np.where(exact == 0, np.where(ys == 0, 0.0, np.inf), err).astype(np.float64)


def test_log_is_within_one_ulp_of_mpmath():
    xs = mpmath_arguments()
    ys = log(xs)
    errors = mpmath_ulps(xs, ys)
    worst = max(range(len(xs)), key=errors.__getitem__)
    assert errors[worst] <= 1.0, (xs[worst].hex(), ys[worst].hex(), errors[worst])
    assert ys[0] == 0.0 and ys[0].hex() == "0x0.0p+0"  # log 1 is +0 exactly
    if LONG_DOUBLE:
        # the reference of the two-million test agrees with mpmath here
        assert np.max(np.abs(long_double_ulps(xs, ys) - errors)) < 2.0**-10


@pytest.mark.skipif(not LONG_DOUBLE, reason="long double has no 64-bit significand here")
def test_log_is_within_one_ulp_on_two_million_arguments():
    # 1 - u over uniforms u, over 1 - u spread evenly in magnitude from
    # 2**-53 to 1, and over u spread evenly in magnitude from 2**-53 to 1/2
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for part in range(8):
        size = 250_000
        if part < 4:
            xs = 1.0 - uniforms(f"{part}|log|test|uniform", size)
        elif part < 6:
            xs = np.floor(2.0 ** rng.uniform(0.0, 53.0, size)) * 2.0**-53
        else:
            xs = 1.0 - np.floor(2.0 ** rng.uniform(0.0, 52.0, size)) * 2.0**-53
        errors = long_double_ulps(xs, log(xs))
        i = int(np.argmax(errors))
        assert errors[i] <= 1.0 - 2.0**-10, (xs[i].hex(), errors[i])
        worst = max(worst, errors[i])
    assert worst > 0.5  # the check can fail: fdlibm's log is not correctly rounded


def test_python_log_is_the_extensions_bit_for_bit():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        mpmath_arguments(),
        np.floor(2.0 ** rng.uniform(0.0, 53.0, 100_000)) * 2.0**-53,
        [2.0**-1022, 5e-324, 2.0**-1060 * 3.0],  # the normal and subnormal ends of (0, 1]
    ])
    want = [v.hex() for v in np.frombuffer(kernel._loop.log(xs)).tolist()]
    assert [_reference._log(x).hex() for x in xs.tolist()] == want


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.0 + 2.0**-52, float("inf"), float("nan")])
def test_compiled_log_refuses_arguments_outside_its_range(bad):
    with pytest.raises(ValueError, match=r"log\(\): .* at 1 is outside \(0, 1\]"):
        kernel._loop.log(array("d", [0.5, bad]))
