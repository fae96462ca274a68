"""The extension built for each target its lane log dispatches to.

The product build compiles log_lanes of _loop.c once per target, with
target_clones, and the loader runs the best one this CPU has, so the
other targets' code never runs in the other tests. Here _loop.c is built
once for each target this CPU can run, with -DLANE_TARGETS pinning
log_lanes to it (an empty pin: no target attribute, the generic vectors
of the default clone), every gcc warning of -Wall -Wextra an error as in
test_loop.py. Each build must give tests/_reference.py's bits: its log
on every lane of a vector and of a tail, on the mpmath arguments of
test_log.py and on a million more against the product build, and its
fills of every distribution kind, across chunks of the Erlang fill and
with more phases than a chunk has words. The product binary is checked
for fused multiply-add instructions, which would round differently, and
for its clones.
"""

import os
import platform
import re
import shutil
import subprocess
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

import _reference
from qnaps import kernel
from qnaps.kernel import _spec
from qnaps.model import Erlang

from test_kernel import NESTED
from test_log import lane_placements, mpmath_arguments, uniforms
from test_loop import kinds

CLONES = ("avx2", "avx512f")  # besides default, as in _loop.c's target_clones


def runnable_targets() -> list[str]:
    """default, and each clone target this CPU runs: on x86-64, those
    that /proc/cpuinfo lists among its flags."""
    flags = set()
    if platform.machine() == "x86_64" and os.path.exists("/proc/cpuinfo"):
        found = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
        flags = set(found.group(1).split()) if found else set()
    return ["default", *[t for t in CLONES if t in flags]]


@pytest.fixture(scope="module", params=runnable_targets())
def target_loop(request, tmp_path_factory):
    """The extension with log_lanes built for the target alone."""
    target = request.param
    pin = "" if target == "default" else f'__attribute__((target("{target}")))'
    path = tmp_path_factory.mktemp(target) / f"_loop{EXTENSION_SUFFIXES[0]}"
    done = kernel._compile("gcc", path, "-Wall", "-Wextra", "-Werror", f"-DLANE_TARGETS={pin}", timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return kernel._load(path)


def hexes(values) -> list[str]:
    return [v.hex() for v in values]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_each_targets_log_has_the_reference_bits(target_loop):
    for xs in lane_placements():
        assert hexes(target_loop.log(np.array(xs)).tolist()) == hexes(map(_reference._log, xs)), xs
    xs = mpmath_arguments()
    assert hexes(target_loop.log(xs).tolist()) == hexes(map(_reference._log, xs.tolist()))
    rng = np.random.default_rng(20261019)
    xs = np.concatenate([1.0 - uniforms("0|log|test|targets", 500_000),
                         np.floor(2.0 ** rng.uniform(0.0, 53.0, 500_001)) * 2.0**-53])
    want = np.frombuffer(kernel._loop.log(xs)).view(np.uint64)
    assert np.array_equal(np.frombuffer(target_loop.log(xs)).view(np.uint64), want)


# every kind and the nested mixtures, and an Erlang with more phases than
# a chunk of the fill has words
FILL_DISTS = {**kinds(10.0), **NESTED, "erlang-700": Erlang(700, 70.0)}


@cache
def reference_fills(name: str) -> list[str]:
    """tests/_reference.py's values 0 .. 1099 and 4093 .. 4101 of the
    sampler of FILL_DISTS[name], as hex."""
    n = 8 if name == "erlang-700" else 1100
    spec = _spec(FILL_DISTS[name], "43|st|cl|service")
    return hexes(_reference.fill(spec, 0, n).tolist() + _reference.fill(spec, 4093, 9).tolist())


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_each_targets_fills_have_the_reference_bits(target_loop):
    for name, dist in FILL_DISTS.items():
        n = 8 if name == "erlang-700" else 1100
        spec = _spec(dist, "43|st|cl|service")
        got = hexes(target_loop.fill(spec, 0, n).tolist() + target_loop.fill(spec, 4093, 9).tolist())
        assert got == reference_fills(name), name


@pytest.mark.skipif(shutil.which("objdump") is None,
                    reason="objdump is not installed, so the product binary cannot be disassembled")
def test_product_binary_has_its_clones_and_no_fused_multiply_add():
    done = subprocess.run(["objdump", "-d", kernel._loop.__file__], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.findall(r"\bvfn?m(?:add|sub)\w*", done.stdout) == []
    if platform.machine() == "x86_64":
        for target in CLONES:
            assert f"<log_lanes.{target}>:" in done.stdout
