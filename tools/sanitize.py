"""Run the compiled loop's tests on a build of it under AddressSanitizer
and UndefinedBehaviorSanitizer.

    python tools/sanitize.py

Builds src/qnaps/_loop.c with kernel._CFLAGS (whose -g gives the
sanitizers' reports their source lines) plus SANITIZE_FLAGS through
kernel._built into src/qnaps/__pycache__/sanitize, so the product's cached
binary is untouched and a later call with the same source compiles
nothing; the tests run on every call. Then a child interpreter, with
gcc's libasan and libubsan preloaded (LD_PRELOAD) and
ASAN_OPTIONS=detect_leaks=0:allocator_may_return_null=1, loads that
build as qnaps.kernel._loop and runs pytest on TESTS: the log on every
lane and tail, the engine pins, the compiled fills against the
reference's, mixtures at the edges of the fill among them, the compiled
loop against the reference loop on the models that stress the calendar
(tied times, a closed cycle, two sources, a calendar of about 250
events, tied arrivals, times of -0.0 and +0.0, and a closed population
that overfills its fcfs reference at t = 0), the checks the loop
makes on its table on entry, which keep its t = 0 set-up in bounds, the
deadlock boundary, the loop run without the GIL on a thread and failing
mid-run on two threads at once, and a fixed-seed fuzz of tables and
specs changed at random. Leaks are not
reported: the interpreter itself keeps memory to its exit. Exits 0 when the tests pass and neither
sanitizer printed a word; 1, printing the child's output, when a test
fails or a sanitizer reports; 2 when gcc finds no libasan.so or
libubsan.so, or the build fails. ThreadSanitizer is out of reach:
preloading gcc 12's libtsan crashed CPython 3.11.7 at start-up, before
any qnaps code ran, so the loop's threads are not checked for races.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from qnaps import kernel  # noqa: E402  (for its build of the source)

SANITIZE_FLAGS = ("-O1", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined")
TESTS = ("tests/test_log.py", "tests/test_engine_pin.py",
         "tests/test_kernel.py::test_compiled_fills_equal_the_python_fills",
         *(f"tests/test_loop.py::test_compiled_loop_matches_the_python_loop[{name}]"
           for name in ("ties", "closed_cycle", "two_sources", "deep_calendar", "arrival_ties",
                        "signed_zero", "closed_over_capacity")),
         "tests/test_loop.py::test_compiled_loop_checks_its_table_on_entry",
         "tests/test_kernel.py::test_deadlock_boundary",
         "tests/test_loop.py::test_compiled_loop_runs_without_the_gil",
         "tests/test_loop.py::test_mid_run_errors_are_the_same_on_any_thread",
         "tests/test_loop.py::test_fuzzed_tables_run_or_raise")
REPORT = re.compile(r"Sanitizer|runtime error:")

# load the build in argv[1] as qnaps.kernel._loop, then run pytest on
# argv[2:] without capturing: a sanitizer that stops the process writes its
# report to file descriptor 2, which pytest's capture would swallow
CHILD = """
import sys
import pytest
from qnaps import kernel
kernel._loop = kernel._load(sys.argv[1])
sys.exit(pytest.main(["-q", "-s", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def runtimes() -> list[str] | None:
    """gcc's libasan.so and libubsan.so, or None when it finds either
    not: it then prints the bare name back."""
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        done = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True, text=True)
        path = done.stdout.strip()
        if done.returncode or not os.path.isabs(path) or not os.path.exists(path):
            return None
        paths.append(path)
    return paths


def main() -> int:
    libs = runtimes()
    if libs is None:
        print("sanitize: gcc finds no libasan.so or libubsan.so", file=sys.stderr)
        return 2
    try:
        build = kernel._built("gcc", kernel._CACHE / "sanitize", *SANITIZE_FLAGS)
    except ImportError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2
    env = {**os.environ, "LD_PRELOAD": " ".join(libs),
           "ASAN_OPTIONS": "detect_leaks=0:allocator_may_return_null=1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", CHILD, str(build), *TESTS], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    output = run.stdout + run.stderr
    if run.returncode or REPORT.search(output):
        print(output)
        print(f"sanitize: the sanitized tests exited {run.returncode}", file=sys.stderr)
        return 1
    print(output.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
