"""Profile the compiled event loop by function and by source line, with a
sampling timer.

    python tools/profile_loop.py CONFIG [--rounds N]

CONFIG is a shipped config's name (src/qnaps/configs/CONFIG.yaml) or the
path of a config file. Builds src/qnaps/_loop.c with kernel._CFLAGS plus
-g into a temporary directory and loads that build as qnaps.kernel._loop,
so the product's source and its cached binary stay as they are (importing
qnaps.kernel builds the cached binary only when it is missing, as any run
does). Builds a small C sampler there too and loads it with ctypes: a
SIGPROF handler that records the interrupted instruction pointer, REG_RIP
of its ucontext, under an ITIMER_PROF timer. Then runs every replication
of the config's points N times (default 10), one after another on this
thread, finds the loop build's load address in /proc/self/maps and maps
each sample that fell inside it to its function and its _loop.c line with
addr2line -f -i. Prints each function's share of those samples, as the
innermost inlined function (self) and with what is inlined into it
(total), the share of each _loop.c line with its function, and the
instructions that drew the most samples, by offset in the build. Samples in
the interpreter, libc or libm count only in the header line.

The profiling timer fires at most once a kernel tick: on a 250 Hz kernel,
about every 4 ms of CPU time whatever interval is asked, so one round of
table6_validation gives about 30 samples, and about 1,200 samples take 40
rounds. Linux on x86-64 only, since the handler reads REG_RIP; refuses any
other machine, and one without addr2line or gcc, naming what is missing, with
exit 2.
"""
from __future__ import annotations

import argparse
import ctypes
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from qnaps import kernel  # noqa: E402  (for its build of the source, and the loop)
from qnaps.config import load_config  # noqa: E402
from qnaps.runner import replication_seed  # noqa: E402

INTERVAL_US = 1000  # asked of the timer; the kernel's tick bounds it from below
TOP_LINES = 30
TOP_INSTRUCTIONS = 10

SAMPLER = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1 << 20)
static unsigned long long pcs[CAP];
static long taken;

static void
on_prof(int sig, siginfo_t *info, void *uc)
{
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        pcs[i] = (unsigned long long)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

int
sampler_start(long usec)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    struct itimerval every = {{0, usec}, {0, usec}};
    return sigaction(SIGPROF, &sa, NULL) || setitimer(ITIMER_PROF, &every, NULL) ? -1 : 0;
}

int
sampler_stop(void)
{
    struct itimerval never = {{0, 0}, {0, 0}};
    return setitimer(ITIMER_PROF, &never, NULL);
}

long
sampler_count(void)
{
    return taken < CAP ? taken : CAP;
}

const unsigned long long *
sampler_pcs(void)
{
    return pcs;
}
"""


def refusal() -> str | None:
    """Why this machine cannot be profiled, or None."""
    if sys.platform != "linux" or platform.machine() != "x86_64":
        return f"x86-64 Linux only (the sampler reads REG_RIP), not {sys.platform} on {platform.machine()}"
    if shutil.which("addr2line") is None:
        return "no addr2line on PATH"
    if shutil.which("gcc") is None:
        return "no gcc on PATH"
    return None


def built(done: subprocess.CompletedProcess) -> None:
    """Exits naming the failure when done, a run of gcc, failed."""
    if done.returncode:
        sys.exit(f"profile_loop: gcc exited {done.returncode}: {done.stderr}")


def mapped_range(path: Path) -> tuple[int, int, int]:
    """(load address, first, end) of the file at path in this process: the
    load address is where its offset 0 is mapped."""
    base, lo, hi = None, None, None
    for line in Path("/proc/self/maps").read_text().splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and fields[5] == str(path):
            start, end = (int(x, 16) for x in fields[0].split("-"))
            if int(fields[2], 16) == 0:
                base = start if base is None else min(base, start)
            lo = start if lo is None else min(lo, start)
            hi = end if hi is None else max(hi, end)
    if base is None:
        sys.exit(f"profile_loop: {path} is not mapped in this process")
    return base, lo, hi


def locate(build: Path, offsets: list[int]) -> dict[int, list[tuple[str, str]]]:
    """Each offset's inline chain from addr2line -f -i: (function,
    file:line) pairs, innermost first."""
    text = "".join(f"{hex(o)}\n" for o in offsets)
    done = subprocess.run(["addr2line", "-a", "-f", "-i", "-e", str(build)], input=text,
                          capture_output=True, text=True, check=True)
    chains, current = {}, None
    lines = done.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = chains.setdefault(int(lines[i], 16), [])
            i += 1
            continue
        where = lines[i + 1].split(" (discriminator")[0] if i + 1 < len(lines) else "??:0"
        current.append((lines[i], where))
        i += 2
    return chains


def innermost(chains, offset: int) -> tuple[str, str]:
    """The innermost function of offset and its file:line, the file by name."""
    function, where = (chains.get(offset) or [("??", "??:0")])[0]
    file, _, line = where.rpartition(":")
    return function, f"{Path(file).name}:{line}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="a shipped config's name, or a config file")
    parser.add_argument("--rounds", type=int, default=10, help="times to run every replication")
    args = parser.parse_args(argv)
    why = refusal()
    if why is not None:
        print(f"profile_loop: {why}", file=sys.stderr)
        return 2
    path = Path(args.config)
    if not path.exists():
        path = ROOT / "src" / "qnaps" / "configs" / f"{args.config}.yaml"
    cfg = load_config(path)

    with tempfile.TemporaryDirectory() as tmp:
        build = Path(tmp) / f"_loop{EXTENSION_SUFFIXES[0]}"
        built(kernel._compile("gcc", build, "-g"))
        (Path(tmp) / "sampler.c").write_text(SAMPLER)
        built(subprocess.run(["gcc", "-O2", "-fPIC", "-shared", str(Path(tmp) / "sampler.c"),
                              "-o", str(Path(tmp) / "sampler.so")], capture_output=True, text=True))
        kernel._loop = kernel._load(build)
        sampler = ctypes.CDLL(str(Path(tmp) / "sampler.so"))
        sampler.sampler_pcs.restype = ctypes.POINTER(ctypes.c_ulonglong)
        sampler.sampler_count.restype = ctypes.c_long

        if sampler.sampler_start(ctypes.c_long(INTERVAL_US)) != 0:
            sys.exit("profile_loop: cannot start the profiling timer")
        try:
            for _ in range(args.rounds):
                for i, point in enumerate(cfg.points):
                    for r in range(cfg.replications):
                        kernel.run_replication(point.model, replication_seed(cfg.seed, i, r),
                                               cfg.horizon, cfg.warmup)
        finally:
            sampler.sampler_stop()
        pcs = sampler.sampler_pcs()[:sampler.sampler_count()]
        base, lo, hi = mapped_range(build)
        inside = Counter(pc - base for pc in pcs if lo <= pc < hi)
        chains = locate(build, sorted(inside))

    n = sum(inside.values())
    print(f"profile_loop: {cfg.experiment}, {args.rounds} rounds: {len(pcs)} samples, {n} of them "
          f"in the loop's build")
    if n == 0:
        return 0
    own, total, lines = Counter(), Counter(), Counter()
    for offset, count in inside.items():
        function, where = innermost(chains, offset)
        own[function] += count
        for name in {f for f, _ in chains.get(offset, [])} or {function}:
            total[name] += count
        lines[(where, function)] += count
    print("\n  self   total  function (self: innermost inlined function; total: with its inlined callees)")
    for name in sorted(total, key=lambda f: (-own[f], -total[f], f)):
        print(f"{100 * own[name] / n:6.1f}% {100 * total[name] / n:6.1f}%  {name}")
    print(f"\n share  line  function (the {TOP_LINES} lines with the most samples)")
    for (where, function), count in lines.most_common(TOP_LINES):
        print(f"{100 * count / n:6.1f}%  {where}  {function}")
    print(f"\n share  offset  line  function (the {TOP_INSTRUCTIONS} instructions with the most samples)")
    for offset, count in inside.most_common(TOP_INSTRUCTIONS):
        function, where = innermost(chains, offset)
        print(f"{100 * count / n:6.1f}%  {offset:#x}  {where}  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
