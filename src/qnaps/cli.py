"""Command line front end.

    qnaps --config experiment.yaml [--seed S] [--replications N]
          [--horizon MS] [--warmup MS] [--jobs K] [--out DIR]
          [--format {csv,svg,table,all}]

Flags override the config file. The worker count is --jobs, else 1.
--format all selects every format the config can satisfy (svg only when
the config is plottable: it has a plot section and every sweep value is
a number; asking for --format svg explicitly when it is not is an
error).

Exit codes: 0 success, 1 the compiled event loop could not be built or
loaded (the import of qnaps.kernel raises ImportError, which names the
compiler's exit code and the tail of its stderr, or the load's error;
importing this module then prints it as one "qnaps:" line and exits),
2 configuration problem (bad file, bad flag value, model that does not
validate; an --out that is a file, or lies under one, is a bad flag
value, found before any replication runs and named on one "qnaps:"
line), 3 simulation deadlock, 4 internal invariant failure in the engine
(population leak, flow imbalance). A run whose stdout reader goes
away (qnaps ... | head -1) writes its files and exits as usual, its
progress lines going to os.devnull from then on.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

try:
    from .config import ConfigError, load_config
    from .kernel import DeadlockError, InvalidModelError, KernelError
    from .runner import run_experiment
except ImportError as exc:  # as when the compiled event loop cannot be built or loaded
    sys.exit(f"qnaps: {exc}")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEADLOCK = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qnaps",
        description="Queueing-network antipattern simulation experiments.",
    )
    p.add_argument("--config", required=True, metavar="PATH", help="experiment config file (schema v1)")
    p.add_argument("--seed", type=int, metavar="U64", help="override base seed")
    p.add_argument("--replications", type=int, metavar="N", help="override replication count")
    p.add_argument("--horizon", type=float, metavar="MS", help="override horizon (msec)")
    p.add_argument("--warmup", type=float, metavar="MS", help="override warmup (msec)")
    p.add_argument("--jobs", type=int, default=1, metavar="K", help="parallel replication workers (default: 1)")
    p.add_argument("--out", default="qnaps-out", metavar="DIR", help="output directory (default: qnaps-out)")
    p.add_argument("--format", choices=("csv", "svg", "table", "all"), help="override configured outputs")
    return p


def _echo(line: str) -> None:
    """Print line, flushed; once stdout's reader is gone, stdout is
    os.devnull (the signal module docs' "Note on SIGPIPE")."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _check_out(out: str) -> None:
    """ConfigError unless out is a directory or can be made one: the
    nearest of it and its parents that exists is one. Makes nothing."""
    path = Path(out).absolute()
    try:
        nearest = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:  # e.g. a name too long for the file system
        raise ConfigError(f"--out {out}: {exc.strerror}") from None
    if not nearest.is_dir():
        raise ConfigError(f"--out {out}: {nearest}: {os.strerror(errno.ENOTDIR)}")


def _worker_count(jobs: int) -> int:
    """ConfigError unless jobs, the --jobs value, is at least 1."""
    if jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {jobs}")
    return jobs


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.format is not None:
            if args.format == "all":
                outputs = ("csv", "table") + (("svg",) if cfg.plottable else ())
            else:
                outputs = (args.format,)
        else:
            outputs = None
        cfg = cfg.with_overrides(
            seed=args.seed,
            replications=args.replications,
            horizon=args.horizon,
            warmup=args.warmup,
            outputs=outputs,
        )
        jobs = _worker_count(args.jobs)
        _check_out(args.out)
        written = run_experiment(cfg, out_dir=args.out, jobs=jobs, echo=_echo)
        for path in written:
            _echo(f"wrote {path}")
        return EXIT_OK
    except (ConfigError, InvalidModelError) as exc:
        print(f"qnaps: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DeadlockError as exc:
        print(f"qnaps: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    except KernelError as exc:
        print(f"qnaps: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
