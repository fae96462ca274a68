"""Deterministic discrete-event engine for queueing network models.

Random numbers come from one Philox4x64-10 counter-based stream per
(station, class, purpose) triple. A stream is its name,
f"{seed}|{station}|{class}|{purpose}", and _key(name) is its key, the
first 16 bytes of the name's SHA-256. Structural edits to a model
therefore never disturb the word sequences of untouched streams, which
is what makes neutral model transforms reproduce baseline runs bit for
bit. A uniform is the top 53 bits of one raw word times 2**-53, which is
what numpy's Generator.random computes from the same words. Philox is
counter-based, each word a pure function of the key and its position, so
a sampler is data: its spec, a small tuple tree that _spec makes from a
distribution and its stream's name (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011); the loops take its values in
order from value 0. Every sampler is one, the routing uniforms, each
open class's arrival gaps and the closed classes' init phases too.
fill(spec, first, n) makes values first .. first + n - 1: a leaf that
takes k words a value (exponential and uniform 1, Erlang its phases)
makes value j from words jk .. jk + k - 1 of its stream, and a mixture
makes value j from value j of its branch uniforms, its base and its
extra, each on a part stream of its own, so no value depends on how many
are made at once. An exponential or Erlang value, arrival gaps included,
is a sum of -log(1 - u) times 1 / rate (1 - u is exact, so this is
-log1p(-u)) with fdlibm's log in plain double operations, so no value
depends on the CPU, on a libm or on numpy. fill is in the compiled
extension; tests/_reference.py has the same fill in Python, bit for bit,
with the words from numpy's Philox: its specification.

run_replication(model, seed, horizon, warmup) is a pure function of its
arguments. The measurement window is [warmup, horizon): completion samples
are kept when they land inside it, and time averages are accumulated
through the sojourn identity (integral of the job count equals the sum of
per-job residence times clipped to the window), with jobs still alive at
the horizon closed out by a final sweep over the calendar, the queues and
the parked sets. The sweep adds up the calendar in heap-array order, so
the samples depend on the heap's layout, not only on the order of its
pops: a heapreplace in place of a pop and a push changes them. A source
is a station like any other: an open class's external arrival gaps are
the sampler of its source cell, drawn from its own stream, and that
cell's route row is where the class enters. The loop holds only each
class's next arrival time; when it takes an arrival at t, it draws a gap
and the next arrival is t + gap, as a service completion is its start
plus the service time. So arrivals need memory per class, not per job,
and every sampler is a pure function of its stream's positions. The
earliest next arrival goes first, ties going to the lower class index
and arrivals winning ties against the calendar; calendar events with
equal times fire in scheduling order. An arrival and a service
completion leave through the same routing step: sink, cycle close,
finite-capacity drop, then fcfs or delay entry. Arrivals never touch the
calendar or its sequence numbers.

A replication is build, loop, finalize (run_replication). _build is the
one place that decides the engine's layout, and draws no value: a flat,
index-based _Table of int32 and float64 arrays (per station, per
(station, class) cell with one route row each in CSR form, detection
flush lists, and per class its reference station, population and init
sampler, closed classes only) plus the spec of every sampler (specs). A
class is watched when a flush list names it. The loop,
_loop.run(*table), makes the t = 0 state by its own rules: each open
class's first gap is its first arrival time, and each closed job, in
class order, enters its reference station by the loop's own entry step,
but at a delay thinks for a random phase of its think time, which
desynchronizes cycles. When closed jobs exist but nothing can ever
happen (no event on the calendar and no arrival before the horizon), it
returns None, and run_replication raises DeadlockError; otherwise it
returns its tally, the fields of a _Tally in order, which _finalize
reads by name and turns into samples. The loop is one C extension,
_loop.c, which copies the table's arrays and reads its specs into C
structs, checking each once, on entry.
tests/_reference.py has the same loop in Python, the executable
specification the tests compare the compiled loop against bit for bit.
The two share this contract: they make the t = 0 state in the same
order, every float operation is done in the same order and grouping; the
calendar is a binary heap with heapq's sift algorithm keyed on (t, seq),
so its array layout, and with it the closing sweep, is the same; and
random values come only from the samplers, block_size of them to a fill:
the Python loop takes them from the fill it is given, and the compiled
loop from a buffer per sampler that it refills in C, so it calls no
Python function. The compiled loop makes the t = 0 state with the GIL
held, then runs without it, taking it back only for its signal check and
its errors, so replications on threads run in parallel. The extension is
built when this module is imported, with gcc -O2 -ffp-contract=off (no
fused multiply-add, no -ffast-math), into src/qnaps/__pycache__ under a
name keyed by the sha256 of _loop.c and the flags, so an edited source
never loads an old binary. On x86-64 the samplers' log is built for
AVX-512, AVX2 and the baseline, and the loader picks the best this CPU
has; IEEE add, multiply and divide round the same in any register, so
all give the same bits, and so does the generic build on other machines.
gcc runs, and subprocess and sysconfig are imported, only when no cached
binary exists; otherwise the import just loads the cached file. If it
cannot be built or loaded, the import raises ImportError with the
compiler's exit code and the tail of its stderr, or the load's error:
gcc and the Python headers are required.
"""
from __future__ import annotations

import math
import os
from array import array
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import NamedTuple

from . import sha256
from .model import (
    ALL_CLASSES,
    DELAY,
    FCFS,
    METRICS,
    SINK,
    SOURCE,
    SYSTEM_STATION,
    NetworkModel,
    Uniform,
    _class_start,
    validate_model,
)
from .stats import MetricSample, ReplicationResult

_INF = math.inf
_BLOCK = 4096  # values per fill of a sampler, the same for every sampler
_U01 = Uniform(0.0, 1.0)  # the routing and init uniforms


class KernelError(RuntimeError):
    pass


class InvalidModelError(KernelError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("invalid model: " + "; ".join(self.diagnostics))


class DeadlockError(KernelError):
    """No enabled event anywhere while closed classes still hold jobs."""

    def __init__(self, class_names):
        self.class_names = list(class_names)
        super().__init__(
            "simulation deadlock: closed class(es) with no enabled event: "
            + ", ".join(self.class_names)
        )


def _key(name: str) -> tuple[int, int]:
    """The two 64-bit words of the key of the stream called name: the
    first 16 bytes of the name's SHA-256, read little-endian. A stream is
    its name, f"{seed}|{station}|{class}|{purpose}", and a part of a
    sampler's is name + "/branch", "/base" or "/extra"; no purpose holds
    a /, so a part stream meets no other stream."""
    digest = sha256(name.encode()).digest()
    return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little")


# station kind codes of _Table.kind
_KC_FCFS = 0
_KC_DELAY = 1
_KC_SOURCE = 2
_KC_SINK = 3
_KC = {FCFS: _KC_FCFS, DELAY: _KC_DELAY, SOURCE: _KC_SOURCE, SINK: _KC_SINK}


class _Table(NamedTuple):
    """The engine's layout, decided by _build and read by the loop. Stations
    and classes are numbered in model order; a cell is a (station,
    class) pair, numbered s * nclasses + c. Index tables are array('i')
    (int32), times and probabilities array('d'); a sampler is an index
    into specs, and -1 means none. The compiled loop takes the fields in
    this order."""

    horizon: float
    warmup: float
    block_size: int       # values per fill of a sampler, in either loop
    kind: array           # per station: its _KC_* code
    servers: array        # per station
    capacity: array       # per station: inf when unbounded
    sampler: array        # per cell: sampler of its service times, or at a source of
                          #   its class's arrival gaps; -1 if neither
    route_ptr: array      # per cell: its class leaving its station (a source: entering
    route_to: array       #   the network) goes to route_to[route_ptr[k]:route_ptr[k+1]]
    route_cum: array      #   with these cumulative probabilities
    route_sampler: array  # per cell: sampler of its routing uniforms, -1 with one successor
    flush_ptr: array      # per cell (station, poller class): a completion there
    flush_cls: array      #   flushes the classes flush_cls[flush_ptr[k]:flush_ptr[k+1]]
    reference: array      # per class: its reference station if closed, else -1
    population: array     # per class: its job count if closed, else 0
    init: array           # per class: the sampler of the phases of its first think
                          #   times when its reference station is a delay, else -1
    specs: list           # per sampler: its spec


class _Tally(NamedTuple):
    """What the loop counted in one replication: a list per field, of a
    value per cell (s * nclasses + c) or per class, counts as ints. The
    loops return the fields in this order, _loop.c from its TALLY table."""

    area: list     # per cell: the integral of its job count over the window
    barea: list    #   the integral of its busy servers
    ssum: list     #   the sum of its station sojourns that end inside the window
    scnt: list     #   their count
    drops: list    #   its drops inside the window
    created: list  # per class: its jobs created
    sunk: list     #   its jobs that reached a sink
    dropped: list  #   its jobs dropped
    live: list     #   its jobs alive at the horizon
    rsum: list     #   the sum of its response (open) or cycle (closed) times in the window
    rcnt: list     #   their count
    larea: list    #   the integral of its in-system job count


def _spec(dist, name: str) -> tuple:
    """The spec of the sampler of dist's values on the stream called name:
    a tuple tree that fill() reads, of these nodes, with k0, k1 = _key of
    a stream's name:
      ("const", value): a deterministic value, or a rate-0 exponential's
        inf; it takes no words;
      ("uniform", k0, k1, low, span): low + span * u of word j;
      ("erlang", k0, k1, k, scale): -(log(1 - u1) + ... + log(1 - uk))
        over words jk .. jk + k - 1, times scale = 1 / rate; an
        exponential, an arrival gap's too, is k = 1;
      ("shift", offset, base): offset + value j of base, on name;
      ("mixture", k0, k1, p, base, extra): base value j, plus extra value
        j when uniform j of k0, k1 is below p; the uniforms, base and
        extra are on the part streams name + "/branch", "/base" and
        "/extra"."""
    kind = dist.kind
    if kind == "deterministic" or (kind == "exponential" and dist.rate == 0.0):
        return ("const", float(dist.mean()))
    if kind in ("exponential", "erlang"):
        k = dist.phases if kind == "erlang" else 1
        return ("erlang", *_key(name), k, 1.0 / dist.rate)
    if kind == "uniform":
        return ("uniform", *_key(name), dist.low, dist.high - dist.low)
    if kind == "shifted":
        return ("shift", float(dist.offset), _spec(dist.base, name))
    if kind == "mixture":
        return ("mixture", *_key(name + "/branch"), dist.p_extra,
                _spec(dist.base, name + "/base"), _spec(dist.extra, name + "/extra"))
    raise ValueError(f"unknown distribution {dist!r}")


def _build(model: NetworkModel, seed: int, horizon: float, warmup: float) -> _Table:
    """The _Table the loop runs one replication of model on."""
    seed = int(seed)
    stations, classes = model.stations, model.classes
    sidx = {s.name: i for i, s in enumerate(stations)}
    cidx = {jc.name: i for i, jc in enumerate(classes)}
    ncl = len(classes)
    specs = []

    def index(spec):
        specs.append(spec)
        return len(specs) - 1

    kind = [_KC[s.kind] for s in stations]
    sampler = [-1] * (len(stations) * ncl)
    for s, st in enumerate(stations):
        if kind[s] in (_KC_FCFS, _KC_DELAY):
            for cname, dist in st.service.items():
                name = f"{seed}|{st.name}|{cname}|service"
                sampler[s * ncl + cidx[cname]] = index(_spec(dist, name))

    # each open class's arrival gaps at its source, each closed class's
    # reference station and population; the loops add a gap to the time
    # of the arrival it follows, so the first infinite gap (a rate-0
    # exponential, or an infinite part of a mixture) ends the class's arrivals
    reference, population = [-1] * ncl, [0] * ncl
    flush = [[] for _ in sampler]
    for c, jc in enumerate(classes):
        home = _class_start(model, jc)
        if jc.kind == "closed":
            reference[c], population[c] = sidx[home], jc.population
        elif home is not None:
            gaps = _spec(jc.arrival, f"{seed}|{home}|{jc.name}|arrival")
            sampler[sidx[home] * ncl + c] = index(gaps)
        watcher = model.detection.get(jc.name)
        if watcher is not None:
            flush[sidx[watcher[1]] * ncl + cidx[watcher[0]]].append(c)

    # route rows: a served cell's class leaving its station, a source
    # cell's entering the network; every other row is empty
    route_ptr, route_to, route_cum, route_sampler = [0], [], [], []
    for k, b in enumerate(sampler):
        row = classes[k % ncl].name, stations[k // ncl].name
        targets = model.routing.successors(*row) if b >= 0 else None
        u01 = -1
        if targets:
            acc = 0.0
            for to, p in targets:
                acc += p
                route_to.append(sidx[to])
                route_cum.append(acc)
            route_cum[-1] = 1.0 + 1e-12  # guard against float dust on the last edge
            if len(targets) > 1:
                u01 = index(_spec(_U01, f"{seed}|{row[1]}|{row[0]}|routing"))
        route_sampler.append(u01)
        route_ptr.append(len(route_to))

    # at a delay reference each job of a closed population first thinks
    # for a random phase of its think time, which desynchronizes cycles
    init = [index(_spec(_U01, f"{seed}|{jc.reference}|{jc.name}|init"))
            if s >= 0 and kind[s] == _KC_DELAY else -1 for s, jc in zip(reference, classes)]

    def ints(values):
        return array("i", values)

    def floats(values):
        return array("d", values)

    flush_ptr = ints(accumulate((len(f) for f in flush), initial=0))
    return _Table(
        float(horizon), float(warmup), _BLOCK,
        ints(kind), floats(s.servers for s in stations),
        floats(_INF if s.capacity is None else s.capacity for s in stations),
        ints(sampler),
        ints(route_ptr), ints(route_to), floats(route_cum),
        ints(route_sampler), flush_ptr, ints(c for f in flush for c in f),
        ints(reference), ints(population), ints(init), specs,
    )


def _finalize(model: NetworkModel, seed: int, table: _Table, tally) -> ReplicationResult:
    """The samples of the tally the loop returned on table: the fields of
    a _Tally, in order."""
    T = _Tally(*tally)
    ncl = len(model.classes)
    _check_conservation(model, T)

    window = table.horizon - table.warmup
    samples = []

    def row(station, cname, metrics, servers, area, barea, ssum, scnt, drops):
        value = {
            "utilization": barea / (servers * window),
            # no completion in the window: no sample, not a time of 0
            "response-time-msec": ssum / scnt if scnt else math.nan,
            "throughput-per-msec": scnt / window,
            "queue-length": area / window,
            "dropped-count": float(drops),
            "dropped-rate-per-msec": drops / window,
        }
        samples.extend(MetricSample(station, cname, m, value[m]) for m in metrics)

    for s, st in enumerate(model.stations):
        metrics = METRICS.get(st.kind)
        if metrics is None:
            continue
        # a running total from 0.0 in class order, not sum(): its float
        # summation is compensated from Python 3.12 on
        total = (0.0, 0.0, 0.0, 0, 0)
        for c, jc in enumerate(model.classes):
            if jc.name in st.service:
                k = s * ncl + c
                cell = T.area[k], T.barea[k], T.ssum[k], T.scnt[k], T.drops[k]
                row(st.name, jc.name, metrics, st.servers, *cell)
                total = tuple(map(add, total, cell))
        row(st.name, ALL_CLASSES, metrics, st.servers, *total)

    for c, jc in enumerate(model.classes):
        row(SYSTEM_STATION, jc.name, METRICS[SYSTEM_STATION], 1, T.larea[c], 0.0, T.rsum[c], T.rcnt[c], 0)

    return ReplicationResult(seed, table.horizon, table.warmup, samples)


def _check_conservation(model: NetworkModel, T: _Tally) -> None:
    """KernelError unless every job of the tally's classes is accounted for."""
    for jc, created, sunk, dropped, live in zip(model.classes, T.created, T.sunk, T.dropped, T.live):
        if jc.kind == "closed":
            if live != jc.population:
                raise KernelError(
                    f"closed population leak: class {jc.name} holds {live} of {jc.population}"
                )
        elif created != sunk + dropped + live:
            raise KernelError(
                f"flow imbalance for class {jc.name}: created {created}, "
                f"sunk {sunk}, dropped {dropped}, in network {live}"
            )


def run_replication(model: NetworkModel, seed: int, horizon: float, warmup: float = 0.0) -> ReplicationResult:
    """Simulate one replication. Pure in (model, seed, horizon, warmup)."""
    if not math.isfinite(horizon):
        raise ValueError(f"horizon {horizon} must be finite")
    if not warmup >= 0.0:
        raise ValueError(f"warmup {warmup} must be at least 0")
    if not warmup < horizon:
        raise ValueError(f"warmup {warmup} must be below horizon {horizon}")
    diags = validate_model(model)
    if diags:
        raise InvalidModelError(diags)
    table = _build(model, seed, horizon, warmup)
    tally = _loop.run(*table)
    if tally is None:
        raise DeadlockError(jc.name for jc in model.classes if jc.kind == "closed")
    return _finalize(model, seed, table, tally)


_LOOP_SOURCE = Path(__file__).with_name("_loop.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-strict-aliasing", "-fPIC", "-shared")


def _loop_path(source: bytes, cache_dir: Path) -> Path:
    """Cache file of the extension built from source with _CFLAGS."""
    tag = sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    return cache_dir / f"_loop_{tag}{EXTENSION_SUFFIXES[0]}"


def _compile(cc: str, out: Path, *flags: str, timeout: float | None = None):
    """_loop.c built with compiler cc, _CFLAGS and flags into out: the
    compiler's CompletedProcess, its output as text. Raises OSError when
    cc cannot be run, and subprocess.TimeoutExpired past timeout."""
    import subprocess  # the compiler tools load only on a cache miss
    import sysconfig

    include = "-I" + sysconfig.get_paths()["include"]
    return subprocess.run([cc, *_CFLAGS, *flags, include, str(_LOOP_SOURCE), "-o", str(out)],
                          capture_output=True, text=True, timeout=timeout)


def _load(path: Path):
    """The extension built at path, loaded as qnaps._loop."""
    loader = ExtensionFileLoader("qnaps._loop", str(path))
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def _build_loop(cc: str, cache_dir: Path):
    """The compiled event loop: _loop.c built with compiler cc into
    cache_dir unless its cache file is there, then loaded. A build
    removes the binaries of other sources. When it cannot be built or
    loaded, ImportError naming why: the compiler's exit code and the
    tail of its stderr, or the error that stopped the build or the load."""
    tmp = reason = None
    try:
        path = _loop_path(_LOOP_SOURCE.read_bytes(), cache_dir)
        if not path.exists():
            cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            done = _compile(cc, tmp)
            if done.returncode:
                reason = f"{cc} exited {done.returncode}: {done.stderr.strip()[-2000:]}"
            else:
                os.replace(tmp, path)
                for old in cache_dir.glob(f"_loop_*{EXTENSION_SUFFIXES[0]}"):
                    if old != path:
                        old.unlink(missing_ok=True)
        if reason is None:
            return _load(path)
    except (OSError, ImportError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
    raise ImportError(f"compiled event loop unavailable ({reason})")


_loop = _build_loop("gcc", Path(__file__).with_name("__pycache__"))
