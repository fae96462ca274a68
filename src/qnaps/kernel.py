"""Deterministic discrete-event engine for queueing network models.

Random numbers come from one Philox4x64-10 counter-based generator per
(station, class, purpose) triple, keyed by SHA-256 of the replication seed
and the triple. Structural edits to a model therefore never disturb the
word sequences of untouched streams, which is what makes neutral model
transforms reproduce baseline runs bit for bit. A uniform is the top 53
bits of one raw word times 2**-53, which is what numpy's Generator.random
computes from the same words. Philox is counter-based, each word a pure
function of the key and its position, so a sampler is data: its spec, a
small tuple tree that _spec makes from a distribution and its stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
and the index of its next value. Every sampler is one, the routing
uniforms and each open class's arrival gaps too. fill(spec, first, n)
makes values first .. first + n - 1: a leaf that takes k words a value
(exponential and uniform 1, Erlang its phases) makes value j from words
jk .. jk + k - 1 of its stream, and a mixture makes value j from value j
of its branch uniforms, its base and its extra, each on a part stream of
its own, so no value depends on how many are made at once. An
exponential or Erlang value is -log(1 - u) (1 - u is exact, so this is
-log1p(-u)) with fdlibm's log in plain double operations, so no value
depends on the CPU, on a libm or on numpy. fill is in the compiled
extension; _PythonFills is the same fill in Python, bit for bit, and its
fallback, with the words from numpy's Philox; numpy is imported only
then. The closed-class init phase takes one word per job.

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

_Engine._build is the one place that decides the engine's layout: it
samples what is needed before the run (each open class's first gap,
which is its first arrival time, and the closed populations' t = 0 think
and service times), each sampler with one fill of exactly the values it
places, and emits a flat, index-based _Table of int32 and float64 arrays
(per station, per (station, class) cell with one route row each in CSR
form, detection flush lists, per class its reference station, closed
classes only, and the t = 0 placements: the first arrivals at the
sources, then the closed populations) plus the spec of every sampler
and the index of its next value, the values _build did not place. A
class is watched when a flush list names it. Both loops run on that
table and return the same tally, per cell and per class, which
_Engine._finalize turns into samples. _Engine.run is one C extension,
_loop.c, which copies the table's arrays and reads its specs into C
structs, checking each once, on entry; _Engine._run_python is the same
loop in Python, kept as the executable specification the tests compare
the compiled loop against bit for bit. The two share this contract:
they replay the placements in the same order, every float operation is
done in the same order and grouping; the calendar is a binary heap with
heapq's sift algorithm keyed on (t, seq), so its array layout, and with
it the closing sweep, is the same; and random values come only from the
samplers, block_size of them to a fill: the Python loop takes them with
next() from _values, and the compiled loop from a buffer per sampler
that it refills in C, so it calls no Python function. The extension is
built when this module is imported, with gcc -O2 -ffp-contract=off (no
fused multiply-add, no -ffast-math; x86-64 does its double arithmetic in
SSE2 registers), into src/qnaps/__pycache__ under a name keyed by the
sha256 of _loop.c and the flags, so an edited source never loads an old
binary. gcc runs, and subprocess and sysconfig are imported, only when
no cached binary exists; otherwise the import just loads the cached
file. If it cannot be built or loaded, one warning goes to stderr, and
run() uses the Python loop and fill _PythonFills.fill.
"""
from __future__ import annotations

import heapq
import math
import os
import sys
from array import array
from collections import deque
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from itertools import accumulate, count
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

    def __reduce__(self):  # args holds the joined message, not diagnostics
        return (type(self), (self.diagnostics,))


class DeadlockError(KernelError):
    """No enabled event anywhere while closed classes still hold jobs."""

    def __init__(self, class_names):
        self.class_names = list(class_names)
        super().__init__(
            "simulation deadlock: closed class(es) with no enabled event: "
            + ", ".join(self.class_names)
        )

    def __reduce__(self):  # survive a trip through a worker process
        return (type(self), (self.class_names,))


class RngStream:
    """One Philox stream for one (station, class, purpose) triple: a pure
    function of its key, so two streams with one key hand out the same
    words. It holds the key's two 64-bit words and the position of its
    next word; the compiled extension computes words from those alone, so
    a stream costs no generator state and reads no OS entropy."""

    __slots__ = ("seed", "station_id", "class_id", "purpose", "k0", "k1", "pos")

    def __init__(self, seed: int, station_id: str, class_id: str, purpose: str):
        self.seed = seed
        self.station_id = station_id
        self.class_id = class_id
        self.purpose = purpose
        digest = sha256(f"{seed}|{station_id}|{class_id}|{purpose}".encode()).digest()
        self.k0 = int.from_bytes(digest[:8], "little")
        self.k1 = int.from_bytes(digest[8:16], "little")
        self.pos = 0

    def part(self, tag: str) -> RngStream:
        """The stream of part tag of a sampler on this stream, keyed by
        purpose/tag. No top-level purpose holds a /, so a part stream
        meets no other stream."""
        return RngStream(self.seed, self.station_id, self.class_id, f"{self.purpose}/{tag}")

    def take(self, n: int) -> int:
        """The position of the next word, moving the stream past n words."""
        start = self.pos
        self.pos = start + n
        return start

    def uniforms(self, n: int):
        """The next n raw words as uniforms on [0, 1), from their top 53
        bits, in a float64 buffer."""
        return _fills().fill(_spec(_U01, self), self.take(n), n)


def _philox_uniforms(k0: int, k1: int, start: int, n: int):
    """Words start .. start + n - 1 of the stream keyed k0 | k1 << 64 as
    uniforms in a numpy array, from numpy's Philox: the specification of
    the extension's words and their fallback. numpy's Philox makes block b
    at counter b + 1, so a generator at counter start // 4 begins at that
    word's block."""
    from numpy.random import Generator, Philox  # only without the extension

    skip = start % 4
    return Generator(Philox(key=k0 | k1 << 64, counter=start // 4)).random(skip + n)[skip:]


# fdlibm's e_log.c (Sun Microsystems, 1993), as in _loop.c: ln 2 split
# into a head with a short significand and a tail, and the coefficients
# of its minimax polynomial in z = s*s, s = f / (2 + f)
_LN2_HI = float.fromhex("0x1.62e42feep-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_LG1, _LG2, _LG3, _LG4, _LG5, _LG6, _LG7 = map(float.fromhex, (
    "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2",
    "0x1.c71c51d8e78afp-3", "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3",
    "0x1.2f112df3e5244p-3"))


def _log(x: float) -> float:
    """log x for x in (0, 1]: log_unit of _loop.c, operation for
    operation, so the same bits. frexp splits x exactly where log_unit
    reads its bits: x = m * 2**e, and hx is the top 20 bits of the
    fraction of 2m."""
    m, e = math.frexp(x)
    hx = int((m + m - 1.0) * 1048576.0)
    i = (hx + 0x95F64) & 0x100000  # the significand is at least sqrt(2)
    dk = float(e - 1 + (i >> 20))
    f = (m if i else m + m) - 1.0
    if (0x000FFFFF & (2 + hx)) < 3:  # |f| < 2**-20
        if f == 0.0:
            return dk * _LN2_HI + dk * _LN2_LO
        R = f * f * (0.5 - 0.33333333333333333 * f)
        return dk * _LN2_HI - ((R - dk * _LN2_LO) - f)
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    R = t2 + t1
    if ((hx - 0x6147A) | (0x6B851 - hx)) > 0:
        hfsq = 0.5 * f * f
        return dk * _LN2_HI - ((hfsq - (s * (hfsq + R) + dk * _LN2_LO)) - f)
    return dk * _LN2_HI - ((s * (f - R) - dk * _LN2_LO) - f)


class _PythonFills:
    """The extension's fill and log in Python, with its signatures and,
    value for value, its bits: their specification, which the tests
    compare the extension against, and their fallback when it is
    unavailable. The words come from numpy's Philox, and each block of
    values is an array('d')."""

    @staticmethod
    def fill(spec, first, n):
        """Values first .. first + n - 1 of the sampler spec (see _spec)."""
        kind = spec[0]
        if kind == "const":
            return array("d", spec[1:]) * n
        if kind == "uniform":
            _, k0, k1, low, span = spec
            return array("d", [low + span * u for u in _philox_uniforms(k0, k1, first, n).tolist()])
        if kind == "erlang":
            _, k0, k1, k, scale, divide = spec
            u = _philox_uniforms(k0, k1, first * k, n * k).tolist()
            out = array("d")
            for i in range(0, n * k, k):
                total = _log(1.0 - u[i])
                for j in range(i + 1, i + k):
                    total += _log(1.0 - u[j])
                out.append(-total / scale if divide else -total * scale)
            return out
        fill = _PythonFills.fill
        if kind == "shift":
            _, offset, base = spec
            return array("d", [offset + b for b in fill(base, first, n)])
        if kind == "mixture":
            _, k0, k1, p, base, extra = spec
            u = _philox_uniforms(k0, k1, first, n).tolist()
            return array("d", [a + e if b < p else a
                               for b, a, e in zip(u, fill(base, first, n), fill(extra, first, n))])
        raise TypeError(f"fill(): {spec!r} is not a sampler spec")

    @staticmethod
    def log(values):
        return array("d", map(_log, values))


def _fills():
    """The extension, whose fill makes every sampler's values, or
    _PythonFills when it could not be built or loaded."""
    return _PythonFills if _loop is None else _loop


# station kind codes of _Table.kind
_KC_FCFS = 0
_KC_DELAY = 1
_KC_SOURCE = 2
_KC_SINK = 3
_KC = {FCFS: _KC_FCFS, DELAY: _KC_DELAY, SOURCE: _KC_SOURCE, SINK: _KC_SINK}


class _Table(NamedTuple):
    """The engine's layout, decided by _Engine._build and read by both
    loops. Stations and classes are numbered in model order; a cell is a
    (station, class) pair, numbered s * nclasses + c. Index tables are
    array('i') (int32), times and probabilities array('d'); a sampler is
    an index into start and blocks, and -1 means none. The compiled loop
    takes the fields in this order."""

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
    route_block: array    # per cell: sampler of its routing uniforms, -1 with one successor
    flush_ptr: array      # per cell (station, poller class): a completion there
    flush_cls: array      #   flushes the classes flush_cls[flush_ptr[k]:flush_ptr[k+1]]
    reference: array      # per class: its reference station if closed, else -1
    place_station: array  # per t = 0 placement, in the order the loops replay them:
    place_class: array    #   the station, the class and the time; at a source, the
    place_time: array     #   class's first arrival, else a closed-class job's calendar
                          #   time, inf when it queues or parks
    start: array          # per sampler: the index of its next value, array('q')
    blocks: list          # per sampler: its spec


class _Job:
    # entered doubles as the cycle-start marker for closed classes
    # (-1.0 until the first departure from the reference station)
    __slots__ = ("ci", "entered", "arrived", "sstart")

    def __init__(self, ci):
        self.ci = ci
        self.entered = -1.0
        self.arrived = 0.0
        self.sstart = 0.0


def _spec(dist, stream) -> tuple:
    """The spec of the sampler of dist's values on stream: a tuple tree
    that fill() reads, of these nodes, with k0 and k1 the words of a
    stream's key:
      ("const", value): a deterministic value, or a rate-0 exponential's
        inf; it takes no words;
      ("uniform", k0, k1, low, span): low + span * u of word j;
      ("erlang", k0, k1, k, scale, divide): -(log(1 - u1) + ... +
        log(1 - uk)) over words jk .. jk + k - 1, times scale, or divided
        by it when divide; an exponential is k = 1 times 1 / rate;
      ("shift", offset, base): offset + value j of base, on stream;
      ("mixture", k0, k1, p, base, extra): base value j, plus extra value
        j when uniform j of k0, k1 is below p; the uniforms, base and
        extra are on the part streams branch, base and extra."""
    kind = dist.kind
    if kind == "deterministic" or (kind == "exponential" and dist.rate == 0.0):
        return ("const", float(dist.mean()))
    if kind in ("exponential", "erlang"):
        k = dist.phases if kind == "erlang" else 1
        return ("erlang", stream.k0, stream.k1, k, 1.0 / dist.rate, False)
    if kind == "uniform":
        return ("uniform", stream.k0, stream.k1, dist.low, dist.high - dist.low)
    if kind == "shifted":
        return ("shift", float(dist.offset), _spec(dist.base, stream))
    if kind == "mixture":
        branch = stream.part("branch")
        return ("mixture", branch.k0, branch.k1, dist.p_extra,
                _spec(dist.base, stream.part("base")), _spec(dist.extra, stream.part("extra")))
    raise ValueError(f"unknown distribution {dist!r}")


def _arrival_spec(dist, stream) -> tuple:
    """The spec of a class's external arrival gaps; the loops add each to
    the time of the arrival it follows. The first infinite gap (a rate-0
    exponential, or an infinite part of a mixture) puts the next arrival
    at inf, and so ends the class's arrivals."""
    if dist.kind == "exponential" and dist.rate > 0:
        # not _spec's exponential, which multiplies by 1 / rate: that
        # rounds differently, and the shipped outputs were made by this division
        return ("erlang", stream.k0, stream.k1, 1, dist.rate, True)
    return _spec(dist, stream)


def _values(spec, start, block):
    """Values start, start + 1, ... of the sampler spec, made block at a
    time: a sampler of the Python loop."""
    fill = _fills().fill
    for first in count(start, block):
        yield from fill(spec, first, block)


class _Engine:
    """One replication. _build decides the layout both loops run on, the
    _Table; a loop returns its tally, which _finalize turns into samples.
    The tally is (cells, classes): per cell, (area, barea, ssum, scnt,
    drops), the integrals of the job count and of busy servers, the sum
    and count of station sojourns inside the window and the drops; per
    class, (created, sunk, dropped, live, rsum, rcnt, larea), its flow
    counts, the jobs alive at the horizon, the sum and count of system
    response (open) or cycle (closed) times and the integral of the
    in-system job count."""

    def __init__(self, model: NetworkModel, seed: int, horizon: float, warmup: float):
        self.model = model
        self.seed = seed
        self.table = self._build(float(horizon), float(warmup))

    def _build(self, horizon: float, warmup: float) -> _Table:
        model = self.model
        seed = int(self.seed)
        stations, classes = model.stations, model.classes
        sidx = {s.name: i for i, s in enumerate(stations)}
        cidx = {jc.name: i for i, jc in enumerate(classes)}
        ncl = len(classes)
        fill = _fills().fill
        blocks, start = [], []

        def index(spec):
            blocks.append(spec)
            start.append(0)
            return len(blocks) - 1

        kind = [_KC[s.kind] for s in stations]
        sampler = [-1] * (len(stations) * ncl)
        for s, st in enumerate(stations):
            if kind[s] in (_KC_FCFS, _KC_DELAY):
                for cname, dist in st.service.items():
                    stream = RngStream(seed, st.name, cname, "service")
                    sampler[s * ncl + cidx[cname]] = index(_spec(dist, stream))

        # each open class's first arrival at its source, then the closed
        # populations at their reference stations at t = 0
        place = []
        reference = [-1] * ncl
        flush = [[] for _ in sampler]
        for c, jc in enumerate(classes):
            home = _class_start(model, jc)
            if jc.kind == "closed":
                reference[c] = sidx[home]
            elif home is not None:
                s = sidx[home]
                gaps = _arrival_spec(jc.arrival, RngStream(seed, home, jc.name, "arrival"))
                b = sampler[s * ncl + c] = index(gaps)
                start[b] = 1
                place.append((s, c, fill(gaps, 0, 1)[0]))
            watcher = model.detection.get(jc.name)
            if watcher is not None:
                flush[sidx[watcher[1]] * ncl + cidx[watcher[0]]].append(c)

        # route rows: a served cell's class leaving its station, a source
        # cell's entering the network; every other row is empty
        route_ptr, route_to, route_cum, route_block = [0], [], [], []
        for k, b in enumerate(sampler):
            row = classes[k % ncl].name, stations[k // ncl].name
            targets = model.routing.successors(*row) if b >= 0 else None
            block = -1
            if targets:
                acc = 0.0
                for to, p in targets:
                    acc += p
                    route_to.append(sidx[to])
                    route_cum.append(acc)
                route_cum[-1] = 1.0 + 1e-12  # guard against float dust on the last edge
                if len(targets) > 1:
                    block = index(_spec(_U01, RngStream(seed, row[1], row[0], "routing")))
            route_block.append(block)
            route_ptr.append(len(route_to))

        # the closed populations' jobs in order: at a delay each thinks for
        # a random phase of its first think time, which desynchronizes
        # cycles; at an fcfs station the first fill its free servers and
        # the rest queue. The sampler starts after the m values placed.
        busy = [0] * len(stations)
        for c, jc in enumerate(classes):
            if jc.kind != "closed":
                continue
            s = reference[c]
            b = sampler[s * ncl + c]
            n = jc.population
            m = start[b] = n if kind[s] == _KC_DELAY else min(n, stations[s].servers - busy[s])
            times = fill(blocks[b], 0, m).tolist()
            if kind[s] == _KC_DELAY:
                phase = RngStream(seed, jc.reference, jc.name, "init").uniforms(n).tolist()
                times = [u * think if think < _INF else _INF for u, think in zip(phase, times)]
            else:
                busy[s] += m
            place.extend((s, c, t) for t in times + [_INF] * (n - m))

        def ints(values):
            return array("i", values)

        def floats(values):
            return array("d", values)

        flush_ptr = ints(accumulate((len(f) for f in flush), initial=0))
        place_station, place_class, place_time = zip(*place) if place else ((), (), ())
        return _Table(
            horizon, warmup, _BLOCK,
            ints(kind), floats(s.servers for s in stations),
            floats(_INF if s.capacity is None else s.capacity for s in stations),
            ints(sampler),
            ints(route_ptr), ints(route_to), floats(route_cum),
            ints(route_block), flush_ptr, ints(c for f in flush for c in f), ints(reference),
            ints(place_station), ints(place_class), floats(place_time),
            array("q", start), blocks,
        )

    def _check_deadlock(self):
        # no closed-class job on the calendar and no arrival before the horizon
        t = self.table
        if all(time >= t.horizon if t.kind[s] == _KC_SOURCE else time == _INF
               for s, time in zip(t.place_station.tolist(), t.place_time.tolist())):
            dead = [jc.name for jc in self.model.classes if jc.kind == "closed"]
            if dead:
                raise DeadlockError(dead)

    def run(self) -> ReplicationResult:
        return self._finalize(self._tally())

    def _run_python(self) -> ReplicationResult:
        return self._finalize(self._tally_python())

    def _tally(self):
        """Simulate to the horizon on the compiled loop, or on the Python
        loop when the extension could not be built or loaded."""
        if _loop is None:
            return self._tally_python()
        self._check_deadlock()
        return _loop.run(*self.table)

    def _tally_python(self):
        """The event loop in Python, on the same table: the executable
        specification of the compiled loop and its fallback."""
        self._check_deadlock()
        T = self.table
        horizon = T.horizon
        warm = T.warmup
        kind = T.kind.tolist()
        servers = T.servers.tolist()
        cap = T.capacity.tolist()
        reference = T.reference.tolist()
        its = [_values(spec, first, T.block_size) for spec, first in zip(T.blocks, T.start)]
        samplers = [its[b] if b >= 0 else None for b in T.sampler.tolist()]
        ptr, to, cum = T.route_ptr.tolist(), T.route_to.tolist(), T.route_cum.tolist()
        routes = [(to[a:b], cum[a:b], its[r] if b - a > 1 else None)
                  for a, b, r in zip(ptr, ptr[1:], T.route_block.tolist())]
        ptr, fcls = T.flush_ptr.tolist(), T.flush_cls.tolist()
        flush = [fcls[a:b] for a, b in zip(ptr, ptr[1:])]
        nst, ncl = len(kind), len(reference)
        watched = [c in fcls for c in range(ncl)]
        ncells = nst * ncl
        tas, entry = [_INF] * ncl, [0] * ncl  # per class: next arrival time, source cell

        busy = [0] * nst
        queues = [deque() for _ in range(nst)]
        parked = [[] for _ in range(ncells)]
        pending = [[] for _ in range(ncl)]
        area, barea, ssum = [0.0] * ncells, [0.0] * ncells, [0.0] * ncells
        scnt, drops = [0] * ncells, [0] * ncells
        created, sunk, dropped, live = [0] * ncl, [0] * ncl, [0] * ncl, [0] * ncl
        rsum, rcnt, larea = [0.0] * ncl, [0] * ncl, [0.0] * ncl
        heap = []
        pop = heapq.heappop
        push = heapq.heappush
        seq = 0
        pool = []

        for s, ci, t in zip(T.place_station.tolist(), T.place_class.tolist(),
                            T.place_time.tolist()):
            if kind[s] == _KC_SOURCE:
                tas[ci] = t
                entry[ci] = s * ncl + ci
                continue
            job = _Job(ci)
            if t < _INF:
                busy[s] += kind[s] == _KC_FCFS
                push(heap, (t, seq, job, s))
                seq += 1
            elif kind[s] == _KC_FCFS:
                queues[s].append(job)
            else:
                parked[s * ncl + ci].append(job)

        ta = min(tas, default=_INF)
        while True:
            if heap:
                rec = heap[0]
                t = rec[0]
            else:
                t = _INF
            if ta <= t:
                # external arrival (wins ties against calendar events)
                if ta >= horizon:
                    break
                t = ta
                ci = tas.index(ta)  # ties go to the lower class index
                created[ci] += 1
                r = entry[ci]
                tas[ci] = t + next(samplers[r])
                ta = min(tas)
                job = pool.pop() if pool else _Job(ci)
                job.ci = ci
                job.entered = t
            else:
                if t >= horizon:
                    break
                pop(heap)
                job = rec[2]
                s = rec[3]
                ci = job.ci
                k = s * ncl + ci

                if kind[s] == 0:
                    # service completes at an fcfs station
                    if t > warm:
                        a = job.arrived
                        d = t - a
                        ssum[k] += d
                        scnt[k] += 1
                        area[k] += d if a > warm else t - warm
                        ss = job.sstart
                        barea[k] += t - ss if ss > warm else t - warm
                    busy[s] -= 1
                    q = queues[s]
                    if q:
                        nj = q.popleft()
                        busy[s] += 1
                        nj.sstart = t
                        sv = next(samplers[s * ncl + nj.ci])
                        push(heap, (t + sv, seq, nj, s))
                        seq += 1
                    for w in flush[k]:
                        pend = pending[w]
                        if pend:
                            if t > warm:
                                for pj in pend:
                                    e = pj.entered
                                    rsum[w] += t - e
                                    larea[w] += t - e if e > warm else t - warm
                                rcnt[w] += len(pend)
                            pool.extend(pend)
                            pend.clear()
                    if reference[ci] == s:
                        # leaving the reference station opens a cycle
                        job.entered = t
                else:
                    # delay timer fires
                    if t > warm:
                        a = job.arrived
                        d = t - a
                        ssum[k] += d
                        scnt[k] += 1
                        area[k] += d if a > warm else t - warm
                    if reference[ci] == s:
                        job.entered = t
                r = k

            # route the arriving or departing job to its next station: the
            # first whose cumulative probability reaches the row's uniform;
            # a row of one successor takes no uniform
            tos, cums, u01 = routes[r]
            if u01 is None:
                ns = tos[0]  # IndexError on a row without successors
            else:
                u = next(u01)
                i = 0
                while cums[i] < u:
                    i += 1
                ns = tos[i]

            kc = kind[ns]
            if kc == 3:
                # sink
                sunk[ci] += 1
                if not watched[ci]:
                    if t > warm:
                        e = job.entered
                        rsum[ci] += t - e
                        rcnt[ci] += 1
                        larea[ci] += t - e if e > warm else t - warm
                    pool.append(job)
                else:
                    # watched job: physically done, logically in the system
                    # until the next detection poll completes
                    pending[ci].append(job)
                continue

            if reference[ci] == ns and job.entered >= 0.0:
                # a cycle closes on return to the reference station
                # (entered is always set before the first return; the guard
                # is insurance against malformed hand-built topologies)
                if t > warm:
                    e = job.entered
                    rsum[ci] += t - e
                    rcnt[ci] += 1
                    larea[ci] += t - e if e > warm else t - warm

            k = ns * ncl + ci
            if kc == 0:
                if cap[ns] < _INF and busy[ns] + len(queues[ns]) >= cap[ns] and reference[ci] < 0:
                    # closed populations are never dropped
                    dropped[ci] += 1
                    if t > warm:
                        drops[k] += 1
                        e = job.entered
                        larea[ci] += t - e if e > warm else t - warm
                    pool.append(job)
                    continue
                job.arrived = t
                if busy[ns] < servers[ns]:
                    busy[ns] += 1
                    job.sstart = t
                    s = next(samplers[k])
                    push(heap, (t + s, seq, job, ns))
                    seq += 1
                else:
                    queues[ns].append(job)
            else:
                # delay entry (validation keeps jobs out of sources)
                job.arrived = t
                d = next(samplers[k])
                if d < _INF:
                    push(heap, (t + d, seq, job, ns))
                    seq += 1
                else:
                    parked[k].append(job)

        # close out the jobs alive at the horizon: in service or thinking
        # (calendar, in heap-array order), waiting (queues), parked
        # (infinite delays) and awaiting detection
        def close_out(job, s, in_service):
            ci = job.ci
            live[ci] += 1
            k = s * ncl + ci
            a = job.arrived
            area[k] += horizon - (a if a > warm else warm)
            if in_service:
                ss = job.sstart
                barea[k] += horizon - (ss if ss > warm else warm)
            if reference[ci] >= 0:
                if s != reference[ci] and job.entered >= 0.0:
                    e = job.entered
                    larea[ci] += horizon - (e if e > warm else warm)
            else:
                e = job.entered
                larea[ci] += horizon - (e if e > warm else warm)

        for rec in heap:
            close_out(rec[2], rec[3], kind[rec[3]] == _KC_FCFS)
        for s in range(nst):
            for job in queues[s]:
                close_out(job, s, False)
            for k in range(s * ncl, (s + 1) * ncl):
                for job in parked[k]:
                    close_out(job, s, False)
        for ci in range(ncl):
            for job in pending[ci]:
                e = job.entered
                larea[ci] += horizon - (e if e > warm else warm)

        return (list(zip(area, barea, ssum, scnt, drops)),
                list(zip(created, sunk, dropped, live, rsum, rcnt, larea)))

    def _finalize(self, tally) -> ReplicationResult:
        cells, classes = tally
        horizon = self.table.horizon
        warm = self.table.warmup
        model = self.model
        ncl = len(model.classes)
        self._check_conservation(classes)

        window = horizon - warm
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
                    cell = cells[s * ncl + c]
                    row(st.name, jc.name, metrics, st.servers, *cell)
                    total = tuple(map(add, total, cell))
            row(st.name, ALL_CLASSES, metrics, st.servers, *total)

        for jc, (_, _, _, _, rsum, rcnt, larea) in zip(model.classes, classes):
            row(SYSTEM_STATION, jc.name, METRICS[SYSTEM_STATION], 1, larea, 0.0, rsum, rcnt, 0)

        return ReplicationResult(self.seed, horizon, warm, samples)

    def _check_conservation(self, classes):
        for jc, (created, sunk, dropped, live, *_) in zip(self.model.classes, classes):
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
    if not warmup < horizon:
        raise ValueError(f"warmup {warmup} must be below horizon {horizon}")
    diags = validate_model(model)
    if diags:
        raise InvalidModelError(diags)
    return _Engine(model, seed, horizon, warmup).run()


_LOOP_SOURCE = Path(__file__).with_name("_loop.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-strict-aliasing", "-fPIC", "-shared")


def _loop_path(source: bytes, cache_dir: Path) -> Path:
    """Cache file of the extension built from source with _CFLAGS."""
    tag = sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    return cache_dir / f"_loop_{tag}{EXTENSION_SUFFIXES[0]}"


def _build_loop(cc: str, cache_dir: Path):
    """The compiled event loop: _loop.c built with compiler cc into
    cache_dir unless its cache file is there, then loaded. A build
    removes the binaries of other sources. On failure, one warning on
    stderr and None."""
    tmp = None
    try:
        path = _loop_path(_LOOP_SOURCE.read_bytes(), cache_dir)
        if not path.exists():
            import subprocess  # the compiler tools load only on a cache miss
            import sysconfig

            cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            include = "-I" + sysconfig.get_paths()["include"]
            done = subprocess.run([cc, *_CFLAGS, include, str(_LOOP_SOURCE), "-o", str(tmp)],
                                  capture_output=True, text=True)
            if done.returncode:
                return _unavailable(f"{cc} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
            os.replace(tmp, path)
            for old in cache_dir.glob(f"_loop_*{EXTENSION_SUFFIXES[0]}"):
                if old != path:
                    old.unlink(missing_ok=True)
        loader = ExtensionFileLoader("qnaps._loop", str(path))
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    except (OSError, ImportError) as exc:
        return _unavailable(f"{type(exc).__name__}: {exc}")
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)


def _unavailable(reason: str) -> None:
    print(f"qnaps: compiled event loop unavailable ({reason}); using the Python loop",
          file=sys.stderr)


_loop = _build_loop("gcc", Path(__file__).with_name("__pycache__"))
