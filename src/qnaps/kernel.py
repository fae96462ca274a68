"""Deterministic discrete-event engine for queueing network models.

Random numbers come from one Philox4x64-10 counter-based generator per
(station, class, purpose) triple, keyed by SHA-256 of the replication seed
and the triple. Structural edits to a model therefore never disturb the
draw sequences of untouched streams, which is what makes neutral model
transforms reproduce baseline runs bit for bit. Each distribution counts
a fixed number of draws per sample (exponential 1, deterministic 0,
erlang k, uniform 1; wrappers add their components). A uniform is the
top 53 bits of one raw word times 2**-53, which is what numpy's
Generator.random computes from the same words. Every sampler, the
routing uniforms and each open class's arrival times too, is one _Block:
a float64 array of values, the index of the next one, and fill(), which
returns the next array. A batched sampler's block is _BLOCK (4,096)
values made in numpy from the uniforms of the next 4,096*k raw words, so
a sampler that has its stream to itself consumes the same raw sequence
as drawing one value at a time; routing streams, one consumer each, are
batched too. A stream holds its blocks weakly, so the blocks of a
replication, whose fills hold their stream, are freed by refcount when
the replication is dropped, without waiting for the cyclic collector.
The closed-class init phase takes one word per value. A mixture's branch
uniforms, base and extra each draw from their own part stream, keyed
purpose/branch, purpose/base and purpose/extra, so no sampler's values
depend on the block size.

run_replication(model, seed, horizon, warmup) is a pure function of its
arguments. The measurement window is [warmup, horizon): completion samples
are kept when they land inside it, and time averages are accumulated
through the sojourn identity (integral of the job count equals the sum of
per-job residence times clipped to the window), with jobs still alive at
the horizon closed out by a final sweep over the calendar, the queues and
the parked sets. The sweep adds up the calendar in heap-array order, so
the samples depend on the heap's layout, not only on the order of its
pops: a heapreplace in place of a pop and a push changes them. A source
is a station like any other: an open class's external arrival times are
the sampler of its source cell, a running sum of the gaps drawn from its
own stream, and that cell's route row is where the class enters. The
loop holds only each class's next time and draws the one after when it
takes an arrival, so arrivals need memory per class, not per job. The
earliest next arrival goes first, ties going to the lower class index
and arrivals winning ties against the calendar; calendar events with
equal times fire in scheduling order. An arrival and a service
completion leave through the same routing step: sink, cycle close,
finite-capacity drop, then fcfs or delay entry. Arrivals never touch the
calendar or its sequence numbers.

_Engine._build is the one place that decides the engine's layout: it
draws what must be drawn before the run (each open class's first arrival
time, the closed populations' t = 0 think and service times) and emits a
flat, index-based _Table of int32 and float64 arrays (per station, per
(station, class) cell with one route row each in CSR form, detection
flush lists, per class its reference station, closed classes only, and
the t = 0 placements: the first arrivals at the sources, then the closed
populations) plus the list of _Blocks the indices point into. A class is
watched when a flush list names it. Both loops run on that table and
return the same tally, per cell and per class, which _Engine._finalize
turns into samples. _Engine.run is one C extension, _loop.c, which gets
the table as typed buffers and checks each array once, on entry;
_Engine._run_python is the same loop in Python, kept as the executable
specification the tests compare the compiled loop against bit for bit.
The two share this contract: they replay the placements in the same
order, every float operation is done in the same order and grouping; the
calendar is a binary heap with heapq's sift algorithm keyed on (t, seq),
so its array layout, and with it the closing sweep, is the same; and
random values come only from the blocks: the Python loop takes them with
next(), the compiled loop reads them from the arrays in place and calls
fill() when one runs out. The extension is built when this module is
imported, with gcc -O2 -ffp-contract=off (no fused multiply-add, no
-ffast-math; x86-64 does its double arithmetic in SSE2 registers), into
src/qnaps/__pycache__ under a name keyed by the sha256 of _loop.c and
the flags, so an edited source never loads an old binary. If it cannot
be built or loaded, one warning goes to stderr and run() uses the Python
loop.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import os
import subprocess
import sys
import sysconfig
import weakref
from collections import deque
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    NetworkModel,
    _class_start,
    validate_model,
)
from .stats import MetricSample, ReplicationResult

_INF = math.inf
_BLOCK = 4096  # values per block, the same for every sampler
_NO_VALUES = np.empty(0)


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


class _Block:
    """One sampler: vals, the float64 block of values it is handing out;
    i, the index of the next one; and fill(), which returns the next
    block. Each value counts k draws of the sampler's stream. next()
    hands out one value and calls fill() when the block runs out; an empty
    block ends the sampler with StopIteration. The compiled loop reads
    vals in place and writes vals and i back when it returns, so next()
    continues where it stopped."""

    __slots__ = ("vals", "i", "k", "fill", "__weakref__")

    def __init__(self, k: int, fill):
        self.vals = _NO_VALUES
        self.i = 0
        self.k = k
        self.fill = fill

    def __next__(self) -> float:
        vals = self.vals
        i = self.i
        if i == len(vals):
            vals = self.vals = self.fill()
            i = self.i = 0
            if not len(vals):
                raise StopIteration
        self.i = i + 1
        return vals.item(i)


class RngStream:
    """One Philox stream for one (station, class, purpose) triple.

    draws counts logical samples handed out (uniform01 counts 1, a
    distribution sampler counts its documented amount per value). Block
    samplers count nothing per value: draws is worked out when read, from
    the words taken by this stream and its part streams less k per value
    its live blocks have not handed out. The stream holds its blocks
    weakly (each block's fill holds the stream), so a block that has been
    freed counts every value it took.
    """

    __slots__ = ("seed", "station_id", "class_id", "purpose", "_draws", "_open",
                 "_parts", "_bg", "_gen")

    def __init__(self, seed: int, station_id: str, class_id: str, purpose: str):
        self.seed = seed
        self.station_id = station_id
        self.class_id = class_id
        self.purpose = purpose
        self._draws = 0
        self._open = weakref.WeakSet()  # every live block sampler made on this stream
        self._parts = {}  # tag -> part stream
        material = f"{seed}|{station_id}|{class_id}|{purpose}".encode()
        key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
        self._bg = Philox(key=key)
        self._gen = Generator(self._bg)

    @property
    def draws(self) -> int:
        return (self._draws + sum(p.draws for p in self._parts.values())
                - sum(b.k * (len(b.vals) - b.i) for b in self._open))

    def part(self, tag: str) -> RngStream:
        """The stream of part tag of a sampler on this stream, keyed by
        purpose/tag. No top-level purpose holds a /, so a part stream
        meets no other stream. Its draws count toward this stream's."""
        p = self._parts.get(tag)
        if p is None:
            p = self._parts[tag] = RngStream(self.seed, self.station_id, self.class_id,
                                             f"{self.purpose}/{tag}")
        return p

    def uniforms(self, n: int) -> np.ndarray:
        """The next n raw words as uniforms on [0, 1), from their top 53
        bits; each counts one draw."""
        self._draws += n
        return self._gen.random(n)

    def uniform01(self) -> float:
        return self.uniforms(1).item(0)

    def block(self, k: int, fill) -> _Block:
        """A block sampler over this stream whose values count k draws."""
        b = _Block(k, fill)
        self._open.add(b)
        return b

    def batched_sampler(self, k: int, transform) -> _Block:
        """Block sampler of transform(u): u holds the uniforms of the next
        _BLOCK*k raw words, taken on the first next() and again each time
        its _BLOCK values run out; transform maps them to _BLOCK values,
        each of which counts k draws."""
        return self.block(k, lambda: transform(self.uniforms(_BLOCK * k)))

    def constant(self, value: float) -> _Block:
        """Block sampler that hands out value and takes no words. Its fill
        is C code, so a loop over constants runs no Python bytecode."""
        return self.block(0, repeat(np.full(_BLOCK, float(value))).__next__)

    def shift(self, offset: float, base: _Block) -> _Block:
        """Block sampler of offset plus base's values."""
        offset = float(offset)
        return self.block(base.k, lambda: offset + base.fill())

    def mixture(self, p: float, base: _Block, extra: _Block) -> _Block:
        """Block sampler of base plus, when a value's branch uniform is
        below p, extra. base and extra are samplers of this stream's parts
        "base" and "extra"; the branch uniforms come from part "branch"."""
        branch = self.part("branch")

        def fill():
            a = base.fill()
            return np.where(branch.uniforms(_BLOCK) < p, a + extra.fill(), a)

        return self.block(1 + base.k + extra.k, fill)


class RngSpace:
    """Lazy registry of streams for one replication seed. Streams are keyed
    by content, so the set of other streams in play never changes what any
    one stream produces."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[tuple, RngStream] = {}

    def stream(self, station_id: str, class_id: str, purpose: str) -> RngStream:
        key = (station_id, class_id, purpose)
        s = self._streams.get(key)
        if s is None:
            s = RngStream(self.seed, station_id, class_id, purpose)
            self._streams[key] = s
        return s


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
    int32 arrays, times and probabilities float64 arrays; blocks index
    into blocks and -1 means none. The compiled loop takes the fields in
    this order."""

    horizon: float
    warmup: float
    kind: np.ndarray           # per station: its _KC_* code
    servers: np.ndarray        # per station
    capacity: np.ndarray       # per station: inf when unbounded
    sampler: np.ndarray        # per cell: block of its service times, or at a source of
                               #   its class's arrival times; -1 if neither
    route_ptr: np.ndarray      # per cell: its class leaving its station (a source: entering
    route_to: np.ndarray       #   the network) goes to route_to[route_ptr[k]:route_ptr[k+1]]
    route_cum: np.ndarray      #   with these cumulative probabilities
    route_block: np.ndarray    # per cell: block of its routing uniforms, -1 with one successor
    flush_ptr: np.ndarray      # per cell (station, poller class): a completion there
    flush_cls: np.ndarray      #   flushes the classes flush_cls[flush_ptr[k]:flush_ptr[k+1]]
    reference: np.ndarray      # per class: its reference station if closed, else -1
    place_station: np.ndarray  # per t = 0 placement, in the order the loops replay them:
    place_class: np.ndarray    #   the station, the class and the time; at a source, the
    place_time: np.ndarray     #   class's first arrival, else a closed-class job's calendar
                               #   time, inf when it queues or parks
    blocks: list               # every _Block, once


class _Job:
    # entered doubles as the cycle-start marker for closed classes
    # (-1.0 until the first departure from the reference station)
    __slots__ = ("ci", "entered", "arrived", "sstart")

    def __init__(self, ci):
        self.ci = ci
        self.entered = -1.0
        self.arrived = 0.0
        self.sstart = 0.0


def _arrival_times(dist, stream) -> _Block:
    """Block sampler of a class's external arrival times: the running sum
    of the gaps drawn from its arrival stream, carried from block to
    block. np.add.accumulate adds in order, so the times are exactly
    those of a running float sum over the gaps. The first infinite gap (a rate-0
    exponential, or an infinite part of a mixture) makes every later time
    infinite."""
    if dist.kind == "exponential" and dist.rate > 0:
        rate = dist.rate
        # not Exponential.sampler, which multiplies by 1 / rate: that rounds
        # differently, and the shipped outputs were made by this division
        gaps = stream.batched_sampler(1, lambda u: -np.log1p(-u) / rate)
    else:
        gaps = dist.sampler(stream)
    carry = _NO_VALUES  # the last time handed out, once there is one

    def fill():
        nonlocal carry
        times = np.add.accumulate(np.concatenate((carry, gaps.fill())))[len(carry):]
        carry = times[-1:]
        return times

    return stream.block(gaps.k, fill)


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
        self.space = RngSpace(seed)
        self.table = self._build(float(horizon), float(warmup))

    def _build(self, horizon: float, warmup: float) -> _Table:
        model = self.model
        space = self.space
        stations, classes = model.stations, model.classes
        sidx = {s.name: i for i, s in enumerate(stations)}
        cidx = {jc.name: i for i, jc in enumerate(classes)}
        ncl = len(classes)
        blocks = []

        def index(block):
            blocks.append(block)
            return len(blocks) - 1

        kind = [_KC[s.kind] for s in stations]
        sampler = [-1] * (len(stations) * ncl)
        for s, st in enumerate(stations):
            if kind[s] in (_KC_FCFS, _KC_DELAY):
                for cname, dist in st.service.items():
                    stream = space.stream(st.name, cname, "service")
                    sampler[s * ncl + cidx[cname]] = index(dist.sampler(stream))

        # each open class's first arrival at its source, then the closed
        # populations at their reference stations at t = 0
        place = []
        reference = [-1] * ncl
        flush = [[] for _ in sampler]
        for c, jc in enumerate(classes):
            start = _class_start(model, jc)
            if jc.kind == "closed":
                reference[c] = sidx[start]
            elif start is not None:
                s = sidx[start]
                times = _arrival_times(jc.arrival, space.stream(start, jc.name, "arrival"))
                sampler[s * ncl + c] = index(times)
                place.append((s, c, next(times)))
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
                    # one consumer per routing stream, so batching keeps its values
                    u01 = space.stream(row[1], row[0], "routing").batched_sampler(1, lambda u: u)
                    block = index(u01)
            route_block.append(block)
            route_ptr.append(len(route_to))

        busy = [0] * len(stations)
        for c, jc in enumerate(classes):
            if jc.kind != "closed":
                continue
            s = reference[c]
            init_u = space.stream(jc.reference, jc.name, "init").uniform01
            service = blocks[sampler[s * ncl + c]]
            for _ in range(jc.population):
                if kind[s] == _KC_DELAY:
                    u = init_u()  # random initial phase desynchronizes cycles
                    think = next(service)
                    t = u * think if think < _INF else _INF
                elif busy[s] < stations[s].servers:
                    busy[s] += 1
                    t = next(service)
                else:
                    t = _INF
                place.append((s, c, t))

        def ints(values):
            return np.array(values, dtype=np.int32)

        flush_ptr = np.cumsum([0] + [len(f) for f in flush], dtype=np.int32)
        place_station, place_class, place_time = zip(*place) if place else ((), (), ())
        return _Table(
            horizon, warmup,
            ints(kind), np.array([s.servers for s in stations], dtype=np.float64),
            np.array([_INF if s.capacity is None else s.capacity for s in stations],
                     dtype=np.float64),
            ints(sampler),
            ints(route_ptr), ints(route_to), np.array(route_cum, dtype=np.float64),
            ints(route_block), flush_ptr, ints([c for f in flush for c in f]), ints(reference),
            ints(place_station), ints(place_class), np.array(place_time, dtype=np.float64),
            blocks,
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
        blocks = T.blocks
        samplers = [blocks[b] if b >= 0 else None for b in T.sampler.tolist()]
        ptr, to, cum = T.route_ptr.tolist(), T.route_to.tolist(), T.route_cum.tolist()
        routes = [(to[a:b], cum[a:b], blocks[r] if b - a > 1 else None)
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
                tas[ci] = next(samplers[r])
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
            # a row of one successor draws none
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
        add = samples.append
        for s, st in enumerate(model.stations):
            if st.kind not in (FCFS, DELAY):
                continue
            fcfs = st.kind == FCFS
            tot_area = tot_barea = tot_ssum = 0.0
            tot_scnt = tot_drops = 0
            for c, jc in enumerate(model.classes):
                if jc.name not in st.service:
                    continue
                area, barea, ssum, scnt, drops = cells[s * ncl + c]
                cname = jc.name
                resp = ssum / scnt if scnt else 0.0
                if fcfs:
                    add(MetricSample(st.name, cname, "utilization",
                                     barea / (st.servers * window)))
                add(MetricSample(st.name, cname, "response-time-msec", resp))
                add(MetricSample(st.name, cname, "throughput-per-msec", scnt / window))
                add(MetricSample(st.name, cname, "queue-length", area / window))
                if fcfs:
                    add(MetricSample(st.name, cname, "dropped-count", float(drops)))
                    add(MetricSample(st.name, cname, "dropped-rate-per-msec", drops / window))
                tot_area += area
                tot_barea += barea
                tot_ssum += ssum
                tot_scnt += scnt
                tot_drops += drops
            resp = tot_ssum / tot_scnt if tot_scnt else 0.0
            if fcfs:
                add(MetricSample(st.name, "all", "utilization", tot_barea / (st.servers * window)))
            add(MetricSample(st.name, "all", "response-time-msec", resp))
            add(MetricSample(st.name, "all", "throughput-per-msec", tot_scnt / window))
            add(MetricSample(st.name, "all", "queue-length", tot_area / window))
            if fcfs:
                add(MetricSample(st.name, "all", "dropped-count", float(tot_drops)))
                add(MetricSample(st.name, "all", "dropped-rate-per-msec", tot_drops / window))

        for jc, (_, _, _, _, rsum, rcnt, larea) in zip(model.classes, classes):
            resp = rsum / rcnt if rcnt else 0.0
            add(MetricSample("system", jc.name, "response-time-msec", resp))
            add(MetricSample("system", jc.name, "throughput-per-msec", rcnt / window))
            add(MetricSample("system", jc.name, "queue-length", larea / window))

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
    tag = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
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
            cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            include = "-I" + sysconfig.get_paths()["include"]
            subprocess.run([cc, *_CFLAGS, include, str(_LOOP_SOURCE), "-o", str(tmp)],
                           check=True, capture_output=True, text=True)
            os.replace(tmp, path)
            for old in cache_dir.glob(f"_loop_*{EXTENSION_SUFFIXES[0]}"):
                if old != path:
                    old.unlink(missing_ok=True)
        loader = ExtensionFileLoader("qnaps._loop", str(path))
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        return module
    except subprocess.CalledProcessError as exc:
        reason = f"{cc} exited {exc.returncode}: {exc.stderr.strip()[-2000:]}"
    except (OSError, ImportError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
    print(f"qnaps: compiled event loop unavailable ({reason}); using the Python loop",
          file=sys.stderr)
    return None


_loop = _build_loop("gcc", Path(__file__).with_name("__pycache__"))
