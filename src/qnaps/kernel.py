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
returns the next array. A batched sampler's block is 256 values made in
numpy from the uniforms of the next 256*k raw words, so a sampler that
has its stream to itself consumes the same raw sequence as drawing one
value at a time; routing streams, one consumer each, are batched too.
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
pops: a heapreplace in place of a pop and a push changes them. Each open
class's external arrival times are one block sampler, a running sum of
the gaps drawn from its own stream; the loop holds only each class's next
time and draws the one after when it takes an arrival, so arrivals need
memory per class, not per job. The earliest next arrival goes first, ties
going to the lower class index and arrivals winning ties against the
calendar; calendar events with equal times fire in scheduling order. An
arrival and a service completion leave through the same routing step:
sink, cycle close, finite-capacity drop, then fcfs or delay entry.

_Engine.run is one C extension, _loop.c, that continues the engine
_Engine._build set up in Python; _Engine._run_python is the same loop in
Python, kept as the executable specification the tests compare the
compiled loop against bit for bit. The two share this contract: every
float operation is done in the same order and grouping; the calendar is
a binary heap with heapq's sift algorithm keyed on (t, seq), so its
array layout, and with it the closing sweep, is the same; and random
values come only from the blocks _build made: the Python loop takes them
with next(), the compiled loop reads them from the arrays in place and
calls fill() when one runs out. The
extension is built when this module is imported, with gcc -O2
-ffp-contract=off (no fused multiply-add, no -ffast-math; x86-64 does its
double arithmetic in SSE2 registers), into src/qnaps/__pycache__ under a
name keyed by the sha256 of _loop.c and the flags, so an edited source
never loads an old binary. If it cannot be built or loaded, one warning
goes to stderr and run() uses the Python loop.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import os
import subprocess
import sys
import sysconfig
from collections import deque
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    NetworkModel,
    validate_model,
)
from .stats import MetricSample, ReplicationResult

_INF = math.inf
_BLOCK = 256  # values per block
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

    __slots__ = ("vals", "i", "k", "fill")

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
    its blocks have not handed out.
    """

    __slots__ = ("seed", "station_id", "class_id", "purpose", "_draws", "_open",
                 "_parts", "_bg", "_gen")

    def __init__(self, seed: int, station_id: str, class_id: str, purpose: str):
        self.seed = seed
        self.station_id = station_id
        self.class_id = class_id
        self.purpose = purpose
        self._draws = 0
        self._open = []  # every block sampler made on this stream
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
        self._open.append(b)
        return b

    def batched_sampler(self, k: int, transform) -> _Block:
        """Block sampler of transform(u): u holds the uniforms of the next
        256*k raw words, taken on the first next() and again each time its
        256 values run out; transform maps them to 256 values, each of
        which counts k draws."""
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


# station kind codes for the hot path
_KC_FCFS = 0
_KC_DELAY = 1
_KC_SOURCE = 2
_KC_SINK = 3
_KC = {FCFS: _KC_FCFS, DELAY: _KC_DELAY, SOURCE: _KC_SOURCE, SINK: _KC_SINK}


class _Cell:
    # per (station, class) accumulators over the measurement window
    __slots__ = ("area", "barea", "ssum", "scnt", "drops", "parked")

    def __init__(self):
        self.area = 0.0       # integral of the job count at the station
        self.barea = 0.0      # integral of busy servers
        self.ssum = 0.0       # sum of station sojourn times
        self.scnt = 0         # completions inside the window
        self.drops = 0
        self.parked = []      # jobs sitting at an infinite delay


class _Job:
    # entered doubles as the cycle-start marker for closed classes
    # (-1.0 until the first departure from the reference station)
    __slots__ = ("ci", "entered", "arrived", "sstart")

    def __init__(self):
        self.ci = 0
        self.entered = -1.0
        self.arrived = 0.0
        self.sstart = 0.0


class _StationRT:
    __slots__ = ("name", "kc", "servers", "cap", "queue", "busy",
                 "cells", "samplers", "routes", "flush_for", "ref_ci")

    def __init__(self, name, kc, servers, cap, nclasses):
        self.name = name
        self.kc = kc
        self.servers = servers
        self.cap = cap
        self.queue = deque() if kc == _KC_FCFS else None
        self.busy = 0
        self.cells = [None] * nclasses
        self.samplers = [None] * nclasses
        self.routes = [None] * nclasses
        self.flush_for = None  # per poller class: watched classes to flush
        self.ref_ci = -1


class _ClassRT:
    __slots__ = ("idx", "name", "closed", "population", "ref", "entry_route",
                 "arrivals", "ta", "watcher", "pending", "created", "sunk",
                 "dropped", "rsum", "rcnt", "larea")

    def __init__(self, idx, name):
        self.idx = idx
        self.name = name
        self.closed = False
        self.population = 0
        self.ref = None
        self.entry_route = None
        self.arrivals = None  # block sampler of external arrival times, open classes
        self.ta = _INF        # next external arrival time
        self.watcher = None  # (poller class name, station name) if watched
        self.pending = None  # completed jobs awaiting a detection poll
        self.created = 0
        self.sunk = 0
        self.dropped = 0
        self.rsum = 0.0      # system response (open) or cycle time (closed)
        self.rcnt = 0
        self.larea = 0.0     # integral of the in-system job count


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
    def __init__(self, model: NetworkModel, seed: int, horizon: float, warmup: float):
        self.model = model
        self.seed = seed
        self.horizon = float(horizon)
        self.warmup = float(warmup)
        self.heap: list = []
        self.seq = 0
        self.space = RngSpace(seed)
        self._build()

    def _push(self, time, job, st):
        heapq.heappush(self.heap, (time, self.seq, job, st))
        self.seq += 1

    def _build(self):
        model = self.model
        space = self.space
        self.classes = [_ClassRT(i, jc.name) for i, jc in enumerate(model.classes)]
        cidx = {jc.name: i for i, jc in enumerate(model.classes)}
        nclasses = len(model.classes)

        self.stations = []
        by_name = {}
        for s in model.stations:
            st = _StationRT(s.name, _KC[s.kind], s.servers,
                            s.capacity if s.capacity is not None else None, nclasses)
            self.stations.append(st)
            by_name[s.name] = st

        # service cells and samplers
        for s, st in zip(model.stations, self.stations):
            if st.kc in (_KC_FCFS, _KC_DELAY):
                for cname, dist in s.service.items():
                    ci = cidx[cname]
                    st.cells[ci] = _Cell()
                    st.samplers[ci] = dist.sampler(space.stream(s.name, cname, "service"))

        # routing, resolved to station objects with cumulative probabilities
        def resolve(cname, frm):
            targets = model.routing.successors(cname, frm)
            if targets is None:
                return None
            if len(targets) == 1:
                return by_name[targets[0][0]]
            cums = []
            acc = 0.0
            sts = []
            for to, p in targets:
                acc += p
                cums.append(acc)
                sts.append(by_name[to])
            cums[-1] = 1.0 + 1e-12  # guard against float dust on the last edge
            # one consumer per routing stream, so batching keeps its values
            u01 = space.stream(frm, cname, "routing").batched_sampler(1, lambda u: u)
            return (tuple(cums), tuple(sts), u01)

        for s, st in zip(model.stations, self.stations):
            if st.kc in (_KC_FCFS, _KC_DELAY):
                for jc in model.classes:
                    if jc.name in s.service:
                        st.routes[cidx[jc.name]] = resolve(jc.name, s.name)

        # classes
        sources = [s for s in model.stations if s.kind == SOURCE]
        for jc, crt in zip(model.classes, self.classes):
            if jc.kind == "closed":
                crt.closed = True
                crt.population = jc.population
                crt.ref = by_name[jc.reference]
                crt.ref.ref_ci = crt.idx
            else:
                for src in sources:
                    if model.routing.successors(jc.name, src.name) is not None:
                        crt.entry_route = resolve(jc.name, src.name)
                        stream = space.stream(src.name, jc.name, "arrival")
                        crt.arrivals = _arrival_times(jc.arrival, stream)
                        crt.ta = next(crt.arrivals)
                        break
            watcher = model.detection.get(jc.name)
            if watcher is not None:
                crt.watcher = watcher
                crt.pending = []
                poller_ci = cidx[watcher[0]]
                dst = by_name[watcher[1]]
                if dst.flush_for is None:
                    dst.flush_for = [None] * nclasses
                if dst.flush_for[poller_ci] is None:
                    dst.flush_for[poller_ci] = []
                dst.flush_for[poller_ci].append(crt)

        # inject closed populations at their reference stations at t=0
        for jc, crt in zip(model.classes, self.classes):
            if not crt.closed:
                continue
            ref = crt.ref
            init_u = space.stream(ref.name, jc.name, "init").uniform01
            sampler = ref.samplers[crt.idx]
            for _ in range(crt.population):
                job = _Job()
                job.ci = crt.idx
                if ref.kc == _KC_DELAY:
                    u = init_u()  # random initial phase desynchronizes cycles
                    think = next(sampler)
                    if think < _INF:
                        self._push(u * think, job, ref)
                    else:
                        ref.cells[crt.idx].parked.append(job)
                else:
                    # t=0 arrival at an fcfs reference station
                    if ref.busy < ref.servers:
                        ref.busy += 1
                        self._push(next(sampler), job, ref)
                    else:
                        ref.queue.append(job)

    def _check_deadlock(self):
        if not self.heap and all(c.ta >= self.horizon for c in self.classes):
            dead = [c.name for c in self.classes if c.closed]
            if dead:
                raise DeadlockError(dead)

    def run(self) -> ReplicationResult:
        """Simulate to the horizon on the compiled loop, or on the Python
        loop when the extension could not be built or loaded."""
        if _loop is None:
            return self._run_python()
        self._check_deadlock()
        self.live = _loop.run(self)
        return self._finalize()

    def _run_python(self) -> ReplicationResult:
        self._check_deadlock()
        heap = self.heap
        pop = heapq.heappop
        push = heapq.heappush
        horizon = self.horizon
        warm = self.warmup
        classes = self.classes
        tas = [c.ta for c in classes]
        ta = min(tas)
        seq = self.seq
        pool = []

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
                crt = classes[ci]
                crt.created += 1
                tas[ci] = next(crt.arrivals)
                ta = min(tas)
                if pool:
                    job = pool.pop()
                else:
                    job = _Job()
                job.ci = ci
                job.entered = t
                nxt = crt.entry_route
            else:
                if t >= horizon:
                    break
                pop(heap)
                job = rec[2]
                st = rec[3]
                ci = job.ci

                if st.kc == 0:
                    # service completes at an fcfs station
                    if t > warm:
                        cell = st.cells[ci]
                        a = job.arrived
                        d = t - a
                        cell.ssum += d
                        cell.scnt += 1
                        cell.area += d if a > warm else t - warm
                        ss = job.sstart
                        cell.barea += t - ss if ss > warm else t - warm
                    st.busy -= 1
                    q = st.queue
                    if q:
                        nj = q.popleft()
                        st.busy += 1
                        nj.sstart = t
                        s = next(st.samplers[nj.ci])
                        push(heap, (t + s, seq, nj, st))
                        seq += 1
                    if st.flush_for is not None:
                        watched = st.flush_for[ci]
                        if watched:
                            for wcrt in watched:
                                pend = wcrt.pending
                                if pend:
                                    if t > warm:
                                        for pj in pend:
                                            e = pj.entered
                                            wcrt.rsum += t - e
                                            wcrt.larea += t - e if e > warm else t - warm
                                        wcrt.rcnt += len(pend)
                                    pool.extend(pend)
                                    pend.clear()
                    if st.ref_ci == ci:
                        # leaving the reference station opens a cycle
                        job.entered = t
                else:
                    # delay timer fires
                    if t > warm:
                        cell = st.cells[ci]
                        a = job.arrived
                        d = t - a
                        cell.ssum += d
                        cell.scnt += 1
                        cell.area += d if a > warm else t - warm
                    if st.ref_ci == ci:
                        job.entered = t
                nxt = st.routes[ci]

            # route the arriving or departing job to its next station
            if type(nxt) is tuple:
                u = next(nxt[2])
                cums = nxt[0]
                i = 0
                while cums[i] < u:
                    i += 1
                ns = nxt[1][i]
            else:
                ns = nxt

            kc = ns.kc
            if kc == 3:
                # sink
                crt = classes[ci]
                crt.sunk += 1
                if crt.pending is None:
                    if t > warm:
                        e = job.entered
                        crt.rsum += t - e
                        crt.rcnt += 1
                        crt.larea += t - e if e > warm else t - warm
                    pool.append(job)
                else:
                    # watched job: physically done, logically in the system
                    # until the next detection poll completes
                    crt.pending.append(job)
                continue

            if ns.ref_ci == ci and job.entered >= 0.0:
                # a cycle closes on return to the reference station
                # (entered is always set before the first return; the guard
                # is insurance against malformed hand-built topologies)
                crt = classes[ci]
                if t > warm:
                    e = job.entered
                    crt.rsum += t - e
                    crt.rcnt += 1
                    crt.larea += t - e if e > warm else t - warm

            if kc == 0:
                if ns.cap is not None and ns.busy + len(ns.queue) >= ns.cap:
                    crt = classes[ci]
                    if not crt.closed:
                        # closed populations are never dropped
                        crt.dropped += 1
                        if t > warm:
                            ns.cells[ci].drops += 1
                            e = job.entered
                            crt.larea += t - e if e > warm else t - warm
                        pool.append(job)
                        continue
                job.arrived = t
                if ns.busy < ns.servers:
                    ns.busy += 1
                    job.sstart = t
                    s = next(ns.samplers[ci])
                    push(heap, (t + s, seq, job, ns))
                    seq += 1
                else:
                    ns.queue.append(job)
            else:
                # delay entry (validation keeps jobs out of sources)
                job.arrived = t
                d = next(ns.samplers[ci])
                if d < _INF:
                    push(heap, (t + d, seq, job, ns))
                    seq += 1
                else:
                    ns.cells[ci].parked.append(job)

        self.seq = seq
        self.live = self._sweep()
        return self._finalize()

    def _sweep(self) -> list[int]:
        """Close out the jobs alive at the horizon: in service or thinking
        (calendar, in heap-array order), waiting (queues), parked (infinite
        delays) and awaiting detection. Returns the live jobs per class."""
        horizon = self.horizon
        warm = self.warmup
        classes = self.classes
        in_net = [0] * len(classes)

        def close_out(job, st, in_service):
            ci = job.ci
            in_net[ci] += 1
            cell = st.cells[ci]
            a = job.arrived
            cell.area += horizon - (a if a > warm else warm)
            if in_service:
                ss = job.sstart
                cell.barea += horizon - (ss if ss > warm else warm)
            crt = classes[ci]
            if crt.closed:
                if st is not crt.ref and job.entered >= 0.0:
                    e = job.entered
                    crt.larea += horizon - (e if e > warm else warm)
            else:
                e = job.entered
                crt.larea += horizon - (e if e > warm else warm)

        for rec in self.heap:
            close_out(rec[2], rec[3], rec[3].kc == _KC_FCFS)
        for st in self.stations:
            if st.queue:
                for job in st.queue:
                    close_out(job, st, False)
            for cell in st.cells:
                if cell is not None:
                    for job in cell.parked:
                        close_out(job, st, False)
        for crt in classes:
            if crt.pending:
                for job in crt.pending:
                    e = job.entered
                    crt.larea += horizon - (e if e > warm else warm)
        return in_net

    def _finalize(self) -> ReplicationResult:
        horizon = self.horizon
        warm = self.warmup
        model = self.model
        classes = self.classes
        self._check_conservation(self.live)

        window = horizon - warm
        samples = []
        add = samples.append
        for s, st in zip(model.stations, self.stations):
            if st.kc not in (_KC_FCFS, _KC_DELAY):
                continue
            tot = _Cell()
            served = [
                (jc.name, st.cells[i])
                for i, jc in enumerate(model.classes)
                if st.cells[i] is not None
            ]
            for cname, cell in served:
                resp = cell.ssum / cell.scnt if cell.scnt else 0.0
                if st.kc == _KC_FCFS:
                    add(MetricSample(st.name, cname, "utilization",
                                     cell.barea / (st.servers * window)))
                add(MetricSample(st.name, cname, "response-time-msec", resp))
                add(MetricSample(st.name, cname, "throughput-per-msec", cell.scnt / window))
                add(MetricSample(st.name, cname, "queue-length", cell.area / window))
                if st.kc == _KC_FCFS:
                    add(MetricSample(st.name, cname, "dropped-count", float(cell.drops)))
                    add(MetricSample(st.name, cname, "dropped-rate-per-msec", cell.drops / window))
                tot.area += cell.area
                tot.barea += cell.barea
                tot.ssum += cell.ssum
                tot.scnt += cell.scnt
                tot.drops += cell.drops
            resp = tot.ssum / tot.scnt if tot.scnt else 0.0
            if st.kc == _KC_FCFS:
                add(MetricSample(st.name, "all", "utilization", tot.barea / (st.servers * window)))
            add(MetricSample(st.name, "all", "response-time-msec", resp))
            add(MetricSample(st.name, "all", "throughput-per-msec", tot.scnt / window))
            add(MetricSample(st.name, "all", "queue-length", tot.area / window))
            if st.kc == _KC_FCFS:
                add(MetricSample(st.name, "all", "dropped-count", float(tot.drops)))
                add(MetricSample(st.name, "all", "dropped-rate-per-msec", tot.drops / window))

        for jc, crt in zip(model.classes, classes):
            resp = crt.rsum / crt.rcnt if crt.rcnt else 0.0
            add(MetricSample("system", jc.name, "response-time-msec", resp))
            add(MetricSample("system", jc.name, "throughput-per-msec", crt.rcnt / window))
            add(MetricSample("system", jc.name, "queue-length", crt.larea / window))

        return ReplicationResult(self.seed, horizon, warm, samples)

    def _check_conservation(self, in_net):
        for jc, crt in zip(self.model.classes, self.classes):
            live = in_net[crt.idx]
            if crt.closed:
                if live != crt.population:
                    raise KernelError(
                        f"closed population leak: class {jc.name} holds {live} of {crt.population}"
                    )
            elif crt.created != crt.sunk + crt.dropped + live:
                raise KernelError(
                    f"flow imbalance for class {jc.name}: created {crt.created}, "
                    f"sunk {crt.sunk}, dropped {crt.dropped}, in network {live}"
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
