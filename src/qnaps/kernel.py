"""Deterministic discrete-event engine for queueing network models.

Random numbers come from one Philox4x64-10 counter-based generator per
(station, class, purpose) triple, keyed by SHA-256 of the replication seed
and the triple. Structural edits to a model therefore never disturb the
draw sequences of untouched streams, which is what makes neutral model
transforms reproduce baseline runs bit for bit. Each distribution counts
a fixed number of draws per sample (exponential 1, deterministic 0,
erlang k, uniform 1; wrappers add their components). Every sampler but a
mixture's is the __next__ of a C-level iterator. A batched sampler chains
256-value blocks and takes the raw words for a block from its stream on
its first call and whenever the previous block runs out, so a sampler
that has its stream to itself consumes the same raw sequence as drawing
one value at a time; routing streams, one consumer each, are batched too.
The closed-class init phase and a mixture's branch uniform take one word
per value. A mixture's base and extra samplers share its stream and each
take their own 256-value blocks when they run out, so its values are
fixed by that refill order, not by a one-value-at-a-time layout.

run_replication(model, seed, horizon, warmup) is a pure function of its
arguments. The measurement window is [warmup, horizon): completion samples
are kept when they land inside it, and time averages are accumulated
through the sojourn identity (integral of the job count equals the sum of
per-job residence times clipped to the window), with jobs still alive at
the horizon closed out by a final sweep over the calendar, the queues and
the parked sets. The sweep adds up the calendar in heap-array order, so
the samples depend on the heap's layout, not only on the order of its
pops: a heapreplace in place of a pop and a push changes them. External
arrival processes are pre-drawn per class from their own streams and
merged with the calendar as the run progresses (ties go to the arrival,
then to lower class index); calendar events with equal times fire in
scheduling order. An arrival and a service completion leave through the
same routing step: sink, cycle close, finite-capacity drop, then fcfs or
delay entry.
"""
from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from itertools import chain

import numpy as np
from numpy.random import Philox

from .model import (
    DELAY,
    FCFS,
    SINK,
    SOURCE,
    NetworkModel,
    validate_model,
)
from .stats import MetricSample, ReplicationResult

_INV53 = 1.0 / (1 << 53)
_INF = math.inf


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
    """One Philox stream for one (station, class, purpose) triple.

    draws counts logical samples handed out (uniform01 counts 1, a
    distribution sampler counts its documented amount per value). Batched
    samplers count nothing per call: draws is worked out when read, from
    the words their blocks took less k per value not yet handed out.
    """

    __slots__ = ("station_id", "class_id", "purpose", "_draws", "_open", "_bg", "_raw", "_ri")

    def __init__(self, seed: int, station_id: str, class_id: str, purpose: str):
        self.station_id = station_id
        self.class_id = class_id
        self.purpose = purpose
        self._draws = 0
        self._open = []  # [k, current block iterator] per batched sampler
        material = f"{seed}|{station_id}|{class_id}|{purpose}".encode()
        key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
        self._bg = Philox(key=key)
        self._raw = np.empty(0, dtype=np.uint64)
        self._ri = 0

    @property
    def draws(self) -> int:
        return self._draws - sum(k * block.__length_hint__() for k, block in self._open)

    def take_block(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of this stream's sequence."""
        r = self._raw
        i = self._ri
        if i + n > len(r):
            fresh = self._bg.random_raw(max(2048, n))
            r = np.concatenate((r[i:], fresh))
            self._raw = r
            i = 0
        self._ri = i + n
        return r[i : i + n]

    def uniform01(self) -> float:
        self._draws += 1
        return (int(self.take_block(1)[0]) >> 11) * _INV53

    def batched_sampler(self, k: int, transform):
        """Sampler that hands out transform(u) one value at a time. u holds
        the uniforms of the next 256*k raw words, taken when the sampler is
        first called and again each time its 256 values run out; transform
        maps them to 256 values, each of which counts k draws."""
        slot = [k, iter(())]
        self._open.append(slot)

        def blocks():
            while True:
                u = (self.take_block(256 * k) >> np.uint64(11)) * _INV53
                self._draws += 256 * k
                slot[1] = block = iter(transform(u).tolist())
                yield block

        return chain.from_iterable(blocks()).__next__


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
                 "watcher", "pending", "created", "sunk", "dropped",
                 "rsum", "rcnt", "larea")

    def __init__(self, idx, name):
        self.idx = idx
        self.name = name
        self.closed = False
        self.population = 0
        self.ref = None
        self.entry_route = None
        self.watcher = None  # (poller class name, station name) if watched
        self.pending = None  # completed jobs awaiting a detection poll
        self.created = 0
        self.sunk = 0
        self.dropped = 0
        self.rsum = 0.0      # system response (open) or cycle time (closed)
        self.rcnt = 0
        self.larea = 0.0     # integral of the in-system job count


def _prearrivals(jc, stream, horizon: float):
    """All external arrival times of a class in [0, horizon), pre-drawn
    from the class arrival stream."""
    dist = jc.arrival
    if dist is None or dist.mean() == _INF:
        return np.empty(0)
    if dist.kind == "exponential":
        rate = dist.rate
        chunks = []
        total = 0.0
        target = int(horizon * rate * 1.05) + 64
        while True:
            raw = stream.take_block(target)
            u = (raw >> np.uint64(11)) * _INV53
            gaps = -np.log1p(-u) / rate
            stream._draws += target
            times = total + np.cumsum(gaps)
            total = float(times[-1])
            chunks.append(times)
            if total >= horizon:
                break
            target = max(64, int((horizon - total) * rate * 1.2) + 64)
        times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        return times[times < horizon]
    sampler = dist.sampler(stream)
    out = []
    t = sampler()
    while t < horizon:
        out.append(t)
        t += sampler()
    return np.asarray(out)


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

        # pre-drawn external arrivals, merged across classes
        times = []
        cids = []
        for jc, crt in zip(model.classes, self.classes):
            if not crt.closed and crt.entry_route is not None:
                src_name = next(
                    s.name for s in sources
                    if model.routing.successors(jc.name, s.name) is not None
                )
                tarr = _prearrivals(jc, space.stream(src_name, jc.name, "arrival"), self.horizon)
                # the loop ends only after taking every arrival before the
                # horizon, so the flow check also catches one that stops early
                crt.created = len(tarr)
                times.append(tarr)
                cids.append(np.full(len(tarr), crt.idx, dtype=np.int64))
        if times:
            tall = np.concatenate(times)
            call = np.concatenate(cids)
            order = np.lexsort((call, tall))
            self.arr_t = tall[order].tolist()
            self.arr_c = call[order].tolist()
        else:
            self.arr_t = []
            self.arr_c = []
        self.arr_t.append(_INF)
        self.arr_c.append(-1)

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
                    think = sampler()
                    if think < _INF:
                        self._push(u * think, job, ref)
                    else:
                        ref.cells[crt.idx].parked.append(job)
                else:
                    # t=0 arrival at an fcfs reference station
                    if ref.busy < ref.servers:
                        ref.busy += 1
                        self._push(sampler(), job, ref)
                    else:
                        ref.queue.append(job)

    def run(self) -> ReplicationResult:
        heap = self.heap
        if not heap and self.arr_t[0] == _INF:
            dead = [c.name for c in self.classes if c.closed]
            if dead:
                raise DeadlockError(dead)

        pop = heapq.heappop
        push = heapq.heappush
        horizon = self.horizon
        warm = self.warmup
        classes = self.classes
        arr_t = self.arr_t
        arr_c = self.arr_c
        ai = 0
        ta = arr_t[0]
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
                ci = arr_c[ai]
                ai += 1
                ta = arr_t[ai]
                if pool:
                    job = pool.pop()
                else:
                    job = _Job()
                job.ci = ci
                job.entered = t
                nxt = classes[ci].entry_route
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
                        s = st.samplers[nj.ci]()
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
                u = nxt[2]()
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
                    s = ns.samplers[ci]()
                    push(heap, (t + s, seq, job, ns))
                    seq += 1
                else:
                    ns.queue.append(job)
            else:
                # delay entry (validation keeps jobs out of sources)
                job.arrived = t
                d = ns.samplers[ci]()
                if d < _INF:
                    push(heap, (t + d, seq, job, ns))
                    seq += 1
                else:
                    ns.cells[ci].parked.append(job)

        self.seq = seq
        return self._finalize()

    def _finalize(self) -> ReplicationResult:
        horizon = self.horizon
        warm = self.warmup
        model = self.model
        classes = self.classes

        # close out live jobs: in service or thinking (calendar), waiting
        # (queues), parked (infinite delays) and awaiting detection
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

        self._check_conservation(in_net)

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
