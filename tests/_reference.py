"""The compiled extension qnaps._loop in Python: its executable specification.

fill(spec, first, n), log(values) and run(*table, fill=fill) have the
extension's signatures and, value for value and sample for sample, its
bits. The tests hold _loop.c to them. The words come from numpy's
Philox, and each block of values is an array('d'). run is the event loop
of _loop.c statement for statement (see the qnaps.kernel docstring for
the contract the two share); it takes its values from the fill it is
given, block_size of them to a fill, so a test can run it on the
extension's fill, and tools/same_bytes.py --python-loop on this one.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from itertools import count

from numpy.random import Generator, Philox

from qnaps.kernel import _INF, _KC_FCFS, _KC_SOURCE, _Table


def _philox_uniforms(k0: int, k1: int, start: int, n: int):
    """Words start .. start + n - 1 of the stream keyed k0 | k1 << 64 as
    uniforms in a numpy array, from numpy's Philox: the specification of
    the extension's words. numpy's Philox makes block b at counter b + 1,
    so a generator at counter start // 4 begins at that word's block."""
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
    """log x for x in (0, 1]: one lane of log_lanes in _loop.c, operation
    for operation, so the same bits. frexp splits x exactly where a lane
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


def fill(spec, first, n):
    """Values first .. first + n - 1 of the sampler spec (see kernel._spec)."""
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
    if kind == "shift":
        _, offset, base = spec
        return array("d", [offset + b for b in fill(base, first, n)])
    if kind == "mixture":
        _, k0, k1, p, base, extra = spec
        u = _philox_uniforms(k0, k1, first, n).tolist()
        return array("d", [a + e if b < p else a
                           for b, a, e in zip(u, fill(base, first, n), fill(extra, first, n))])
    raise TypeError(f"fill(): {spec!r} is not a sampler spec")


def log(values):
    """log x of each x in (0, 1]."""
    return array("d", map(_log, values))


class _Job:
    # entered doubles as the cycle-start marker for closed classes
    # (-1.0 until the first departure from the reference station)
    __slots__ = ("ci", "entered", "arrived", "sstart")

    def __init__(self, ci):
        self.ci = ci
        self.entered = -1.0
        self.arrived = 0.0
        self.sstart = 0.0


def _values(fill, spec, block):
    """Values 0, 1, ... of the sampler spec, made by fill block at a
    time: a sampler of the Python loop."""
    for first in count(0, block):
        yield from fill(spec, first, block)


def run(*table, fill=fill):
    """The event loop on the fields of a _Table, with values from fill:
    the tally, per cell and per class, that kernel._finalize reads, or
    None when closed jobs can never move."""
    T = _Table(*table)
    horizon = T.horizon
    warm = T.warmup
    kind = T.kind.tolist()
    servers = T.servers.tolist()
    cap = T.capacity.tolist()
    reference = T.reference.tolist()
    population = T.population.tolist()
    its = [_values(fill, spec, T.block_size) for spec in T.specs]
    init = [its[b] if b >= 0 else None for b in T.init.tolist()]
    samplers = [its[b] if b >= 0 else None for b in T.sampler.tolist()]
    ptr, to, cum = T.route_ptr.tolist(), T.route_to.tolist(), T.route_cum.tolist()
    routes = [(to[a:b], cum[a:b], its[r] if b - a > 1 else None)
              for a, b, r in zip(ptr, ptr[1:], T.route_sampler.tolist())]
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

    # t = 0: each class's first arrival, drawn from its entry, the source
    # cell with a sampler; then the closed populations in class order,
    # each job placed at its reference station as one that enters it is,
    # except that at a delay it first thinks for a phase u of its think
    # time, which desynchronizes cycles
    for ci in range(ncl):
        for s in range(nst):
            k = s * ncl + ci
            if kind[s] == _KC_SOURCE and samplers[k] is not None:
                tas[ci] = next(samplers[k])
                entry[ci] = k
                break
        s = reference[ci]
        k = s * ncl + ci
        for _ in range(population[ci]):
            job = _Job(ci)
            if kind[s] == _KC_FCFS and busy[s] < servers[s]:
                busy[s] += 1
                job.sstart = 0.0
                sv = next(samplers[k])
                push(heap, (0.0 + sv, seq, job, s))
                seq += 1
            elif kind[s] == _KC_FCFS:
                queues[s].append(job)
            else:
                think = next(samplers[k])
                u = next(init[ci])
                if think < _INF:
                    push(heap, (u * think, seq, job, s))
                    seq += 1
                else:
                    parked[k].append(job)
    if any(population) and not heap and all(ta >= horizon for ta in tas):
        return None

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

            # service completes at an fcfs station, or a delay timer fires
            fcfs = kind[s] == _KC_FCFS
            if t > warm:
                a = job.arrived
                ssum[k] += t - a
                scnt[k] += 1
                area[k] += t - (a if a > warm else warm)
                if fcfs:
                    ss = job.sstart
                    barea[k] += t - (ss if ss > warm else warm)
            if fcfs:
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
                    for pj in pend:
                        if t > warm:
                            e = pj.entered
                            rsum[w] += t - e
                            rcnt[w] += 1
                            larea[w] += t - (e if e > warm else warm)
                    pool.extend(pend)
                    pend.clear()
            if reference[ci] == s:
                # leaving the reference station opens a cycle
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
                    larea[ci] += t - (e if e > warm else warm)
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
                larea[ci] += t - (e if e > warm else warm)

        k = ns * ncl + ci
        if kc == 0:
            if cap[ns] < _INF and busy[ns] + len(queues[ns]) >= cap[ns] and reference[ci] < 0:
                # closed populations are never dropped
                dropped[ci] += 1
                if t > warm:
                    drops[k] += 1
                    e = job.entered
                    larea[ci] += t - (e if e > warm else warm)
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
        # a closed job's cycle is open unless it sits at its reference station
        if reference[ci] < 0 or (s != reference[ci] and job.entered >= 0.0):
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
