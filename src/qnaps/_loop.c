/* Compiled event loop of qnaps.kernel, and the fill of its samplers.

   run(*table) runs one replication on the _Table that kernel._build makes,
   passed field by field. It copies the table's arrays and reads its specs,
   one per sampler, into C structs, checking each once, on entry, for its
   format, its length and the range of every index in it, raising TypeError
   or ValueError naming the table or the sampler; past that the loop
   indexes unchecked. set_up then makes the t = 0 state: each class's first
   arrival, drawn from its entry, the source cell whose sampler holds its
   arrival gaps and whose route row is where it enters, and the closed
   populations at their reference stations; run returns None when nothing
   can ever happen. An arrival at t draws the next gap, and the next
   arrival is t + gap. It runs to the horizon, closes out the jobs still
   alive and returns the tally kernel._finalize reads. Each rule is one
   helper: inside (the part of an interval in the window), complete (a
   response or cycle), start_service (at an fcfs station) and enter (a
   job's entry into a station, each closed job's at t = 0 among them).

   It is run of tests/_reference.py, its specification, statement for
   statement: every float operation keeps that loop's order and grouping,
   and the calendar is a binary heap with heapq's sift algorithm keyed on
   (t, seq), so its array layout, which the closing sweep walks, is the
   same. A sampler is its spec, whose values the loop takes from value 0
   on, refilling a buffer of block_size values per sampler with fill_spec,
   so it calls no Python function and hands back only the tally. The loop
   runs without the GIL, so replications on threads run in parallel: it
   takes the GIL back only for its signal check and to raise its errors
   (PyGILState, which assumes the main interpreter), and its jobs and
   calendar grow in the raw memory domain, which needs no GIL. Every array
   of the engine is raw, malloc's, with exactly the entries it needs (an
   empty one is a 1-byte block of its own, so NULL means out of memory),
   so the AddressSanitizer of tools/sanitize.py, blind to pymalloc's
   pools, reports a read past any of them. Reading the table, set_up, the
   closing sweep and the tally hold the GIL. The kernel module docstring
   has the build flags this relies on.

   fill(spec, first, n) is fill_spec from Python: values first .. first
   + n - 1 of a sampler. Its words are a stateless Philox4x64-10, so any
   word is a function of the key and its position, the same words as
   numpy's Generator(Philox(key)).random, which tests/test_kernel.py
   compares them against; its log is fdlibm's, run on 8 values at a time
   in SIMD lanes whose bits are each those of the scalar fdlibm
   (log_lanes), so no value depends on the CPU, its vector width or a
   libm. fill of tests/_reference.py is the same in Python, value for
   value. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>
#include <string.h>

enum { KC_FCFS = 0, KC_DELAY = 1, KC_SOURCE = 2, KC_SINK = 3 };

/* signals are checked once per this many events */
#define SIGNAL_EVERY 4096

/* validate_model's bound on a table's closed jobs, which set_up places with no signal check */
#define MAX_POPULATION (1 << 24)

/* stmt run with the GIL, which the loop runs without and Python's callers hold */
#define WITH_GIL(stmt)                                 \
    do {                                               \
        PyGILState_STATE gil_ = PyGILState_Ensure();   \
        stmt;                                          \
        PyGILState_Release(gil_);                      \
    } while (0)

/* the arrays of a _Table, in its order between block_size and specs */
enum {
    KIND, SERVERS, CAPACITY, SAMPLER, ROUTE_PTR, ROUTE_TO, ROUTE_CUM, ROUTE_SAMPLER,
    FLUSH_PTR, FLUSH_CLS, REFERENCE, POPULATION, INIT, NTABLES
};

static const char *const TABLE_NAMES[NTABLES] = {
    "kind", "servers", "capacity", "sampler", "route_ptr", "route_to", "route_cum", "route_sampler",
    "flush_ptr", "flush_cls", "reference", "population", "init",
};

/* each array's buffer format: i int32, d float64 */
static const char TABLE_FORMATS[NTABLES + 1] = "iddiiidiiiiii";

typedef struct {
    double t;
    long long seq;
    int job;
    int st;
} Event;

typedef struct {
    double entered;  /* arrival in the system, or cycle start; -1.0 unset, so
                        a closed job's t = 0 entry at its reference closes no cycle */
    double arrived;  /* arrival at the current station */
    double sstart;   /* service start at the current fcfs station */
    int ci;
    int next;        /* next job in the same list, or -1 */
} Job;

/* FIFO of jobs linked through Job.next */
typedef struct {
    int head, tail;
    Py_ssize_t len;
} List;

/* a sampler of the table: its values made block_size at a time into v */
typedef struct {
    int spec;       /* its root node */
    uint64_t next;  /* the index of the first value the next refill makes */
    double *v;
    Py_ssize_t i;   /* the next value in v; block_size when v is used up */
} Sampler;

typedef struct {
    double area, barea, ssum;
    long long scnt, drops;
    List parked;
    Sampler *sampler;  /* its service, delay or arrival gaps; NULL if none */
} Cell;

typedef struct {
    double ta;           /* next arrival time, +inf without arrivals */
    Py_ssize_t entry;    /* its source cell, whose sampler holds its arrival gaps */
    int watched;         /* a detection poll flushes it: it is in flush_cls */
    List pending;
    long long created, sunk, dropped, live, rcnt;
    double rsum, larea;
} Class;

/* a route row of the table: its successor count, the first successor,
   the sampler of its uniforms and its offset into route_to and route_cum */
typedef struct {
    int n, to, sampler, first;
} Route;

/* the kinds of spec node, by the name their tuple starts with */
enum { SP_CONST, SP_UNIFORM, SP_ERLANG, SP_SHIFT, SP_MIXTURE, NKINDS };

static const char *const SPEC_NAMES[NKINDS] = {"const", "uniform", "erlang", "shift", "mixture"};

/* no spec nests deeper than this */
#define MAX_DEPTH 64

/* a node of a spec tree, whose kinds kernel._spec describes */
typedef struct {
    int kind;
    int k;            /* an erlang value's phases */
    uint64_t k0, k1;  /* the key of its words; a mixture's are its branch uniforms */
    double x, span;   /* const value, uniform low, erlang scale, shift offset or mixture p */
    int base, extra;  /* the nodes of a shift's base, of a mixture's base and extra */
} Spec;

/* the nodes of the specs read so far */
typedef struct {
    Spec *v;
    Py_ssize_t n, cap;
} Specs;

typedef struct {
    double horizon, warm;
    long long seq;
    Py_ssize_t nst, ncl, block, nsamplers;
    Py_ssize_t len[NTABLES];
    union {
        void *tab[NTABLES];  /* copies of the table's arrays, in its order */
        struct {
            const int *kind;
            const double *servers, *capacity;
            const int *sampler, *route_ptr, *route_to;
            const double *route_cum;
            const int *route_sampler, *flush_ptr, *flush_cls, *reference, *population, *init;
        };
    };
    long long *busy;     /* per station */
    List *queue;         /* per station */
    Cell *cells;         /* [station * ncl + class] */
    Route *routes;       /* per cell: its route row */
    Class *cl;
    Specs specs;
    Sampler *samplers;
    double *vals;        /* the samplers' buffers, one after another */
    Job *jobs;
    Event *heap;
    Py_ssize_t njobs, capjobs, hlen, hcap;
    int free;
} Engine;

_Static_assert(offsetof(Engine, init) == offsetof(Engine, tab) + (NTABLES - 1) * sizeof(void *),
               "the named tables of Engine line up with tab");

#define AT(E, s, c) ((Py_ssize_t)(s) * (E)->ncl + (c))

/* the raw array at *v, of *cap entries of size bytes, doubled, or made 64
   entries from none: -1, both left as they were, past 2**30 entries (a
   job, an event or a spec node is an int index, and the calendar holds
   at most one event per job) or out of memory. v is read as a void **
   (-fno-strict-aliasing). */
static int
grow(void *v, Py_ssize_t *cap, size_t size)
{
    Py_ssize_t n = *cap ? 2 * *cap : 64;
    void *grown = n <= 1 << 30 ? PyMem_RawRealloc(*(void **)v, (size_t)n * size) : NULL;
    if (grown == NULL)
        return -1;
    *(void **)v = grown;
    *cap = n;
    return 0;
}

/* ------------------------------------------------------------------ */
/* jobs and lists */

static inline int
job_new(Engine *E)
{
    int j = E->free;
    if (j >= 0) {
        E->free = E->jobs[j].next;
    } else {
        if (E->njobs == E->capjobs && grow(&E->jobs, &E->capjobs, sizeof(Job)) < 0) {
            WITH_GIL(PyErr_NoMemory());
            return -1;
        }
        j = E->njobs++;
    }
    Job *J = &E->jobs[j];
    J->ci = 0;
    J->entered = -1.0;
    J->arrived = 0.0;
    J->sstart = 0.0;
    J->next = -1;
    return j;
}

static inline void
job_free(Engine *E, int j)
{
    E->jobs[j].next = E->free;
    E->free = j;
}

static inline void
list_append(Engine *E, List *L, int j)
{
    E->jobs[j].next = -1;
    if (L->len)
        E->jobs[L->tail].next = j;
    else
        L->head = j;
    L->tail = j;
    L->len++;
}

static inline int
list_popleft(Engine *E, List *L)
{
    int j = L->head;
    L->head = E->jobs[j].next;
    L->len--;
    return j;
}

/* ------------------------------------------------------------------ */
/* calendar: heapq's _siftdown (sift_item) and _siftup (sift_up) on (t, seq)

   An event's key is (bits(t) << 1) << 64 | seq, compared as one unsigned
   128-bit integer. The bits of a double t >= 0, +inf among them, rise
   with t, since its exponent sits above its significand; the shift drops
   the sign bit, so -0.0 keys as +0.0 and their tie goes to seq, as the
   tuples (t, seq) tie in heapq. A time is a value times a uniform, or
   the time of an event plus a value, and read_spec refuses a spec with
   a number below 0 or NaN; so the key orders every time the loop pushes
   as (t, seq) does. */
static inline unsigned __int128
ev_key(const Event *e)
{
    uint64_t bits;
    memcpy(&bits, &e->t, sizeof bits);
    return (unsigned __int128)(bits << 1) << 64 | (uint64_t)e->seq;
}

static inline int
ev_lt(const Event *a, const Event *b)
{
    return ev_key(a) < ev_key(b);
}

/* heapq's _siftdown with its newitem passed in, not read back from h[pos]:
   newitem fills the hole at pos, rising toward startpos past each parent
   it sorts before. The event a push makes stays in
   registers, so no load waits on the stores that would have written it,
   and the comparisons, the moves and the array are heapq's. */
static inline void
sift_item(Event *h, Py_ssize_t startpos, Py_ssize_t pos, Event newitem)
{
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (ev_lt(&newitem, &h[parentpos])) {
            h[pos] = h[parentpos];
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = newitem;
}

/* heapq's _siftup with its newitem passed in: the hole at pos sinks to a
   leaf along the smaller children, and newitem fills it as sift_item
   does; a pop passes the last event in, not storing it at the root first */
static inline void
sift_up(Event *h, Py_ssize_t endpos, Py_ssize_t pos, Event newitem)
{
    Py_ssize_t startpos = pos;
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !ev_lt(&h[childpos], &h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    sift_item(h, startpos, pos, newitem);
}

static inline int
heap_push(Engine *E, double t, int job, int st)
{
    if (E->hlen == E->hcap && grow(&E->heap, &E->hcap, sizeof(Event)) < 0) {
        WITH_GIL(PyErr_NoMemory());
        return -1;
    }
    Event ev = {t, E->seq++, job, st};
    sift_item(E->heap, 0, E->hlen++, ev);
    return 0;
}

static inline Event
heap_pop(Engine *E)
{
    Event last = E->heap[--E->hlen];
    if (E->hlen) {
        Event top = E->heap[0];
        sift_up(E->heap, E->hlen, 0, last);
        return top;
    }
    return last;
}

/* ------------------------------------------------------------------ */
/* Philox4x64-10 words */

/* one Philox4x64 round on ctr under key (Salmon et al., SC 2011) */
static inline void
philox_round(uint64_t ctr[4], const uint64_t key[2])
{
    unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * ctr[0];
    unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * ctr[2];
    uint64_t hi0 = (uint64_t)(p0 >> 64), lo0 = (uint64_t)p0;
    uint64_t hi1 = (uint64_t)(p1 >> 64), lo1 = (uint64_t)p1;
    ctr[0] = hi1 ^ ctr[1] ^ key[0];
    ctr[1] = lo1;
    ctr[2] = hi0 ^ ctr[3] ^ key[1];
    ctr[3] = lo0;
}

/* the four words of block b of the stream keyed (k0, k1), which sits at
   counter b + 1, as numpy's Philox increments its counter before each block */
static inline void
philox_block(uint64_t k0, uint64_t k1, uint64_t b, uint64_t out[4])
{
    uint64_t key[2] = {k0, k1};
    out[0] = b + 1;
    out[1] = out[2] = out[3] = 0;
    philox_round(out, key);
    for (int r = 1; r < 10; r++) {
        key[0] += 0x9E3779B97F4A7C15ULL;
        key[1] += 0xBB67AE8584CAA73BULL;
        philox_round(out, key);
    }
}

/* the words of one stream, read in order from a start position */
typedef struct {
    uint64_t k0, k1;
    uint64_t b;         /* the block held in words */
    uint64_t words[4];
    int w;              /* the next word of the block */
} Words;

/* W at word start of the stream keyed k0 | k1 << 64 */
static void
words_at(Words *W, uint64_t k0, uint64_t k1, uint64_t start)
{
    W->k0 = k0;
    W->k1 = k1;
    W->b = start / 4;
    W->w = (int)(start % 4);
    philox_block(k0, k1, W->b, W->words);
}

/* the next word as a uniform on [0, 1): its top 53 bits times 2**-53, which
   is what numpy's Generator(Philox(key)).random hands out */
static inline double
next_uniform(Words *W)
{
    if (W->w == 4) {
        philox_block(W->k0, W->k1, ++W->b, W->words);
        W->w = 0;
    }
    return (double)(W->words[W->w++] >> 11) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ */
/* the log of the samplers */

/* fdlibm's e_log.c (Sun Microsystems, 1993): ln 2 split into a head with
   a short significand and a tail, and the coefficients of its minimax
   polynomial R(z) ~ (log(1 + f) - 2s - ...) / s, s = f / (2 + f), z = s*s */
static const double LN2_HI = 0x1.62e42feep-1, LN2_LO = 0x1.a39ef35793c76p-33,
    LG1 = 0x1.5555555555593p-1, LG2 = 0x1.999999997fa04p-2, LG3 = 0x1.2492494229359p-2,
    LG4 = 0x1.c71c51d8e78afp-3, LG5 = 0x1.7466496cb03dep-3, LG6 = 0x1.39a09d078c69fp-3,
    LG7 = 0x1.2f112df3e5244p-3;

/* values the lane log takes at once: 8 doubles, one AVX-512 register */
#define LANES 8

typedef double Lanes __attribute__((vector_size(LANES * sizeof(double))));
typedef long long Ints __attribute__((vector_size(LANES * sizeof(double))));
typedef unsigned long long Bits __attribute__((vector_size(LANES * sizeof(double))));

/* a in the lanes where mask m is all ones, b where it is all zeros */
#define SELECT(m, a, b) ((Lanes)(((Bits)(m) & (Bits)(a)) | (~(Bits)(m) & (Bits)(b))))

/* the targets log_lanes is built for, of which the loader picks the best
   this CPU has; a test build pins one with -DLANE_TARGETS=... */
#ifndef LANE_TARGETS
#if defined(__x86_64__)
#define LANE_TARGETS __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define LANE_TARGETS
#endif
#endif

/* log x of each x of v[0 .. n - 1] in place, for x in (0, 1], within 1
   ulp, by fdlibm's __ieee754_log: x = 2**k (1 + f) with sqrt(2)/2 <= 1 +
   f < sqrt(2), and log x = k ln 2 + log(1 + f), with log(1 + f) = f -
   f*f/2 + s (f*f/2 + R). It takes LANES values at a time, padding a
   shorter tail with 1.0: each lane does fdlibm's operations in fdlibm's
   order, every branch is computed, and each lane picks its own by a
   mask. IEEE add, multiply and divide round the same in any register,
   and -ffp-contract=off forbids fused multiply-add, so on every target
   and every IEEE machine each lane has the bits of the scalar fdlibm; no
   libm is called. Its branches on k = 0 are left out, as k ln 2 = 0 then
   gives the same bits. The vectors live only inside this function, so no
   call passes one. _log of tests/_reference.py is its specification, one
   value at a time. */
static void LANE_TARGETS
log_lanes(double *v, Py_ssize_t n)
{
    for (Py_ssize_t at = 0; at < n; at += LANES) {
        Lanes x;
        if (n - at >= LANES)
            memcpy(&x, v + at, sizeof x);
        else
            for (int j = 0; j < LANES; j++)
                x[j] = at + j < n ? v[at + j] : 1.0;
        Bits bits = (Bits)x;
        /* subnormal: scaled into the normal range, and k -54 */
        Bits sub = (Bits)((bits >> 52) == 0);
        bits = (sub & (Bits)(x * 0x1p54)) | (~sub & bits);
        Bits hx = bits >> 32;
        Ints k = ((Ints)sub & -54) + (Ints)(hx >> 20) - 1023;
        hx &= 0x000fffff;
        /* i is 2**20 when the significand is at least sqrt(2): then 1 + f
           is it halved, and k one more */
        Bits i = (hx + 0x95f64) & 0x100000;
        bits = (bits & 0xffffffff) | (hx | (i ^ 0x3ff00000)) << 32;
        k += (Ints)(i >> 20);
        Lanes f = (Lanes)bits - 1.0;
        /* (double)k, exactly: |k| < 2**51, so the bits of 1.5 * 2**52 plus k
           are those of 1.5 * 2**52 + k */
        Lanes dk = (Lanes)(k + 0x4338000000000000LL) - 0x1.8p52;
        /* |f| < 2**-20, with f == 0 apart */
        Ints tiny = (Ints)(0x000fffff & (2 + hx)) < 3;
        Lanes R0 = f * f * (0.5 - 0.33333333333333333 * f);
        Lanes near1 = SELECT(f == 0.0, dk * LN2_HI + dk * LN2_LO,
                             dk * LN2_HI - ((R0 - dk * LN2_LO) - f));
        Lanes s = f / (2.0 + f), z = s * s, w = z * z;
        Lanes t1 = w * (LG2 + w * (LG4 + w * LG6));
        Lanes t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
        Lanes R = t2 + t1, hfsq = 0.5 * f * f;
        Ints h = (Ints)hx;
        Lanes y = SELECT(((h - 0x6147a) | (0x6b851 - h)) > 0,
                         dk * LN2_HI - ((hfsq - (s * (hfsq + R) + dk * LN2_LO)) - f),
                         dk * LN2_HI - ((s * (f - R) - dk * LN2_LO) - f));
        y = SELECT(tiny, near1, y);
        if (n - at >= LANES)
            memcpy(v + at, &y, sizeof y);
        else
            for (int j = 0; at + j < n; j++)
                v[at + j] = y[j];
    }
}

/* ------------------------------------------------------------------ */
/* sampler specs */

/* exc for a spec that cannot be read, naming sampler b, or fill() when b < 0 */
static int
bad_spec(Py_ssize_t b, PyObject *spec, PyObject *exc, const char *why)
{
    if (b < 0)
        PyErr_Format(exc, "fill(): %R %s", spec, why);
    else
        PyErr_Format(exc, "sampler %zd: %R %s", b, spec, why);
    return -1;
}

/* the node of spec, and the nodes of its parts, appended to S: its index,
   or -1 with TypeError or ValueError naming sampler b */
static int
read_spec(Specs *S, PyObject *spec, Py_ssize_t b, int depth)
{
    PyObject *tag = PyTuple_Check(spec) && PyTuple_GET_SIZE(spec) ? PyTuple_GET_ITEM(spec, 0) : NULL;
    int kind = tag != NULL && PyUnicode_Check(tag) ? 0 : NKINDS, ok = 0;
    while (kind < NKINDS && PyUnicode_CompareWithASCIIString(tag, SPEC_NAMES[kind]) != 0)
        kind++;
    const char *name;
    PyObject *key[2] = {NULL, NULL}, *part[2] = {NULL, NULL};
    Spec N = {.kind = kind, .k = 1, .base = -1, .extra = -1};
    switch (kind) {
    case SP_CONST:
        ok = PyArg_ParseTuple(spec, "sd", &name, &N.x);
        break;
    case SP_UNIFORM:
        ok = PyArg_ParseTuple(spec, "sOOdd", &name, &key[0], &key[1], &N.x, &N.span);
        break;
    case SP_ERLANG:
        ok = PyArg_ParseTuple(spec, "sOOid", &name, &key[0], &key[1], &N.k, &N.x);
        break;
    case SP_SHIFT:
        ok = PyArg_ParseTuple(spec, "sdO", &name, &N.x, &part[0]);
        break;
    case SP_MIXTURE:
        ok = PyArg_ParseTuple(spec, "sOOdOO", &name, &key[0], &key[1], &N.x, &part[0], &part[1]);
    }
    if (ok && key[0] != NULL) {
        N.k0 = PyLong_AsUnsignedLongLong(key[0]);
        N.k1 = PyErr_Occurred() ? 0 : PyLong_AsUnsignedLongLong(key[1]);
        if (PyErr_Occurred() && PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_Clear();
            return bad_spec(b, spec, PyExc_ValueError, "has a key word outside [0, 2**64)");
        }
        ok = !PyErr_Occurred();
    }
    if (!ok) {
        PyErr_Clear();
        return bad_spec(b, spec, PyExc_TypeError, "is not a sampler spec");
    }
    if (N.k < 1)
        return bad_spec(b, spec, PyExc_ValueError, "has fewer than one phase");
    /* the ranges validate_model enforces, so that no value is negative or
       NaN, which the calendar's key does not order; -0.0 and +inf pass (an
       infinite scale still makes 0 * inf, NaN, of a word of 0: 1 in 2**53) */
    if (kind == SP_MIXTURE && !(N.x >= 0.0 && N.x <= 1.0))
        return bad_spec(b, spec, PyExc_ValueError, "has a probability outside [0, 1]");
    if (!(N.x >= 0.0 && N.span >= 0.0))
        return bad_spec(b, spec, PyExc_ValueError, "has a number below 0 or NaN");
    if (depth == MAX_DEPTH)
        return bad_spec(b, spec, PyExc_ValueError, "nests too deep");
    if (S->n == S->cap && grow(&S->v, &S->cap, sizeof(Spec)) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    int at = S->n++;
    if ((part[0] != NULL && (N.base = read_spec(S, part[0], b, depth + 1)) < 0)
        || (part[1] != NULL && (N.extra = read_spec(S, part[1], b, depth + 1)) < 0))
        return -1;
    S->v[at] = N;
    return at;
}

/* words an erlang fill takes at a time, and extra values a mixture makes at a time */
#define CHUNK 512

/* values first .. first + n - 1 of erlang node N into v: -(log(1 - u1) +
   ... + log(1 - uk)), summed left to right, times scale = 1 / rate; with
   k = 1 the exponential, arrival gaps too. 1 - u is exact, so log(1 - u)
   is log1p(-u). The words go through a buffer CHUNK at a time, as 1 - u
   and then, in place, as their logs; a value's partial sum and its phase
   carry from one chunk to the next, so every k takes this one path. */
static int
fill_erlang(const Spec *N, uint64_t first, Py_ssize_t n, double *v)
{
    const double x = N->x;  /* v may alias specs */
    const int k = N->k;
    uint64_t end;
    if (__builtin_mul_overflow(first + (uint64_t)n, (uint64_t)k, &end)) {
        WITH_GIL(PyErr_Format(PyExc_ValueError, "no words for values %llu + [0, %zd) of %d each",
                              (unsigned long long)first, n, k));
        return -1;
    }
    Words W;
    double buf[CHUNK], sum = 0.0;
    int phase = 0;
    uint64_t left = end - first * (uint64_t)k;  /* the words still to take */
    words_at(&W, N->k0, N->k1, first * (uint64_t)k);
    while (left > 0) {
        int m = left < CHUNK ? (int)left : CHUNK;
        for (int j = 0; j < m; j++)
            buf[j] = 1.0 - next_uniform(&W);
        log_lanes(buf, m);
        for (int j = 0; j < m; j++) {
            sum = phase ? sum + buf[j] : buf[j];
            if (++phase == k) {
                *v++ = -sum * x;
                phase = 0;
            }
        }
        left -= (uint64_t)m;
    }
    return 0;
}

static int fill_spec(const Spec *specs, int s, uint64_t first, Py_ssize_t n, double *v);

/* values first .. first + n - 1 of mixture node N into v: base value j,
   plus extra value j when branch uniform j is below p. The extra values
   are made CHUNK at a time over the base's indices, taken or not, into a
   buffer that noinline keeps out of the leaves' frame in fill_spec. */
static int __attribute__((noinline))
fill_mixture(const Spec *specs, const Spec *N, uint64_t first, Py_ssize_t n, double *v)
{
    const double p = N->x;  /* v may alias specs */
    Words W;
    if (fill_spec(specs, N->base, first, n, v) < 0)
        return -1;
    words_at(&W, N->k0, N->k1, first);
    for (Py_ssize_t i = 0; i < n; i += CHUNK) {
        double extra[CHUNK];
        Py_ssize_t m = n - i < CHUNK ? n - i : CHUNK;
        if (fill_spec(specs, N->extra, first + (uint64_t)i, m, extra) < 0)
            return -1;
        for (Py_ssize_t j = 0; j < m; j++)
            if (next_uniform(&W) < p)
                v[i + j] = v[i + j] + extra[j];
    }
    return 0;
}

/* values first .. first + n - 1 of node s of specs into v, each
   tests/_reference.py's fill of its kind operation for operation. A leaf
   that takes k words a value makes value j from words jk .. jk + k - 1
   of its key, and a mixture makes value j from value j of its branch
   uniforms, its base and its extra, so no value depends on n. */
static int __attribute__((noinline))
fill_spec(const Spec *specs, int s, uint64_t first, Py_ssize_t n, double *v)
{
    const Spec *N = &specs[s];
    const double x = N->x, span = N->span;  /* v may alias specs */
    Words W;
    switch (N->kind) {
    case SP_CONST:
        for (Py_ssize_t i = 0; i < n; i++)
            v[i] = x;
        return 0;
    case SP_UNIFORM:
        /* low + span * u */
        words_at(&W, N->k0, N->k1, first);
        for (Py_ssize_t i = 0; i < n; i++)
            v[i] = x + span * next_uniform(&W);
        return 0;
    case SP_ERLANG:
        return fill_erlang(N, first, n, v);
    case SP_SHIFT:
        if (fill_spec(specs, N->base, first, n, v) < 0)
            return -1;
        for (Py_ssize_t i = 0; i < n; i++)
            v[i] = x + v[i];
        return 0;
    }
    return fill_mixture(specs, N, first, n, v);
}

/* ------------------------------------------------------------------ */
/* reading the table */

/* array k of the table copied into E->tab[k]: a 1-d array of its format */
static int
read_table(Engine *E, int k, PyObject *obj)
{
    const char format[2] = {TABLE_FORMATS[k], '\0'};
    size_t itemsize = format[0] == 'i' ? sizeof(int) : sizeof(double);
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        goto wrong;
    }
    if (view.ndim != 1 || (size_t)view.itemsize != itemsize || view.format == NULL
        || strcmp(view.format, format) != 0) {
        PyBuffer_Release(&view);
        goto wrong;
    }
    E->len[k] = view.shape[0];
    if ((E->tab[k] = PyMem_RawMalloc((size_t)view.len)) != NULL)
        memcpy(E->tab[k], view.buf, (size_t)view.len);
    PyBuffer_Release(&view);
    if (E->tab[k] == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
wrong:
    PyErr_Format(PyExc_TypeError, "table '%s' is not a 1-d %s array", TABLE_NAMES[k],
                 format[0] == 'i' ? "int32" : "float64");
    return -1;
}

/* the spec of every sampler in the list specs read into E->specs, and
   the buffer of each */
static int
read_samplers(Engine *E, PyObject *specs)
{
    if (!PyList_Check(specs)) {
        PyErr_SetString(PyExc_TypeError, "table 'specs' is not a list");
        return -1;
    }
    /* a tuple, as converting a number can run code that changes the list */
    PyObject *items = PyList_AsTuple(specs);
    if (items == NULL)
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(items);
    if ((size_t)n > PY_SSIZE_T_MAX / sizeof(double) / (size_t)E->block) {
        Py_DECREF(items);
        PyErr_NoMemory();
        return -1;
    }
    E->samplers = PyMem_RawCalloc((size_t)n, sizeof(Sampler));
    E->vals = PyMem_RawMalloc((size_t)(n * E->block) * sizeof(double));
    int rc = E->samplers == NULL || E->vals == NULL ? (PyErr_NoMemory(), -1) : 0;
    for (Py_ssize_t b = 0; rc == 0 && b < n; b++) {
        int s = read_spec(&E->specs, PyTuple_GET_ITEM(items, b), b, 0);
        if (s < 0)
            rc = -1;
        else
            E->samplers[b] = (Sampler){s, 0, E->vals + b * E->block, E->block};
    }
    Py_DECREF(items);
    E->nsamplers = n;
    return rc;
}

/* ValueError unless every entry of int32 array k lies in [lo, hi) */
static int
in_range(const Engine *E, int k, int lo, Py_ssize_t hi)
{
    const int *v = E->tab[k];
    for (Py_ssize_t i = 0; i < E->len[k]; i++)
        if (v[i] < lo || v[i] >= hi) {
            PyErr_Format(PyExc_ValueError, "table '%s' holds %d at %zd, outside [%d, %zd)",
                         TABLE_NAMES[k], v[i], i, lo, hi);
            return -1;
        }
    return 0;
}

/* ValueError unless array k is offsets into array of: rising from 0 to its length */
static int
offsets(const Engine *E, int k, int of)
{
    const int *v = E->tab[k];
    Py_ssize_t n = E->len[k], end = E->len[of];
    for (Py_ssize_t i = 0; i < n; i++)
        if (v[i] < (i ? v[i - 1] : 0) || v[i] > end || (i == 0 && v[i] != 0)
            || (i == n - 1 && v[i] != end)) {
            PyErr_Format(PyExc_ValueError, "table '%s' is not offsets from 0 to %zd",
                         TABLE_NAMES[k], end);
            return -1;
        }
    return 0;
}

/* the table's lengths agree with its station, class and sampler counts,
   every index in it is in range, its populations sum to no more than
   MAX_POPULATION, and a class with jobs has a reference station that
   serves it, and an init sampler unless that station is fcfs */
static int
check_tables(Engine *E)
{
    Py_ssize_t nst = E->nst = E->len[KIND], ncl = E->ncl = E->len[REFERENCE], cells = nst * ncl;
    Py_ssize_t want[NTABLES] = {
        [KIND] = nst, [SERVERS] = nst, [CAPACITY] = nst, [SAMPLER] = cells,
        [ROUTE_PTR] = cells + 1, [ROUTE_TO] = E->len[ROUTE_TO], [ROUTE_CUM] = E->len[ROUTE_TO],
        [ROUTE_SAMPLER] = cells, [FLUSH_PTR] = cells + 1, [FLUSH_CLS] = E->len[FLUSH_CLS],
        [REFERENCE] = ncl, [POPULATION] = ncl, [INIT] = ncl,
    };
    for (int k = 0; k < NTABLES; k++)
        if (E->len[k] != want[k]) {
            PyErr_Format(PyExc_ValueError, "table '%s' has %zd entries, expected %zd",
                         TABLE_NAMES[k], E->len[k], want[k]);
            return -1;
        }
    if (in_range(E, KIND, KC_FCFS, KC_SINK + 1) < 0
        || in_range(E, SAMPLER, -1, E->nsamplers) < 0 || offsets(E, ROUTE_PTR, ROUTE_TO) < 0
        || in_range(E, ROUTE_TO, 0, nst) < 0 || in_range(E, ROUTE_SAMPLER, -1, E->nsamplers) < 0
        || offsets(E, FLUSH_PTR, FLUSH_CLS) < 0 || in_range(E, FLUSH_CLS, 0, ncl) < 0
        || in_range(E, REFERENCE, -1, nst) < 0 || in_range(E, POPULATION, 0, MAX_POPULATION + 1) < 0
        || in_range(E, INIT, -1, E->nsamplers) < 0)
        return -1;
    long long jobs = 0;
    for (int c = 0; c < ncl; c++) {
        int s = E->reference[c];
        jobs += E->population[c];
        if (E->population[c] && (s < 0 || E->sampler[AT(E, s, c)] < 0))
            return PyErr_Format(PyExc_ValueError, "table 'population' places class %d at "
                                "station %d, which does not serve it", c, s), -1;
        if (E->population[c] && E->kind[s] != KC_FCFS && E->init[c] < 0)
            return PyErr_Format(PyExc_ValueError, "table 'init' has no sampler for class %d", c), -1;
    }
    if (jobs > MAX_POPULATION)
        return PyErr_Format(PyExc_ValueError, "table 'population' sums to %lld, above %d", jobs,
                            MAX_POPULATION), -1;
    return 0;
}

/* the engine of a table passed as run()'s arguments, checked, with its
   route rows and watched classes in place */
static int
read_engine(Engine *E, PyObject *const *args)
{
    E->horizon = PyFloat_AsDouble(args[0]);
    E->warm = PyFloat_AsDouble(args[1]);
    E->block = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return -1;
    if (E->block < 1) {
        PyErr_Format(PyExc_ValueError, "table 'block_size' is %zd, not a positive count", E->block);
        return -1;
    }
    /* a loop that never reaches its horizon never returns */
    if (!isfinite(E->horizon)) {
        PyErr_Format(PyExc_ValueError, "table 'horizon' is %R, not a finite time", args[0]);
        return -1;
    }
    if (!(E->warm >= 0.0 && E->warm < E->horizon)) {
        PyErr_Format(PyExc_ValueError, "table 'warmup' is %R, not in [0, horizon)", args[1]);
        return -1;
    }
    for (int k = 0; k < NTABLES; k++)
        if (read_table(E, k, args[3 + k]) < 0)
            return -1;
    if (read_samplers(E, args[3 + NTABLES]) < 0 || check_tables(E) < 0)
        return -1;
    Py_ssize_t cells = (Py_ssize_t)E->nst * E->ncl;
    E->busy = PyMem_RawCalloc((size_t)E->nst, sizeof(long long));
    E->queue = PyMem_RawCalloc((size_t)E->nst, sizeof(List));
    E->cells = PyMem_RawCalloc((size_t)cells, sizeof(Cell));
    E->cl = PyMem_RawCalloc((size_t)E->ncl, sizeof(Class));
    E->routes = PyMem_RawCalloc((size_t)cells, sizeof(Route));
    if (!E->busy || !E->queue || !E->cells || !E->cl || !E->routes) {
        PyErr_NoMemory();
        return -1;
    }
    /* a route row takes its class to a sink or to a station that serves
       it, never into a source, and has a sampler of uniforms when it has
       more than one successor */
    for (Py_ssize_t r = 0; r < cells; r++) {
        int first = E->route_ptr[r], n = E->route_ptr[r + 1] - first;
        Py_ssize_t c = r % E->ncl;
        if (n > 1 && E->route_sampler[r] < 0) {
            PyErr_Format(PyExc_ValueError, "table 'route_sampler' has no sampler for route row %zd", r);
            return -1;
        }
        for (int i = first; i < first + n; i++) {
            int to = E->route_to[i];
            const char *bad = E->kind[to] == KC_SOURCE ? "is a source"
                : E->kind[to] != KC_SINK && E->sampler[AT(E, to, c)] < 0 ? "does not serve it"
                : NULL;
            if (bad != NULL) {
                PyErr_Format(PyExc_ValueError,
                             "table 'route_to' sends class %zd to station %d, which %s", c, to, bad);
                return -1;
            }
        }
        E->routes[r] = (Route){n, n ? E->route_to[first] : -1, E->route_sampler[r], first};
        if (E->sampler[r] >= 0)
            E->cells[r].sampler = &E->samplers[E->sampler[r]];
    }
    for (Py_ssize_t k = 0; k < E->len[FLUSH_CLS]; k++)
        E->cl[E->flush_cls[k]].watched = 1;
    return 0;
}

static void
free_engine(Engine *E)
{
    void *arrays[] = {E->busy, E->queue, E->cells, E->cl, E->routes, E->specs.v,
                      E->samplers, E->vals, E->jobs, E->heap};
    for (int k = 0; k < NTABLES; k++)
        PyMem_RawFree(E->tab[k]);
    for (size_t k = 0; k < sizeof arrays / sizeof *arrays; k++)
        PyMem_RawFree(arrays[k]);
}

/* ------------------------------------------------------------------ */
/* the event loop */

/* the next value of sampler S, refilling its buffer when it is used up */
static inline int
draw(Engine *E, Sampler *S, double *out)
{
    if (S->i == E->block) {
        if (fill_spec(E->specs.v, S->spec, S->next, E->block, S->v) < 0)
            return -1;
        S->next += (uint64_t)E->block;
        S->i = 0;
    }
    *out = S->v[S->i++];
    return 0;
}

/* the part of [x, t) inside the window, which starts at warm */
static inline double
inside(double x, double t, double warm)
{
    return t - (x > warm ? x : warm);
}

/* a response (open class) or a cycle (closed class) that began at e
   completes at t: recorded when t is inside the window */
static inline void
complete(Class *C, double e, double t, double warm)
{
    if (t > warm) {
        C->rsum += t - e;
        C->rcnt += 1;
        C->larea += inside(e, t, warm);
    }
}

/* job j starts service at fcfs station s at t, for a time drawn from S,
   the sampler of its cell */
static inline int
start_service(Engine *E, int s, int j, double t, Sampler *S)
{
    double sv;
    E->busy[s] += 1;
    E->jobs[j].sstart = t;
    return draw(E, S, &sv) < 0 || heap_push(E, t + sv, j, s) < 0 ? -1 : 0;
}

/* job j enters station s, not a sink, at t: a cycle closes on a return
   to the reference station, an open job is dropped at a full fcfs station,
   and then it starts service or queues there, or at a delay draws d, then
   a phase u from phase (1.0 without one; set_up passes a closed class's
   init sampler, which desynchronizes cycles), and is held until t + u *
   d, or parked when d is infinite. Out of line, the loop ran 2% slower. */
static inline __attribute__((always_inline)) int
enter(Engine *E, int j, int s, double t, Sampler *phase)
{
    Job *J = &E->jobs[j];
    int ci = J->ci;
    Class *C = &E->cl[ci];
    Cell *cell = &E->cells[AT(E, s, ci)];
    if (E->reference[ci] == s && J->entered >= 0.0)
        complete(C, J->entered, t, E->warm);
    J->arrived = t;
    if (E->kind[s] == KC_FCFS) {
        if (E->busy[s] + E->queue[s].len >= E->capacity[s] && E->reference[ci] < 0) {
            /* closed populations are never dropped */
            C->dropped += 1;
            if (t > E->warm) {
                cell->drops += 1;
                C->larea += inside(J->entered, t, E->warm);
            }
            job_free(E, j);
            return 0;
        }
        if (E->busy[s] < E->servers[s])
            return start_service(E, s, j, t, cell->sampler);
        list_append(E, &E->queue[s], j);
        return 0;
    }
    /* delay entry (validation keeps jobs out of sources) */
    double d, u = 1.0;
    if (draw(E, cell->sampler, &d) < 0 || (phase != NULL && draw(E, phase, &u) < 0))
        return -1;
    if (d < INFINITY)
        return heap_push(E, t + u * d, j, s);
    list_append(E, &cell->parked, j);
    return 0;
}

/* the t = 0 state: each class's first arrival, drawn from its entry,
   the source cell with a sampler; then the closed populations in class
   order, each job entering its reference station. 1 when jobs exist but
   no event is on the calendar and no arrival comes before the horizon;
   -1 on an error. */
static int
set_up(Engine *E)
{
    int soon = 0;
    for (int c = 0; c < E->ncl; c++) {
        Class *C = &E->cl[c];
        C->ta = INFINITY;
        int s = 0;
        while (s < E->nst && !(E->kind[s] == KC_SOURCE && E->cells[AT(E, s, c)].sampler != NULL))
            s++;
        C->entry = AT(E, s, c);
        if (s < E->nst && draw(E, E->cells[C->entry].sampler, &C->ta) < 0)
            return -1;
        soon |= !(C->ta >= E->horizon);
        s = E->reference[c];
        for (int n = 0; n < E->population[c]; n++) {
            int j = job_new(E);
            if (j < 0)
                return -1;
            E->jobs[j].ci = c;
            if (enter(E, j, s, 0.0, E->kind[s] == KC_FCFS ? NULL : &E->samplers[E->init[c]]) < 0)
                return -1;
        }
    }
    return E->njobs && E->hlen == 0 && !soon;
}

/* the class with the earliest next arrival, the lowest index on a tie.
   The running minimum stays in m, so no step waits on reloading the
   time of the class the step before chose. */
static int
earliest_arrival(const Engine *E)
{
    int ca = 0;
    double m = E->cl[0].ta;
    for (int c = 1; c < E->ncl; c++) {
        double x = E->cl[c].ta;
        if (x < m) {
            m = x;
            ca = c;
        }
    }
    return ca;
}

static int
run_loop(Engine *E)
{
    const double horizon = E->horizon, warm = E->warm;
    /* a table without classes has no cl[0] to start from */
    int ca = E->ncl ? earliest_arrival(E) : 0;
    double ta = E->ncl ? E->cl[ca].ta : INFINITY;
    unsigned int tick = 0;

    for (;;) {
        double t;
        int j, ci;
        Py_ssize_t r;

        if (++tick == SIGNAL_EVERY) {
            int rc;
            WITH_GIL(rc = PyErr_CheckSignals());
            tick = 0;
            if (rc < 0)
                return -1;
        }
        t = E->hlen ? E->heap[0].t : INFINITY;
        if (ta <= t) {
            /* external arrival (wins ties against calendar events) */
            if (ta >= horizon)
                break;
            t = ta;
            ci = ca;
            Class *A = &E->cl[ci];
            double gap;
            A->created += 1;
            r = A->entry;
            if (draw(E, E->cells[r].sampler, &gap) < 0)
                return -1;
            A->ta = t + gap;
            ca = earliest_arrival(E);
            ta = E->cl[ca].ta;
            if ((j = job_new(E)) < 0)
                return -1;
            E->jobs[j].ci = ci;
            E->jobs[j].entered = t;
        } else {
            if (t >= horizon)
                break;
            Event ev = heap_pop(E);
            int s = ev.st;
            Job *J = &E->jobs[ev.job];
            j = ev.job;
            ci = J->ci;
            r = AT(E, s, ci);
            /* service completes at an fcfs station, or a delay timer fires */
            int fcfs = E->kind[s] == KC_FCFS;
            if (t > warm) {
                Cell *cell = &E->cells[r];
                double a = J->arrived;
                cell->ssum += t - a;
                cell->scnt += 1;
                cell->area += inside(a, t, warm);
                if (fcfs)
                    cell->barea += inside(J->sstart, t, warm);
            }
            if (fcfs) {
                E->busy[s] -= 1;
                if (E->queue[s].len) {
                    int q = list_popleft(E, &E->queue[s]);
                    if (start_service(E, s, q, t, E->cells[AT(E, s, E->jobs[q].ci)].sampler) < 0)
                        return -1;
                }
                for (int k = E->flush_ptr[r]; k < E->flush_ptr[r + 1]; k++) {
                    Class *W = &E->cl[E->flush_cls[k]];
                    while (W->pending.len) {
                        int p = list_popleft(E, &W->pending);
                        complete(W, E->jobs[p].entered, t, warm);
                        job_free(E, p);
                    }
                }
            }
            if (E->reference[ci] == s)
                /* leaving the reference station opens a cycle */
                J->entered = t;
        }

        /* route the arriving or departing job to its next station: the
           first whose cumulative probability reaches the row's uniform;
           a row of one successor draws none */
        const Route *R = &E->routes[r];
        int ns = R->to;
        if (R->n != 1) {
            double u = 0.0;
            int i = 0;
            if (R->n > 1 && draw(E, &E->samplers[R->sampler], &u) < 0)
                return -1;
            while (i < R->n && E->route_cum[R->first + i] < u)
                i++;
            if (i == R->n) {
                WITH_GIL(PyErr_Format(PyExc_IndexError, "route row %zd has no successor for class %d",
                                      r, ci));
                return -1;
            }
            ns = E->route_to[R->first + i];
        }

        if (E->kind[ns] == KC_SINK) {
            Class *C = &E->cl[ci];
            C->sunk += 1;
            if (!C->watched) {
                complete(C, E->jobs[j].entered, t, warm);
                job_free(E, j);
            } else {
                /* watched job: physically done, logically in the system
                   until the next detection poll completes */
                list_append(E, &C->pending, j);
            }
            continue;
        }

        if (enter(E, j, ns, t, NULL) < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* closing sweep and tally */

static void
close_out(Engine *E, int j, int s, int in_service)
{
    const double horizon = E->horizon, warm = E->warm;
    const Job *J = &E->jobs[j];
    int ci = J->ci;
    Class *C = &E->cl[ci];
    C->live += 1;
    Cell *cell = &E->cells[AT(E, s, ci)];
    cell->area += inside(J->arrived, horizon, warm);
    if (in_service)
        cell->barea += inside(J->sstart, horizon, warm);
    /* a closed job's cycle is open unless it sits at its reference station */
    if (E->reference[ci] < 0 || (s != E->reference[ci] && J->entered >= 0.0))
        C->larea += inside(J->entered, horizon, warm);
}

static void
sweep(Engine *E)
{
    const double horizon = E->horizon, warm = E->warm;
    for (Py_ssize_t i = 0; i < E->hlen; i++) {
        const Event *ev = &E->heap[i];
        close_out(E, ev->job, ev->st, E->kind[ev->st] == KC_FCFS);
    }
    for (int s = 0; s < E->nst; s++) {
        for (int j = E->queue[s].len ? E->queue[s].head : -1; j >= 0; j = E->jobs[j].next)
            close_out(E, j, s, 0);
        for (int c = 0; c < E->ncl; c++) {
            const List *L = &E->cells[AT(E, s, c)].parked;
            for (int j = L->len ? L->head : -1; j >= 0; j = E->jobs[j].next)
                close_out(E, j, s, 0);
        }
    }
    for (int c = 0; c < E->ncl; c++) {
        Class *C = &E->cl[c];
        for (int j = C->pending.len ? C->pending.head : -1; j >= 0; j = E->jobs[j].next)
            C->larea += inside(E->jobs[j].entered, horizon, warm);
    }
}

/* the fields of a kernel._Tally, in its order: each a member of every Cell
   (per cell) or every Class (per class), a double or else a long long */
static const struct {
    size_t offset;
    int per_class, is_double;
} TALLY[] = {
    {offsetof(Cell, area), 0, 1},      {offsetof(Cell, barea), 0, 1},
    {offsetof(Cell, ssum), 0, 1},      {offsetof(Cell, scnt), 0, 0},
    {offsetof(Cell, drops), 0, 0},     {offsetof(Class, created), 1, 0},
    {offsetof(Class, sunk), 1, 0},     {offsetof(Class, dropped), 1, 0},
    {offsetof(Class, live), 1, 0},     {offsetof(Class, rsum), 1, 1},
    {offsetof(Class, rcnt), 1, 0},     {offsetof(Class, larea), 1, 1},
};

/* the tally: a tuple of one list per TALLY field */
static PyObject *
tally(const Engine *E)
{
    const Py_ssize_t nfields = sizeof TALLY / sizeof *TALLY;
    PyObject *out = PyTuple_New(nfields);
    for (Py_ssize_t f = 0; out != NULL && f < nfields; f++) {
        const int per_class = TALLY[f].per_class;
        const Py_ssize_t n = per_class ? E->ncl : (Py_ssize_t)E->nst * E->ncl;
        const size_t size = per_class ? sizeof(Class) : sizeof(Cell);
        const char *at = (per_class ? (const char *)E->cl : (const char *)E->cells) + TALLY[f].offset;
        PyObject *list = PyList_New(n);
        PyTuple_SET_ITEM(out, f, list);
        if (list == NULL)
            Py_CLEAR(out);
        for (Py_ssize_t k = 0; out != NULL && k < n; k++, at += size) {
            PyObject *v = TALLY[f].is_double ? PyFloat_FromDouble(*(const double *)at)
                                             : PyLong_FromLongLong(*(const long long *)at);
            PyList_SET_ITEM(list, k, v);
            if (v == NULL)
                Py_CLEAR(out);
        }
    }
    return out;
}

static PyObject *
loop_run(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Engine E;
    PyObject *result = NULL;

    if (nargs != NTABLES + 4) {
        PyErr_Format(PyExc_TypeError, "run() takes the %d fields of a _Table, got %zd",
                     NTABLES + 4, nargs);
        return NULL;
    }
    memset(&E, 0, sizeof E);
    E.free = -1;
    int rc = read_engine(&E, args);
    if (rc == 0 && (rc = set_up(&E)) == 0) {
        Py_BEGIN_ALLOW_THREADS
        rc = run_loop(&E);
        Py_END_ALLOW_THREADS
    }
    if (rc == 0) {
        sweep(&E);
        result = tally(&E);
    }
    free_engine(&E);
    return rc == 1 ? Py_NewRef(Py_None) : result;
}

/* ------------------------------------------------------------------ */
/* fill and log from Python */

/* TypeError unless a function takes want arguments */
static int
takes(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments, got %zd", name, want, nargs);
    return -1;
}

/* a new block of n values: a float64 memoryview of a bytearray, whose
   values *v points at */
static PyObject *
new_values(Py_ssize_t n, double **v)
{
    if ((size_t)n > PY_SSIZE_T_MAX / sizeof(double)) {
        PyErr_Format(PyExc_ValueError, "no block of %zd values", n);
        return NULL;
    }
    PyObject *bytes = PyByteArray_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(double));
    if (bytes == NULL)
        return NULL;
    *v = (double *)PyByteArray_AS_STRING(bytes);
    PyObject *view = PyMemoryView_FromObject(bytes);
    Py_DECREF(bytes);
    if (view == NULL)
        return NULL;
    PyObject *vals = PyObject_CallMethod(view, "cast", "s", "d");
    Py_DECREF(view);
    return vals;
}

/* fill(spec, first, n): values first .. first + n - 1 of the sampler spec */
static PyObject *
loop_fill(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Specs S = {NULL, 0, 0};
    PyObject *out = NULL;
    double *v;
    int s;
    if (takes("fill", nargs, 3) < 0)
        return NULL;
    Py_ssize_t first = PyLong_AsSsize_t(args[1]), n = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return NULL;
    if (first < 0 || n < 0)
        PyErr_Format(PyExc_ValueError, "fill(): no values %zd + [0, %zd)", first, n);
    else if ((s = read_spec(&S, args[0], -1, 0)) >= 0 && (out = new_values(n, &v)) != NULL
             && fill_spec(S.v, s, (uint64_t)first, n, v) < 0)
        Py_CLEAR(out);
    PyMem_RawFree(S.v);
    return out;
}

/* log(values): log x of each value x, which must lie in (0, 1] */
static PyObject *
loop_log(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b;
    double *v;
    if (takes("log", nargs, 1) < 0
        || PyObject_GetBuffer(args[0], &b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (b.ndim != 1 || b.itemsize != sizeof(double) || b.format == NULL
        || strcmp(b.format, "d") != 0) {
        PyBuffer_Release(&b);
        PyErr_Format(PyExc_TypeError, "log(): %R is not a 1-d float64 array", args[0]);
        return NULL;
    }
    const double *x = b.buf;
    PyObject *out = new_values(b.shape[0], &v);
    for (Py_ssize_t i = 0; out != NULL && i < b.shape[0]; i++) {
        v[i] = x[i];
        if (!(x[i] > 0.0 && x[i] <= 1.0)) {
            PyObject *bad = PyFloat_FromDouble(x[i]);
            if (bad != NULL) {
                PyErr_Format(PyExc_ValueError, "log(): %R at %zd is outside (0, 1]", bad, i);
                Py_DECREF(bad);
            }
            Py_CLEAR(out);
            break;
        }
    }
    if (out != NULL)
        log_lanes(v, b.shape[0]);
    PyBuffer_Release(&b);
    return out;
}

#define METHOD(name, doc) {#name, (PyCFunction)(void (*)(void))loop_##name, METH_FASTCALL, doc}

static PyMethodDef loop_methods[] = {
    METHOD(run, "run(*table) -> the fields of a kernel._Tally, or None when no job can ever "
              "move. Runs the engine of a _Table to its horizon and returns the tally."),
    METHOD(fill, "fill(spec, first, n) -> block. Values first .. first + n - 1 of the sampler "
               "spec, a tuple tree of const, uniform, erlang, shift and mixture nodes "
               "(kernel._spec), from Philox4x64-10 words."),
    METHOD(log, "log(values) -> block. log x of each x in (0, 1], within 1 ulp, the same bits "
              "on every IEEE machine."),
    {NULL, NULL, 0, NULL},
};

/* multi-phase init: each load of a build, from any path, is a module of its own */
static PyModuleDef_Slot loop_slots[] = {{0, NULL}};

static struct PyModuleDef loop_module = {
    PyModuleDef_HEAD_INIT, .m_name = "_loop",
    .m_doc = "Compiled event loop of qnaps.kernel and the fill of its samplers.", .m_size = 0,
    .m_methods = loop_methods, .m_slots = loop_slots,
};

PyMODINIT_FUNC
PyInit__loop(void)
{
    return PyModuleDef_Init(&loop_module);
}
