/* Compiled event loop of qnaps.kernel._Engine.

   run(*table) runs one replication on the _Table that _Engine._build
   makes, passed field by field. It copies the table's arrays and checks
   each once, on entry, for its format, its length and the range of every
   index in it, raising TypeError or ValueError naming the table; past
   that the loop indexes unchecked. A source placement is its class's
   first arrival time and source cell, whose sampler holds its arrival
   times and whose route row is its entry; the other placements are the
   closed populations. It runs to the horizon, closes out the jobs still
   alive and returns the tally _Engine._finalize reads.

   It is _Engine._tally_python statement for statement: every float
   operation keeps that loop's order and grouping, the calendar is a
   binary heap with heapq's sift algorithm keyed on (t, seq), so its
   array layout, which the closing sweep walks, is the same, and every
   random value comes from the engine's _Blocks as the loop goes. Their
   vals, i and fill are the only attributes it reads or writes: it reads
   vals in place, calls fill() when they run out and writes vals and i
   back when it returns, so next() in Python continues where it stopped.
   The kernel module docstring has the build flags this relies on. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

enum { KC_FCFS = 0, KC_DELAY = 1, KC_SOURCE = 2, KC_SINK = 3 };

/* signals are checked once per this many events */
#define SIGNAL_EVERY 4096

/* the arrays of a _Table, in its order between warmup and blocks */
enum {
    KIND, SERVERS, CAPACITY, SAMPLER, ROUTE_PTR, ROUTE_TO, ROUTE_CUM, ROUTE_BLOCK,
    FLUSH_PTR, FLUSH_CLS, REFERENCE, PLACE_STATION, PLACE_CLASS, PLACE_TIME, NTABLES
};

static const char *const TABLE_NAMES[NTABLES] = {
    "kind", "servers", "capacity", "sampler", "route_ptr", "route_to", "route_cum", "route_block",
    "flush_ptr", "flush_cls", "reference", "place_station", "place_class", "place_time",
};

/* each array's buffer format: i int32, d float64 */
static const char TABLE_FORMATS[NTABLES + 1] = "iddiiidiiiiiid";

typedef struct {
    double t;
    long long seq;
    int job;
    int st;
} Event;

typedef struct {
    double entered;  /* arrival in the system, or cycle start; -1.0 unset */
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

typedef struct {
    double area, barea, ssum;
    long long scnt, drops;
    List parked;
} Cell;

typedef struct {
    double ta;           /* next arrival time, +inf without arrivals */
    Py_ssize_t entry;    /* its source cell, whose sampler holds its arrival times */
    int watched;         /* a detection poll flushes it: it is in flush_cls */
    List pending;
    long long created, sunk, dropped, live, rcnt;
    double rsum, larea;
} Class;

/* a route row of the table: its successor count, the first successor,
   the block of its uniforms and its offset into route_to and route_cum */
typedef struct {
    int n, to, block, first;
} Route;

/* a _Block: its current values, read in place, and the next index */
typedef struct {
    PyObject *obj;
    PyObject *fill;
    PyObject *vals;   /* the current block, held through buf */
    Py_buffer buf;
    const double *v;
    Py_ssize_t n, i;
} Block;

typedef struct {
    double horizon, warm;
    long long seq;
    Py_ssize_t nst, ncl, nblocks;
    Py_ssize_t len[NTABLES];
    union {
        void *tab[NTABLES];  /* copies of the table's arrays, in its order */
        struct {
            const int *kind;
            const double *servers, *capacity;
            const int *sampler, *route_ptr, *route_to;
            const double *route_cum;
            const int *route_block, *flush_ptr, *flush_cls, *reference, *place_station,
                *place_class;
            const double *place_time;
        };
    };
    long long *busy;     /* per station */
    List *queue;         /* per station */
    Cell *cells;         /* [station * ncl + class] */
    Route *routes;       /* per cell: its route row */
    Class *cl;
    Block *blocks;
    Job *jobs;
    int njobs, capjobs, free;
    Event *heap;
    Py_ssize_t hlen, hcap;
} Engine;

_Static_assert(__builtin_offsetof(Engine, place_time) == __builtin_offsetof(Engine, tab)
               + (NTABLES - 1) * sizeof(void *), "the named tables of Engine line up with tab");

#define AT(E, s, c) ((Py_ssize_t)(s) * (E)->ncl + (c))

/* ------------------------------------------------------------------ */
/* jobs and lists */

static int
job_new(Engine *E)
{
    int j = E->free;
    if (j >= 0) {
        E->free = E->jobs[j].next;
    } else {
        if (E->njobs == E->capjobs) {
            int cap = E->capjobs ? 2 * E->capjobs : 64;
            Job *grown = PyMem_Realloc(E->jobs, (size_t)cap * sizeof(Job));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            E->jobs = grown;
            E->capjobs = cap;
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
/* calendar: heapq's _siftdown/_siftup on (t, seq) */

static inline int
ev_lt(const Event *a, const Event *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static inline void
sift_down(Event *h, Py_ssize_t startpos, Py_ssize_t pos)
{
    Event newitem = h[pos];
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

static inline void
sift_up(Event *h, Py_ssize_t endpos, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos;
    Event newitem = h[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !ev_lt(&h[childpos], &h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    sift_down(h, startpos, pos);
}

static int
heap_push(Engine *E, double t, int job, int st)
{
    if (E->hlen == E->hcap) {
        Py_ssize_t cap = E->hcap ? 2 * E->hcap : 64;
        Event *grown = PyMem_Realloc(E->heap, (size_t)cap * sizeof(Event));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        E->heap = grown;
        E->hcap = cap;
    }
    Event *ev = &E->heap[E->hlen];
    ev->t = t;
    ev->seq = E->seq++;
    ev->job = job;
    ev->st = st;
    sift_down(E->heap, 0, E->hlen++);
    return 0;
}

static inline Event
heap_pop(Engine *E)
{
    Event last = E->heap[--E->hlen];
    if (E->hlen) {
        Event top = E->heap[0];
        E->heap[0] = last;
        sift_up(E->heap, E->hlen, 0);
        return top;
    }
    return last;
}

/* ------------------------------------------------------------------ */
/* reading the table */

/* B's values become the float64 block vals */
static int
set_vals(Block *B, PyObject *vals)
{
    Py_buffer buf;
    if (PyObject_GetBuffer(vals, &buf, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (buf.ndim != 1 || buf.itemsize != sizeof(double) || buf.format == NULL
        || strcmp(buf.format, "d") != 0) {
        PyBuffer_Release(&buf);
        PyErr_Format(PyExc_TypeError, "sampler block %R is not a 1-d float64 array", vals);
        return -1;
    }
    if (B->vals != NULL)
        PyBuffer_Release(&B->buf);
    Py_XSETREF(B->vals, Py_NewRef(vals));
    B->buf = buf;
    B->v = buf.buf;
    B->n = buf.shape[0];
    B->i = 0;
    return 0;
}

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
    if ((E->tab[k] = PyMem_Malloc((size_t)view.len + 1)) != NULL)
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

/* every _Block of the list blocks, with its current values and index */
static int
read_blocks(Engine *E, PyObject *blocks)
{
    if (!PyList_Check(blocks)) {
        PyErr_SetString(PyExc_TypeError, "table 'blocks' is not a list");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(blocks);
    if ((E->blocks = PyMem_Calloc((size_t)n + 1, sizeof(Block))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* getting an attribute can run code that shrinks the list */
    for (Py_ssize_t b = 0; b < n && b < PyList_GET_SIZE(blocks); b++) {
        PyObject *obj = PyList_GET_ITEM(blocks, b), *vals, *i;
        Block *B = &E->blocks[b];
        B->obj = Py_NewRef(obj);
        E->nblocks++;
        if ((B->fill = PyObject_GetAttrString(obj, "fill")) == NULL
            || (vals = PyObject_GetAttrString(obj, "vals")) == NULL) {
            if (PyErr_ExceptionMatches(PyExc_AttributeError)) {
                PyErr_Clear();
                PyErr_Format(PyExc_TypeError, "sampler %R is not a block sampler", obj);
            }
            return -1;
        }
        Py_ssize_t at = (i = PyObject_GetAttrString(obj, "i")) == NULL ? -1 : PyLong_AsSsize_t(i);
        Py_XDECREF(i);
        int bad = (at == -1 && PyErr_Occurred()) || set_vals(B, vals) < 0;
        Py_DECREF(vals);
        if (bad)
            return -1;
        if (at < 0 || at > B->n) {
            PyErr_Format(PyExc_ValueError, "sampler index %zd outside its block of %zd", at, B->n);
            return -1;
        }
        B->i = at;
    }
    return 0;
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

/* the table's lengths agree with its station, class and placement counts
   and every index in it is in range */
static int
check_tables(Engine *E)
{
    Py_ssize_t nst = E->nst = E->len[KIND], ncl = E->ncl = E->len[REFERENCE], cells = nst * ncl;
    Py_ssize_t want[NTABLES] = {
        [KIND] = nst, [SERVERS] = nst, [CAPACITY] = nst, [SAMPLER] = cells,
        [ROUTE_PTR] = cells + 1, [ROUTE_TO] = E->len[ROUTE_TO], [ROUTE_CUM] = E->len[ROUTE_TO],
        [ROUTE_BLOCK] = cells, [FLUSH_PTR] = cells + 1, [FLUSH_CLS] = E->len[FLUSH_CLS],
        [REFERENCE] = ncl, [PLACE_STATION] = E->len[PLACE_STATION],
        [PLACE_CLASS] = E->len[PLACE_STATION], [PLACE_TIME] = E->len[PLACE_STATION],
    };
    for (int k = 0; k < NTABLES; k++)
        if (E->len[k] != want[k]) {
            PyErr_Format(PyExc_ValueError, "table '%s' has %zd entries, expected %zd",
                         TABLE_NAMES[k], E->len[k], want[k]);
            return -1;
        }
    return in_range(E, KIND, KC_FCFS, KC_SINK + 1) < 0
        || in_range(E, SAMPLER, -1, E->nblocks) < 0 || offsets(E, ROUTE_PTR, ROUTE_TO) < 0
        || in_range(E, ROUTE_TO, 0, nst) < 0 || in_range(E, ROUTE_BLOCK, -1, E->nblocks) < 0
        || offsets(E, FLUSH_PTR, FLUSH_CLS) < 0 || in_range(E, FLUSH_CLS, 0, ncl) < 0
        || in_range(E, REFERENCE, -1, nst) < 0 || in_range(E, PLACE_STATION, 0, nst) < 0
        || in_range(E, PLACE_CLASS, 0, ncl) < 0 ? -1 : 0;
}

/* the engine of a table passed as run()'s arguments, checked, with its
   route rows, watched classes, first arrivals and closed populations in place */
static int
read_engine(Engine *E, PyObject *const *args)
{
    E->horizon = PyFloat_AsDouble(args[0]);
    E->warm = PyFloat_AsDouble(args[1]);
    if (PyErr_Occurred())
        return -1;
    for (int k = 0; k < NTABLES; k++)
        if (read_table(E, k, args[2 + k]) < 0)
            return -1;
    if (read_blocks(E, args[2 + NTABLES]) < 0 || check_tables(E) < 0)
        return -1;
    Py_ssize_t cells = (Py_ssize_t)E->nst * E->ncl;
    E->busy = PyMem_Calloc((size_t)E->nst + 1, sizeof(long long));
    E->queue = PyMem_Calloc((size_t)E->nst + 1, sizeof(List));
    E->cells = PyMem_Calloc((size_t)cells + 1, sizeof(Cell));
    E->cl = PyMem_Calloc((size_t)E->ncl + 1, sizeof(Class));
    E->routes = PyMem_Calloc((size_t)cells + 1, sizeof(Route));
    if (!E->busy || !E->queue || !E->cells || !E->cl || !E->routes) {
        PyErr_NoMemory();
        return -1;
    }
    /* a route row takes its class to a sink or to a station that serves
       it, never into a source, and has a block of uniforms when it has
       more than one successor */
    for (Py_ssize_t r = 0; r < cells; r++) {
        int first = E->route_ptr[r], n = E->route_ptr[r + 1] - first;
        Py_ssize_t c = r % E->ncl;
        if (n > 1 && E->route_block[r] < 0) {
            PyErr_Format(PyExc_ValueError, "table 'route_block' has no block for route row %zd", r);
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
        E->routes[r] = (Route){n, n ? E->route_to[first] : -1, E->route_block[r], first};
    }
    for (int c = 0; c < E->ncl; c++)
        E->cl[c].ta = INFINITY;
    for (Py_ssize_t k = 0; k < E->len[FLUSH_CLS]; k++)
        E->cl[E->flush_cls[k]].watched = 1;
    /* each open class's first arrival at its source, then the closed
       populations: on the calendar, or queued or parked */
    for (Py_ssize_t p = 0; p < E->len[PLACE_STATION]; p++) {
        int s = E->place_station[p], c = E->place_class[p], j;
        double t = E->place_time[p];
        if (E->sampler[AT(E, s, c)] < 0) {
            PyErr_Format(PyExc_ValueError,
                         "table 'place_station' places class %d at station %d, which does not serve it",
                         c, s);
            return -1;
        }
        if (E->kind[s] == KC_SOURCE) {
            E->cl[c].ta = t;
            E->cl[c].entry = AT(E, s, c);
            continue;
        }
        if ((j = job_new(E)) < 0)
            return -1;
        E->jobs[j].ci = c;
        if (t < INFINITY) {
            E->busy[s] += E->kind[s] == KC_FCFS;
            if (heap_push(E, t, j, s) < 0)
                return -1;
        } else {
            list_append(E, E->kind[s] == KC_FCFS ? &E->queue[s] : &E->cells[AT(E, s, c)].parked, j);
        }
    }
    return 0;
}

static void
free_engine(Engine *E)
{
    for (int b = 0; b < E->nblocks; b++) {
        Block *B = &E->blocks[b];
        if (B->vals != NULL)
            PyBuffer_Release(&B->buf);
        Py_XDECREF(B->vals);
        Py_XDECREF(B->fill);
        Py_DECREF(B->obj);
    }
    for (int k = 0; k < NTABLES; k++)
        PyMem_Free(E->tab[k]);
    PyMem_Free(E->busy);
    PyMem_Free(E->queue);
    PyMem_Free(E->cells);
    PyMem_Free(E->cl);
    PyMem_Free(E->routes);
    PyMem_Free(E->blocks);
    PyMem_Free(E->jobs);
    PyMem_Free(E->heap);
}

/* ------------------------------------------------------------------ */
/* the event loop */

/* B's next block from its fill(); an empty one raises StopIteration, as
   next() does in the Python loop */
static int
refill(Block *B)
{
    PyObject *vals = PyObject_CallNoArgs(B->fill);
    if (vals == NULL)
        return -1;
    int rc = set_vals(B, vals);
    Py_DECREF(vals);
    if (rc == 0 && B->n == 0) {
        PyErr_SetNone(PyExc_StopIteration);
        return -1;
    }
    return rc;
}

/* the next value of block sampler b */
static inline int
draw(Engine *E, int b, double *out)
{
    Block *B = &E->blocks[b];
    if (B->i == B->n && refill(B) < 0)
        return -1;
    *out = B->v[B->i++];
    return 0;
}

/* the class with the earliest next arrival, the lowest index on a tie */
static int
earliest_arrival(const Engine *E)
{
    int ca = 0;
    for (int c = 1; c < E->ncl; c++)
        if (E->cl[c].ta < E->cl[ca].ta)
            ca = c;
    return ca;
}

static int
run_loop(Engine *E)
{
    const double horizon = E->horizon, warm = E->warm;
    int ca = earliest_arrival(E);
    double ta = E->ncl ? E->cl[ca].ta : INFINITY;
    unsigned int tick = 0;

    for (;;) {
        double t;
        int j, ci;
        Py_ssize_t r;

        if (++tick == SIGNAL_EVERY) {
            tick = 0;
            if (PyErr_CheckSignals() < 0)
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
            A->created += 1;
            r = A->entry;
            if (draw(E, E->sampler[r], &A->ta) < 0)
                return -1;
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
            if (E->kind[s] == KC_FCFS) {
                /* service completes at an fcfs station */
                if (t > warm) {
                    Cell *cell = &E->cells[r];
                    double a = J->arrived;
                    double d = t - a;
                    cell->ssum += d;
                    cell->scnt += 1;
                    cell->area += a > warm ? d : t - warm;
                    double ss = J->sstart;
                    cell->barea += ss > warm ? t - ss : t - warm;
                }
                E->busy[s] -= 1;
                if (E->queue[s].len) {
                    int nj = list_popleft(E, &E->queue[s]);
                    double sv;
                    E->busy[s] += 1;
                    E->jobs[nj].sstart = t;
                    if (draw(E, E->sampler[AT(E, s, E->jobs[nj].ci)], &sv) < 0
                        || heap_push(E, t + sv, nj, s) < 0)
                        return -1;
                }
                for (int k = E->flush_ptr[r]; k < E->flush_ptr[r + 1]; k++) {
                    Class *W = &E->cl[E->flush_cls[k]];
                    if (W->pending.len) {
                        if (t > warm) {
                            for (int p = W->pending.head; p >= 0; p = E->jobs[p].next) {
                                double e = E->jobs[p].entered;
                                W->rsum += t - e;
                                W->larea += e > warm ? t - e : t - warm;
                            }
                            W->rcnt += W->pending.len;
                        }
                        while (W->pending.len)
                            job_free(E, list_popleft(E, &W->pending));
                    }
                }
                if (E->reference[ci] == s)
                    /* leaving the reference station opens a cycle */
                    E->jobs[j].entered = t;
            } else {
                /* delay timer fires */
                if (t > warm) {
                    Cell *cell = &E->cells[r];
                    double a = J->arrived;
                    double d = t - a;
                    cell->ssum += d;
                    cell->scnt += 1;
                    cell->area += a > warm ? d : t - warm;
                }
                if (E->reference[ci] == s)
                    J->entered = t;
            }
        }

        /* route the arriving or departing job to its next station: the
           first whose cumulative probability reaches the row's uniform;
           a row of one successor draws none */
        const Route *R = &E->routes[r];
        int ns = R->to;
        if (R->n != 1) {
            double u = 0.0;
            int i = 0;
            if (R->n > 1 && draw(E, R->block, &u) < 0)
                return -1;
            while (i < R->n && E->route_cum[R->first + i] < u)
                i++;
            if (i == R->n) {
                PyErr_Format(PyExc_IndexError, "route row %zd has no successor for class %d", r, ci);
                return -1;
            }
            ns = E->route_to[R->first + i];
        }

        Job *J = &E->jobs[j];
        if (E->kind[ns] == KC_SINK) {
            Class *C = &E->cl[ci];
            C->sunk += 1;
            if (!C->watched) {
                if (t > warm) {
                    double e = J->entered;
                    C->rsum += t - e;
                    C->rcnt += 1;
                    C->larea += e > warm ? t - e : t - warm;
                }
                job_free(E, j);
            } else {
                /* watched job: physically done, logically in the system
                   until the next detection poll completes */
                list_append(E, &C->pending, j);
            }
            continue;
        }

        if (E->reference[ci] == ns && J->entered >= 0.0) {
            /* a cycle closes on return to the reference station */
            Class *C = &E->cl[ci];
            if (t > warm) {
                double e = J->entered;
                C->rsum += t - e;
                C->rcnt += 1;
                C->larea += e > warm ? t - e : t - warm;
            }
        }

        Py_ssize_t k = AT(E, ns, ci);
        Cell *cell = &E->cells[k];
        if (E->kind[ns] == KC_FCFS) {
            if (E->busy[ns] + E->queue[ns].len >= E->capacity[ns] && E->reference[ci] < 0) {
                /* closed populations are never dropped */
                Class *C = &E->cl[ci];
                C->dropped += 1;
                if (t > warm) {
                    cell->drops += 1;
                    double e = J->entered;
                    C->larea += e > warm ? t - e : t - warm;
                }
                job_free(E, j);
                continue;
            }
            J->arrived = t;
            if (E->busy[ns] < E->servers[ns]) {
                double sv;
                E->busy[ns] += 1;
                J->sstart = t;
                if (draw(E, E->sampler[k], &sv) < 0 || heap_push(E, t + sv, j, ns) < 0)
                    return -1;
            } else {
                list_append(E, &E->queue[ns], j);
            }
        } else {
            /* delay entry (validation keeps jobs out of sources) */
            double d;
            J->arrived = t;
            if (draw(E, E->sampler[k], &d) < 0)
                return -1;
            if (d < INFINITY) {
                if (heap_push(E, t + d, j, ns) < 0)
                    return -1;
            } else {
                list_append(E, &cell->parked, j);
            }
        }
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
    double a = J->arrived;
    cell->area += horizon - (a > warm ? a : warm);
    if (in_service) {
        double ss = J->sstart;
        cell->barea += horizon - (ss > warm ? ss : warm);
    }
    if (E->reference[ci] >= 0) {
        if (s != E->reference[ci] && J->entered >= 0.0) {
            double e = J->entered;
            C->larea += horizon - (e > warm ? e : warm);
        }
    } else {
        double e = J->entered;
        C->larea += horizon - (e > warm ? e : warm);
    }
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
        for (int j = C->pending.len ? C->pending.head : -1; j >= 0; j = E->jobs[j].next) {
            double e = E->jobs[j].entered;
            C->larea += horizon - (e > warm ? e : warm);
        }
    }
}

/* (cells, classes): per cell (area, barea, ssum, scnt, drops), per class
   (created, sunk, dropped, live, rsum, rcnt, larea) */
static PyObject *
tally(const Engine *E)
{
    Py_ssize_t cells = E->nst * E->ncl;
    PyObject *out = Py_BuildValue("(NN)", PyList_New(cells), PyList_New(E->ncl));
    for (Py_ssize_t k = 0; out != NULL && k < cells; k++) {
        const Cell *C = &E->cells[k];
        PyObject *row = Py_BuildValue("(dddLL)", C->area, C->barea, C->ssum, C->scnt, C->drops);
        if (row == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(PyTuple_GET_ITEM(out, 0), k, row);
    }
    for (int c = 0; out != NULL && c < E->ncl; c++) {
        const Class *C = &E->cl[c];
        PyObject *row = Py_BuildValue("(LLLLdLd)", C->created, C->sunk, C->dropped, C->live,
                                      C->rsum, C->rcnt, C->larea);
        if (row == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(PyTuple_GET_ITEM(out, 1), c, row);
    }
    return out;
}

/* every block's values and index written back to its _Block, keeping an
   error already set; -1 if an error is set on return */
static int
write_blocks(Engine *E)
{
    PyObject *type, *value, *tb;
    int rc = 0;
    PyErr_Fetch(&type, &value, &tb);
    for (int b = 0; b < E->nblocks && rc == 0; b++) {
        Block *B = &E->blocks[b];
        if (B->vals == NULL)
            continue;
        PyObject *i = PyLong_FromSsize_t(B->i);
        if (i == NULL || PyObject_SetAttrString(B->obj, "vals", B->vals) < 0
            || PyObject_SetAttrString(B->obj, "i", i) < 0)
            rc = -1;
        Py_XDECREF(i);
    }
    if (type == NULL)
        return rc;
    PyErr_Clear();
    PyErr_Restore(type, value, tb);
    return -1;
}

static PyObject *
loop_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Engine E;
    PyObject *result = NULL;

    if (nargs != NTABLES + 3) {
        PyErr_Format(PyExc_TypeError, "run() takes the %d fields of a _Table, got %zd",
                     NTABLES + 3, nargs);
        return NULL;
    }
    memset(&E, 0, sizeof E);
    E.free = -1;
    int failed = read_engine(&E, args) < 0 || run_loop(&E) < 0;
    if (write_blocks(&E) == 0 && !failed) {
        sweep(&E);
        result = tally(&E);
    }
    free_engine(&E);
    return result;
}

static PyMethodDef loop_methods[] = {
    {"run", (PyCFunction)(void (*)(void))loop_run, METH_FASTCALL,
     "run(*table) -> (cells, classes). Runs the engine of a _Table to its horizon, "
     "closes out the jobs still alive and returns the tally."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef loop_module = {
    PyModuleDef_HEAD_INIT, "_loop", "Compiled event loop of qnaps.kernel._Engine.", -1,
    loop_methods,
};

PyMODINIT_FUNC
PyInit__loop(void)
{
    return PyModule_Create(&loop_module);
}
