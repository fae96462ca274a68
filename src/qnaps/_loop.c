/* Compiled event loop of qnaps.kernel._Engine.

   run(engine) continues an engine that _Engine._build has set up: it
   copies the calendar, the queues, the parked and pending lists and the
   accumulators into C structs, runs the event loop to the horizon,
   closes out the jobs still alive, writes the cell and class
   accumulators back to the Python objects and returns the live-job
   count per class. It is the same algorithm as _Engine._run_python,
   statement for statement: every float operation keeps that loop's
   order and grouping, the calendar is a binary heap with heapq's sift
   algorithm keyed on (t, seq), so its array layout (which the closing
   sweep walks) is the same, and every random value, arrival times too,
   comes from the engine's own block samplers, drawn as the loop goes:
   the loop reads a sampler's float64 block in place, calls its fill()
   only when the block runs out, and writes the block and its index back
   when it returns, so next() in Python continues where the loop stopped.
   The kernel module docstring has the build flags this relies on. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

enum { KC_FCFS = 0, KC_DELAY = 1, KC_SOURCE = 2, KC_SINK = 3 };

/* signals are checked once per this many events */
#define SIGNAL_EVERY 4096

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
    PyObject *obj;   /* the _Cell, NULL where the class is not served */
    double area, barea, ssum;
    long long scnt, drops;
    List parked;
} Cell;

typedef struct {
    int n;           /* 0 no successor, 1 one successor, > 1 probabilistic */
    int to;          /* the successor when n == 1 */
    double *cums;    /* cumulative probabilities when n > 1 */
    int *tos;
    int draw;        /* block of the routing uniforms when n > 1 */
} Route;

typedef struct {
    PyObject *obj;
    int kc, ref_ci;
    double servers, cap;  /* cap is +inf when unbounded */
    long long busy;
    List queue;
    int *flush;      /* NULL, or nclasses + 1 offsets into Engine.flush_cls */
} Station;

typedef struct {
    PyObject *obj;
    int closed, watched, ref;
    Route entry;
    int arrivals;        /* block of arrival times, -1 without arrivals */
    double ta;           /* next arrival time, +inf without arrivals */
    List pending;
    long long created, sunk, dropped, rcnt;
    double rsum, larea;
} Class;

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
    int nst, ncl;
    Station *st;
    Class *cl;
    Cell *cells;         /* [station * ncl + class] */
    int *samplers;       /* [station * ncl + class] block, -1 where absent */
    Route *routes;       /* [station * ncl + class] */
    Block *blocks;       /* every sampler once, by identity */
    int nblocks, capblocks;
    int *flush_cls;
    Py_ssize_t nflush;
    Job *jobs;
    int njobs, capjobs, free;
    Event *heap;
    Py_ssize_t hlen, hcap;
} Engine;

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
/* reading the engine */

static int
attr_double(PyObject *obj, const char *name, double *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
attr_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
attr_int(PyObject *obj, const char *name, int *out)
{
    long long v;
    if (attr_ll(obj, name, &v) < 0)
        return -1;
    if (v < INT_MIN || v > INT_MAX) {
        PyErr_Format(PyExc_OverflowError, "%s out of range", name);
        return -1;
    }
    *out = (int)v;
    return 0;
}

/* index of a station object in engine.stations; -1 for None */
static int
station_index(Engine *E, PyObject *obj, int *out)
{
    if (obj == Py_None) {
        *out = -1;
        return 0;
    }
    for (int s = 0; s < E->nst; s++)
        if (E->st[s].obj == obj) {
            *out = s;
            return 0;
        }
    PyErr_SetString(PyExc_ValueError, "object is not one of the engine's stations");
    return -1;
}

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

/* *out = the index of the block sampler obj in E->blocks, added on first sight */
static int
read_block(Engine *E, PyObject *obj, int *out)
{
    for (int b = 0; b < E->nblocks; b++)
        if (E->blocks[b].obj == obj) {
            *out = b;
            return 0;
        }
    if (E->nblocks == E->capblocks) {
        int cap = E->capblocks ? 2 * E->capblocks : 16;
        Block *grown = PyMem_Realloc(E->blocks, (size_t)cap * sizeof(Block));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        E->blocks = grown;
        E->capblocks = cap;
    }
    Block *B = &E->blocks[E->nblocks];
    memset(B, 0, sizeof *B);
    B->obj = Py_NewRef(obj);
    E->nblocks++;
    PyObject *vals = NULL;
    long long i;
    if ((B->fill = PyObject_GetAttrString(obj, "fill")) == NULL
        || (vals = PyObject_GetAttrString(obj, "vals")) == NULL) {
        Py_XDECREF(vals);
        if (PyErr_ExceptionMatches(PyExc_AttributeError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "sampler %R is not a block sampler", obj);
        }
        return -1;
    }
    int bad = set_vals(B, vals);
    Py_DECREF(vals);
    if (bad || attr_ll(obj, "i", &i) < 0)
        return -1;
    if (i < 0 || i > B->n) {
        PyErr_Format(PyExc_ValueError, "sampler index %lld outside its block of %zd", i, B->n);
        return -1;
    }
    B->i = (Py_ssize_t)i;
    *out = E->nblocks - 1;
    return 0;
}

/* a _Job object copied into a new job slot */
static int
read_job(Engine *E, PyObject *obj)
{
    int j = job_new(E);
    if (j < 0)
        return -1;
    Job J = E->jobs[j];
    if (attr_int(obj, "ci", &J.ci) < 0 || attr_double(obj, "entered", &J.entered) < 0
        || attr_double(obj, "arrived", &J.arrived) < 0 || attr_double(obj, "sstart", &J.sstart) < 0)
        return -1;
    if (J.ci < 0 || J.ci >= E->ncl) {
        PyErr_SetString(PyExc_ValueError, "job class index out of range");
        return -1;
    }
    E->jobs[j] = J;
    return j;
}

/* every job of an iterable of _Job objects appended to a list */
static int
read_jobs(Engine *E, PyObject *iterable, List *L)
{
    PyObject *it = PyObject_GetIter(iterable);
    if (it == NULL)
        return -1;
    PyObject *obj;
    while ((obj = PyIter_Next(it)) != NULL) {
        int j = read_job(E, obj);
        Py_DECREF(obj);
        if (j < 0) {
            Py_DECREF(it);
            return -1;
        }
        list_append(E, L, j);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

/* None, a station, or (cums, stations, draw) */
static int
read_route(Engine *E, PyObject *obj, Route *R)
{
    if (obj == Py_None)
        return 0;
    if (!PyTuple_Check(obj)) {
        R->n = 1;
        return station_index(E, obj, &R->to);
    }
    PyObject *cums, *tos, *draw;
    if (!PyArg_ParseTuple(obj, "O!O!O", &PyTuple_Type, &cums, &PyTuple_Type, &tos, &draw)
        || read_block(E, draw, &R->draw) < 0)
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(cums);
    if (n < 2 || PyTuple_GET_SIZE(tos) != n) {
        PyErr_SetString(PyExc_ValueError, "malformed routing row");
        return -1;
    }
    R->cums = PyMem_Calloc((size_t)n, sizeof(double));
    R->tos = PyMem_Calloc((size_t)n, sizeof(int));
    if (R->cums == NULL || R->tos == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    R->n = (int)n;
    for (Py_ssize_t i = 0; i < n; i++) {
        R->cums[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(cums, i));
        if (R->cums[i] == -1.0 && PyErr_Occurred())
            return -1;
        if (station_index(E, PyTuple_GET_ITEM(tos, i), &R->tos[i]) < 0)
            return -1;
    }
    return 0;
}

static int
read_station(Engine *E, int s)
{
    Station *S = &E->st[s];
    PyObject *obj = S->obj, *cells = NULL, *samplers = NULL, *routes = NULL, *flush = NULL,
             *queue = NULL, *cap = NULL;
    int rc = -1;

    if (attr_int(obj, "kc", &S->kc) < 0 || attr_double(obj, "servers", &S->servers) < 0
        || attr_ll(obj, "busy", &S->busy) < 0 || attr_int(obj, "ref_ci", &S->ref_ci) < 0)
        goto done;
    if ((cap = PyObject_GetAttrString(obj, "cap")) == NULL)
        goto done;
    S->cap = cap == Py_None ? INFINITY : PyFloat_AsDouble(cap);
    if (S->cap == -1.0 && PyErr_Occurred())
        goto done;
    if ((cells = PyObject_GetAttrString(obj, "cells")) == NULL
        || (samplers = PyObject_GetAttrString(obj, "samplers")) == NULL
        || (routes = PyObject_GetAttrString(obj, "routes")) == NULL
        || (flush = PyObject_GetAttrString(obj, "flush_for")) == NULL
        || (queue = PyObject_GetAttrString(obj, "queue")) == NULL)
        goto done;
    if (!PyList_Check(cells) || !PyList_Check(samplers) || !PyList_Check(routes)
        || PyList_GET_SIZE(cells) != E->ncl || PyList_GET_SIZE(samplers) != E->ncl
        || PyList_GET_SIZE(routes) != E->ncl
        || (flush != Py_None && (!PyList_Check(flush) || PyList_GET_SIZE(flush) != E->ncl))) {
        PyErr_SetString(PyExc_ValueError, "station tables must be lists with one entry per class");
        goto done;
    }
    for (int c = 0; c < E->ncl; c++) {
        Py_ssize_t k = AT(E, s, c);
        PyObject *cell = PyList_GET_ITEM(cells, c), *f = PyList_GET_ITEM(samplers, c);
        if (cell != Py_None) {
            Cell *C = &E->cells[k];
            PyObject *parked;
            Py_INCREF(cell);
            C->obj = cell;
            if (attr_double(cell, "area", &C->area) < 0 || attr_double(cell, "barea", &C->barea) < 0
                || attr_double(cell, "ssum", &C->ssum) < 0 || attr_ll(cell, "scnt", &C->scnt) < 0
                || attr_ll(cell, "drops", &C->drops) < 0)
                goto done;
            if ((parked = PyObject_GetAttrString(cell, "parked")) == NULL)
                goto done;
            int bad = read_jobs(E, parked, &C->parked);
            Py_DECREF(parked);
            if (bad)
                goto done;
        }
        if (f != Py_None && read_block(E, f, &E->samplers[k]) < 0)
            goto done;
        if (read_route(E, PyList_GET_ITEM(routes, c), &E->routes[k]) < 0)
            goto done;
    }
    if (flush != Py_None) {
        if ((S->flush = PyMem_Calloc((size_t)E->ncl + 1, sizeof(int))) == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        for (int c = 0; c < E->ncl; c++) {
            PyObject *watched = PyList_GET_ITEM(flush, c);
            S->flush[c] = (int)E->nflush;
            if (watched == Py_None)
                continue;
            Py_ssize_t n = PySequence_Size(watched);
            if (n < 0)
                goto done;
            int *grown = PyMem_Realloc(E->flush_cls, (size_t)(E->nflush + n + 1) * sizeof(int));
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            E->flush_cls = grown;
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *crt = PySequence_GetItem(watched, i);
                int idx;
                if (crt == NULL)
                    goto done;
                int bad = attr_int(crt, "idx", &idx);
                Py_DECREF(crt);
                if (bad)
                    goto done;
                if (idx < 0 || idx >= E->ncl) {
                    PyErr_SetString(PyExc_ValueError, "watched class index out of range");
                    goto done;
                }
                E->flush_cls[E->nflush++] = idx;
            }
        }
        S->flush[E->ncl] = (int)E->nflush;
    }
    if (queue != Py_None && read_jobs(E, queue, &S->queue) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(cap);
    Py_XDECREF(cells);
    Py_XDECREF(samplers);
    Py_XDECREF(routes);
    Py_XDECREF(flush);
    Py_XDECREF(queue);
    return rc;
}

static int
read_class(Engine *E, int c)
{
    Class *C = &E->cl[c];
    PyObject *obj = C->obj, *pending = NULL, *ref = NULL, *entry = NULL, *arrivals = NULL;
    int rc = -1;
    if (attr_int(obj, "closed", &C->closed) < 0 || attr_ll(obj, "created", &C->created) < 0
        || attr_ll(obj, "sunk", &C->sunk) < 0 || attr_ll(obj, "dropped", &C->dropped) < 0
        || attr_ll(obj, "rcnt", &C->rcnt) < 0 || attr_double(obj, "rsum", &C->rsum) < 0
        || attr_double(obj, "larea", &C->larea) < 0)
        goto done;
    if ((ref = PyObject_GetAttrString(obj, "ref")) == NULL || station_index(E, ref, &C->ref) < 0)
        goto done;
    if ((entry = PyObject_GetAttrString(obj, "entry_route")) == NULL
        || read_route(E, entry, &C->entry) < 0)
        goto done;
    C->ta = INFINITY;
    C->arrivals = -1;
    if ((arrivals = PyObject_GetAttrString(obj, "arrivals")) == NULL
        || (arrivals != Py_None
            && (read_block(E, arrivals, &C->arrivals) < 0 || attr_double(obj, "ta", &C->ta) < 0)))
        goto done;
    if ((pending = PyObject_GetAttrString(obj, "pending")) == NULL)
        goto done;
    C->watched = pending != Py_None;
    if (C->watched && read_jobs(E, pending, &C->pending) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(pending);
    Py_XDECREF(ref);
    Py_XDECREF(entry);
    Py_XDECREF(arrivals);
    return rc;
}

static int
read_heap(Engine *E, PyObject *heap)
{
    if (!PyList_Check(heap)) {
        PyErr_SetString(PyExc_TypeError, "engine.heap must be a list");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(heap);
    E->hcap = n > 64 ? n : 64;
    if ((E->heap = PyMem_Calloc((size_t)E->hcap, sizeof(Event))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *t, *job, *st;
        long long seq;
        Event *ev = &E->heap[i];
        if (!PyArg_ParseTuple(PyList_GET_ITEM(heap, i), "OLOO", &t, &seq, &job, &st))
            return -1;
        ev->t = PyFloat_AsDouble(t);
        if (ev->t == -1.0 && PyErr_Occurred())
            return -1;
        ev->seq = seq;
        if ((ev->job = read_job(E, job)) < 0 || station_index(E, st, &ev->st) < 0)
            return -1;
        if (ev->st < 0) {
            PyErr_SetString(PyExc_ValueError, "calendar event without a station");
            return -1;
        }
        E->hlen = i + 1;
    }
    return 0;
}

static int
read_engine(Engine *E, PyObject *engine, PyObject *stations, PyObject *classes)
{
    PyObject *heap;
    int rc;
    if (attr_double(engine, "horizon", &E->horizon) < 0 || attr_double(engine, "warmup", &E->warm) < 0
        || attr_ll(engine, "seq", &E->seq) < 0)
        return -1;
    if (!PyList_Check(stations) || !PyList_Check(classes)) {
        PyErr_SetString(PyExc_TypeError, "engine.stations and engine.classes must be lists");
        return -1;
    }
    E->nst = (int)PyList_GET_SIZE(stations);
    E->ncl = (int)PyList_GET_SIZE(classes);
    size_t cells = (size_t)E->nst * E->ncl;
    E->st = PyMem_Calloc((size_t)E->nst + 1, sizeof(Station));
    E->cl = PyMem_Calloc((size_t)E->ncl + 1, sizeof(Class));
    E->cells = PyMem_Calloc(cells + 1, sizeof(Cell));
    E->samplers = PyMem_Calloc(cells + 1, sizeof(int));
    E->routes = PyMem_Calloc(cells + 1, sizeof(Route));
    if (!E->st || !E->cl || !E->cells || !E->samplers || !E->routes) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t k = 0; k < cells; k++)
        E->samplers[k] = -1;
    /* objects first: routes and calendar events refer to stations by identity */
    for (int s = 0; s < E->nst; s++) {
        E->st[s].obj = PyList_GET_ITEM(stations, s);
        Py_INCREF(E->st[s].obj);
    }
    for (int c = 0; c < E->ncl; c++) {
        E->cl[c].obj = PyList_GET_ITEM(classes, c);
        Py_INCREF(E->cl[c].obj);
    }
    for (int s = 0; s < E->nst; s++)
        if (read_station(E, s) < 0)
            return -1;
    for (int c = 0; c < E->ncl; c++)
        if (read_class(E, c) < 0)
            return -1;
    if ((heap = PyObject_GetAttrString(engine, "heap")) == NULL)
        return -1;
    rc = read_heap(E, heap);
    Py_DECREF(heap);
    return rc;
}

static void
free_route(Route *R)
{
    PyMem_Free(R->cums);
    PyMem_Free(R->tos);
}

static void
free_engine(Engine *E)
{
    Py_ssize_t cells = (Py_ssize_t)E->nst * E->ncl;
    if (E->cells)
        for (Py_ssize_t k = 0; k < cells; k++)
            Py_XDECREF(E->cells[k].obj);
    for (int b = 0; b < E->nblocks; b++) {
        Block *B = &E->blocks[b];
        if (B->vals != NULL)
            PyBuffer_Release(&B->buf);
        Py_XDECREF(B->vals);
        Py_XDECREF(B->fill);
        Py_DECREF(B->obj);
    }
    if (E->routes)
        for (Py_ssize_t k = 0; k < cells; k++)
            free_route(&E->routes[k]);
    if (E->st)
        for (int s = 0; s < E->nst; s++) {
            Py_XDECREF(E->st[s].obj);
            PyMem_Free(E->st[s].flush);
        }
    if (E->cl)
        for (int c = 0; c < E->ncl; c++) {
            Py_XDECREF(E->cl[c].obj);
            free_route(&E->cl[c].entry);
        }
    PyMem_Free(E->st);
    PyMem_Free(E->cl);
    PyMem_Free(E->cells);
    PyMem_Free(E->samplers);
    PyMem_Free(E->routes);
    PyMem_Free(E->blocks);
    PyMem_Free(E->flush_cls);
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

static int
no_station(Engine *E, int s, int ci)
{
    PyObject *name = PyObject_GetAttrString(E->st[s].obj, "name");
    if (name != NULL) {
        PyErr_Format(PyExc_RuntimeError, "station %S does not serve class index %d", name, ci);
        Py_DECREF(name);
    }
    return -1;
}

/* the class with the earliest next arrival, the lowest index on a tie */
static int
first_arrival(const Engine *E)
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
    int ca = first_arrival(E);
    double ta = E->ncl ? E->cl[ca].ta : INFINITY;
    unsigned int tick = 0;

    for (;;) {
        double t;
        int j, ci;
        const Route *nxt;

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
            if (draw(E, A->arrivals, &A->ta) < 0)
                return -1;
            ca = first_arrival(E);
            ta = E->cl[ca].ta;
            if ((j = job_new(E)) < 0)
                return -1;
            E->jobs[j].ci = ci;
            E->jobs[j].entered = t;
            nxt = &E->cl[ci].entry;
        } else {
            if (t >= horizon)
                break;
            Event ev = heap_pop(E);
            int s = ev.st;
            Station *S = &E->st[s];
            Job *J = &E->jobs[ev.job];
            j = ev.job;
            ci = J->ci;
            if (S->kc == KC_FCFS) {
                /* service completes at an fcfs station */
                if (t > warm) {
                    Cell *cell = &E->cells[AT(E, s, ci)];
                    double a = J->arrived;
                    double d = t - a;
                    cell->ssum += d;
                    cell->scnt += 1;
                    cell->area += a > warm ? d : t - warm;
                    double ss = J->sstart;
                    cell->barea += ss > warm ? t - ss : t - warm;
                }
                S->busy -= 1;
                if (S->queue.len) {
                    int nj = list_popleft(E, &S->queue);
                    double sv;
                    S->busy += 1;
                    E->jobs[nj].sstart = t;
                    if (draw(E, E->samplers[AT(E, s, E->jobs[nj].ci)], &sv) < 0
                        || heap_push(E, t + sv, nj, s) < 0)
                        return -1;
                }
                if (S->flush != NULL) {
                    for (int k = S->flush[ci]; k < S->flush[ci + 1]; k++) {
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
                }
                if (S->ref_ci == ci)
                    /* leaving the reference station opens a cycle */
                    E->jobs[j].entered = t;
            } else {
                /* delay timer fires */
                if (t > warm) {
                    Cell *cell = &E->cells[AT(E, s, ci)];
                    double a = J->arrived;
                    double d = t - a;
                    cell->ssum += d;
                    cell->scnt += 1;
                    cell->area += a > warm ? d : t - warm;
                }
                if (S->ref_ci == ci)
                    J->entered = t;
            }
            nxt = &E->routes[AT(E, s, ci)];
        }

        /* route the arriving or departing job to its next station */
        int ns;
        if (nxt->n == 1) {
            ns = nxt->to;
        } else if (nxt->n > 1) {
            double u;
            int i = 0;
            if (draw(E, nxt->draw, &u) < 0)
                return -1;
            while (nxt->cums[i] < u)
                if (++i == nxt->n) {
                    PyErr_SetString(PyExc_IndexError, "routing uniform beyond the last edge");
                    return -1;
                }
            ns = nxt->tos[i];
        } else {
            PyErr_Format(PyExc_RuntimeError, "class index %d has no route onward", ci);
            return -1;
        }

        Station *N = &E->st[ns];
        Job *J = &E->jobs[j];
        if (N->kc == KC_SINK) {
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

        if (N->ref_ci == ci && J->entered >= 0.0) {
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
        if (cell->obj == NULL || E->samplers[k] < 0)
            return no_station(E, ns, ci);
        if (N->kc == KC_FCFS) {
            if (N->busy + N->queue.len >= N->cap) {
                Class *C = &E->cl[ci];
                if (!C->closed) {
                    /* closed populations are never dropped */
                    C->dropped += 1;
                    if (t > warm) {
                        cell->drops += 1;
                        double e = J->entered;
                        C->larea += e > warm ? t - e : t - warm;
                    }
                    job_free(E, j);
                    continue;
                }
            }
            J->arrived = t;
            if (N->busy < N->servers) {
                double sv;
                N->busy += 1;
                J->sstart = t;
                if (draw(E, E->samplers[k], &sv) < 0 || heap_push(E, t + sv, j, ns) < 0)
                    return -1;
            } else {
                list_append(E, &N->queue, j);
            }
        } else {
            /* delay entry (validation keeps jobs out of sources) */
            double d;
            J->arrived = t;
            if (draw(E, E->samplers[k], &d) < 0)
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
/* closing sweep and write-back */

static void
close_out(Engine *E, long long *in_net, int j, int s, int in_service)
{
    const double horizon = E->horizon, warm = E->warm;
    const Job *J = &E->jobs[j];
    int ci = J->ci;
    in_net[ci] += 1;
    Cell *cell = &E->cells[AT(E, s, ci)];
    double a = J->arrived;
    cell->area += horizon - (a > warm ? a : warm);
    if (in_service) {
        double ss = J->sstart;
        cell->barea += horizon - (ss > warm ? ss : warm);
    }
    Class *C = &E->cl[ci];
    if (C->closed) {
        if (s != C->ref && J->entered >= 0.0) {
            double e = J->entered;
            C->larea += horizon - (e > warm ? e : warm);
        }
    } else {
        double e = J->entered;
        C->larea += horizon - (e > warm ? e : warm);
    }
}

static void
sweep(Engine *E, long long *in_net)
{
    const double horizon = E->horizon, warm = E->warm;
    for (Py_ssize_t i = 0; i < E->hlen; i++) {
        const Event *ev = &E->heap[i];
        close_out(E, in_net, ev->job, ev->st, E->st[ev->st].kc == KC_FCFS);
    }
    for (int s = 0; s < E->nst; s++) {
        for (int j = E->st[s].queue.len ? E->st[s].queue.head : -1; j >= 0; j = E->jobs[j].next)
            close_out(E, in_net, j, s, 0);
        for (int c = 0; c < E->ncl; c++) {
            const List *L = &E->cells[AT(E, s, c)].parked;
            for (int j = L->len ? L->head : -1; j >= 0; j = E->jobs[j].next)
                close_out(E, in_net, j, s, 0);
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

static int
set_double(PyObject *obj, const char *name, double v)
{
    PyObject *o = PyFloat_FromDouble(v);
    if (o == NULL)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, o);
    Py_DECREF(o);
    return rc;
}

static int
set_ll(PyObject *obj, const char *name, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    if (o == NULL)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, o);
    Py_DECREF(o);
    return rc;
}

static int
write_back(Engine *E, PyObject *engine)
{
    for (Py_ssize_t k = 0; k < (Py_ssize_t)E->nst * E->ncl; k++) {
        Cell *C = &E->cells[k];
        if (C->obj != NULL
            && (set_double(C->obj, "area", C->area) < 0 || set_double(C->obj, "barea", C->barea) < 0
                || set_double(C->obj, "ssum", C->ssum) < 0 || set_ll(C->obj, "scnt", C->scnt) < 0
                || set_ll(C->obj, "drops", C->drops) < 0))
            return -1;
    }
    for (int c = 0; c < E->ncl; c++) {
        Class *C = &E->cl[c];
        if (set_ll(C->obj, "created", C->created) < 0 || set_ll(C->obj, "sunk", C->sunk) < 0
            || set_ll(C->obj, "dropped", C->dropped) < 0
            || set_double(C->obj, "rsum", C->rsum) < 0 || set_ll(C->obj, "rcnt", C->rcnt) < 0
            || set_double(C->obj, "larea", C->larea) < 0)
            return -1;
    }
    for (int s = 0; s < E->nst; s++)
        if (set_ll(E->st[s].obj, "busy", E->st[s].busy) < 0)
            return -1;
    return set_ll(engine, "seq", E->seq);
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
        if (B->vals != NULL
            && (PyObject_SetAttrString(B->obj, "vals", B->vals) < 0 || set_ll(B->obj, "i", B->i) < 0))
            rc = -1;
    }
    if (type == NULL)
        return rc;
    PyErr_Clear();
    PyErr_Restore(type, value, tb);
    return -1;
}

static PyObject *
loop_run(PyObject *module, PyObject *engine)
{
    Engine E;
    PyObject *stations = NULL, *classes = NULL, *live = NULL;
    long long *in_net = NULL;

    memset(&E, 0, sizeof E);
    E.free = -1;
    if ((stations = PyObject_GetAttrString(engine, "stations")) == NULL
        || (classes = PyObject_GetAttrString(engine, "classes")) == NULL)
        goto done;
    int failed = read_engine(&E, engine, stations, classes) < 0 || run_loop(&E) < 0;
    if (write_blocks(&E) < 0 || failed)
        goto done;
    if ((in_net = PyMem_Calloc((size_t)E.ncl + 1, sizeof(long long))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    sweep(&E, in_net);
    if (write_back(&E, engine) < 0)
        goto done;
    if ((live = PyList_New(E.ncl)) == NULL)
        goto done;
    for (int c = 0; c < E.ncl; c++) {
        PyObject *n = PyLong_FromLongLong(in_net[c]);
        if (n == NULL) {
            Py_CLEAR(live);
            goto done;
        }
        PyList_SET_ITEM(live, c, n);
    }
done:
    PyMem_Free(in_net);
    free_engine(&E);
    Py_XDECREF(stations);
    Py_XDECREF(classes);
    return live;
}

static PyMethodDef loop_methods[] = {
    {"run", loop_run, METH_O,
     "run(engine) -> live jobs per class. Runs a built _Engine to its horizon, "
     "closes out the jobs still alive and writes the accumulators back."},
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
