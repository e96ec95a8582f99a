/* Native engine core: the heap engine's drain loop and the CFS dispatch
 * cycle, compiled to machine code.
 *
 * This library is the C twin of two pieces of Python:
 *
 *   repro/sim/engine.py   Engine._drain (single=False)
 *   repro/sched/core.py   CoreSim._on_core_event and the chain it calls:
 *                         _charge_current -> _redispatch ->
 *                         (_put_back_current, _dispatch_next, _start)
 *                         -> effective_rate -> _run_duration ->
 *                         Engine.schedule
 *
 * It operates directly on the live Python objects (the engine's
 * (time, seq, event) heap list, the run queue's entry heaps, Task
 * attribute dicts) through the CPython C-API.  Each function below is
 * the twin of the Python method it is named after and performs the
 * *identical sequence of mutations* -- every float add/mul/div, every
 * heap sift, every counter bump appears in the same order with the same
 * operands as the Python source.  IEEE-754 doubles are what Python
 * floats are, so the results are bit-identical and the golden run
 * digests hold across backends.  When editing a Python twin, mirror the
 * change here; the digest-parity suite and the generative heap-vs-native
 * check will catch a miss.
 *
 * Division of labour: C owns the hot straight line (event pop, charge
 * arithmetic, requeue, pick-next, rate/slice math, event re-schedule);
 * Python keeps everything stateful-rare (observers, tracing, balancer
 * idle hooks, program advance, barrier spin-timeouts, other run-queue
 * and slice policies) via call-outs.  There is exactly ONE ctypes
 * boundary crossing per engine run -- repro_drain -- because a
 * per-event ctypes call would cost more than the interpreted loop it
 * replaces.
 *
 * The heap routines transcribe heapq's _siftdown/_siftup verbatim so
 * list layouts (not just pop order) match the Python engine; layout
 * differences would change later pop order after mixed push/pop
 * sequences, and the two engines must be able to share one heap.
 *
 * Loaded with ctypes.PyDLL (GIL held; error flag checked per call) by
 * repro.sim.backends.nativebuild.  No Python.h-level module object is
 * involved: repro_native_init receives a dict of support objects
 * (exception class, Event class, enum members, interned constants)
 * and the entry points take plain PyObject pointers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* completes PyMemberDef for slot offsets */
#include <math.h>

/* ------------------------------------------------------------------ */
/* interned attribute names                                            */
/* ------------------------------------------------------------------ */

#define ATTR_NAMES(X)                                                       \
    /* engine */                                                            \
    X(now) X(_heap) X(_cancelled) X(_dispatched) X(max_events)              \
    X(_stop_requested) X(observers) X(_seq)                                 \
    /* event */                                                             \
    X(callback) X(payload) X(cancelled) X(in_heap) X(label) X(engine)       \
    /* core */                                                              \
    X(_gen) X(current) X(system) X(rq) X(params) X(dispatch_started_at)     \
    X(stats) X(_rate_at_dispatch) X(_event) X(_event_label)                 \
    X(_in_resched) X(_load_epoch) X(_mem_busy) X(_mem_track) X(_mem_alpha)  \
    X(_clock_factor) X(_smt_active) X(_smt_derate) X(_sib_core) X(_numa)   \
    X(_numa_node) X(_numa_remote_slowdown) X(hw) X(cid) X(yield_check_us)  \
    X(throttled)                                                            \
    /* task */                                                              \
    X(tid) X(name) X(weight) X(vruntime) X(exec_us) X(compute_us)           \
    X(work_remaining) X(migration_debt_us) X(waiting_on) X(wait_mode)       \
    X(spin_deadline) X(state) X(needs_advance) X(mem_intensity)             \
    X(home_node) X(last_descheduled_at) X(last_core) X(cur_core)            \
    /* run queue */                                                         \
    X(_live) X(_max_heap) X(_total_weight) X(count) X(min_vruntime)         \
    /* stats */                                                             \
    X(busy_us) X(spin_us) X(context_switches) X(dispatches)                 \
    /* system */                                                            \
    X(trace) X(_kb_on_charge) X(charge_observers) X(cores)                  \
    /* params */                                                            \
    X(min_granularity) X(target_latency) X(yield_penalty)                   \
    /* topology */                                                          \
    X(smt_sibling)                                                          \
    /* methods */                                                           \
    X(_prepare) X(_go_idle) X(_notify_sibling_rate_change)                  \
    X(note_residency) X(spin_timeout) X(record) X(cancel) X(_note_cancel)  \
    X(_compact) X(__ceil__)

typedef struct {
    /* support objects (owned references, held for process lifetime) */
    PyObject *SimulationError;
    PyObject *EventClass;
    PyObject *on_core_event; /* CoreSim._on_core_event, the function */
    PyObject *CfsParams;     /* the classes gating the C twin */
    PyObject *CfsRunQueue;
    PyObject *st_running;    /* TaskState.RUNNING */
    PyObject *st_runnable;   /* TaskState.RUNNABLE */
    PyObject *wm_yield;      /* WaitMode.YIELD */
    PyObject *entry_counter; /* runqueue._entry_counter (itertools.count) */
    PyObject *str_wait;      /* "wait" */
    PyObject *str_run;       /* "run" */
    double work_eps;
    double nice0;            /* float(NICE_0_WEIGHT) */
    long long compact_factor; /* runqueue._COMPACT_FACTOR / _COMPACT_MIN */
    long long compact_min;
#define X(n) PyObject *n_##n;
    ATTR_NAMES(X)
#undef X
} support_t;

static support_t S;
static int S_ready = 0;

/* process-lifetime dispatch counters, readable via repro_native_stat:
 * how many core events ran through the C twin, how many events took
 * the generic Python call, and how many core events were delegated to
 * the Python method (other run-queue or slice policies).  The test
 * suite uses these to prove the fast path is actually exercised rather
 * than silently falling back. */
static long long stat_fused = 0;
static long long stat_generic = 0;
static long long stat_delegated = 0;

/* ------------------------------------------------------------------ */
/* attribute access                                                    */
/*                                                                     */
/* Generic PyObject_GetAttr costs as much as the 3.11 specializing     */
/* interpreter's LOAD_ATTR, which is why a naive C transcription runs  */
/* no faster than the bytecode it replaces.  All hot classes except    */
/* Event are plain-__dict__ classes with no data descriptors on the    */
/* touched names, so we materialize each object's instance dict once   */
/* (PyObject_GenericGetDict) and then read/write through PyDict_* with */
/* pre-interned keys.  Event has __slots__; its member offsets are     */
/* resolved from the slot descriptors at init and accessed as direct   */
/* struct loads.                                                       */
/* ------------------------------------------------------------------ */

static int aget_ll(PyObject *o, PyObject *name, long long *out) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    long long r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

static int as_dbl(PyObject *v, double *out) {
    if (PyFloat_CheckExact(v)) {
        *out = PyFloat_AS_DOUBLE(v);
        return 0;
    }
    double r = PyFloat_AsDouble(v);
    if (r == -1.0 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

static int aget_dbl(PyObject *o, PyObject *name, double *out) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    int rc = as_dbl(v, out);
    Py_DECREF(v);
    return rc;
}

/* truthiness of attribute: 1/0, or -1 with error set */
static int atrue(PyObject *o, PyObject *name) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    int rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
}

/* instance __dict__ of a plain-class object, materialized once; new
 * reference (attribute writes from either side stay visible: it IS the
 * object's dict) */
static inline PyObject *idict(PyObject *o) {
    return PyObject_GenericGetDict(o, NULL);
}

/* new-ref read through the instance dict; falls back to real getattr
 * for names satisfied by the class (bound methods, defaults) */
static PyObject *dget(PyObject *d, PyObject *o, PyObject *name) {
    PyObject *v = PyDict_GetItemWithError(d, name);
    if (v != NULL) {
        Py_INCREF(v);
        return v;
    }
    if (PyErr_Occurred()) return NULL;
    return PyObject_GetAttr(o, name);
}

static int dget_ll(PyObject *d, PyObject *o, PyObject *name,
                   long long *out) {
    PyObject *v = PyDict_GetItemWithError(d, name); /* borrowed */
    if (v == NULL) {
        if (PyErr_Occurred()) return -1;
        return aget_ll(o, name, out);
    }
    long long r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

static int dget_dbl(PyObject *d, PyObject *o, PyObject *name, double *out) {
    PyObject *v = PyDict_GetItemWithError(d, name); /* borrowed */
    if (v == NULL) {
        if (PyErr_Occurred()) return -1;
        return aget_dbl(o, name, out);
    }
    return as_dbl(v, out);
}

/* 1 iff o.name is None, 0 if not, -1 with error set */
static int dnone(PyObject *d, PyObject *o, PyObject *name) {
    PyObject *v = dget(d, o, name);
    if (v == NULL) return -1;
    int rc = (v == Py_None);
    Py_DECREF(v);
    return rc;
}

/* 1 iff o.name is the object ``want`` (enum members), -1 on error */
static int dis(PyObject *d, PyObject *o, PyObject *name, PyObject *want) {
    PyObject *v = dget(d, o, name);
    if (v == NULL) return -1;
    int rc = (v == want);
    Py_DECREF(v);
    return rc;
}

/* writes go straight into the instance dict: equivalent to setattr for
 * plain classes (no slots, no data descriptors on these names) */
static inline int dset(PyObject *d, PyObject *name, PyObject *v) {
    return PyDict_SetItem(d, name, v);
}

static int dset_ll(PyObject *d, PyObject *name, long long v) {
    PyObject *obj = PyLong_FromLongLong(v);
    if (obj == NULL) return -1;
    int rc = PyDict_SetItem(d, name, obj);
    Py_DECREF(obj);
    return rc;
}

static int dset_dbl(PyObject *d, PyObject *name, double v) {
    PyObject *obj = PyFloat_FromDouble(v);
    if (obj == NULL) return -1;
    int rc = PyDict_SetItem(d, name, obj);
    Py_DECREF(obj);
    return rc;
}

/* o.name += delta on an int attribute */
static int dadd_ll(PyObject *d, PyObject *o, PyObject *name,
                   long long delta) {
    long long v;
    if (dget_ll(d, o, name, &v) < 0) return -1;
    return dset_ll(d, name, v + delta);
}

static int dtrue(PyObject *d, PyObject *o, PyObject *name) {
    PyObject *v = PyDict_GetItemWithError(d, name); /* borrowed */
    if (v == NULL) {
        if (PyErr_Occurred()) return -1;
        return atrue(o, name);
    }
    if (v == Py_True) return 1;
    if (v == Py_False || v == Py_None) return 0;
    return PyObject_IsTrue(v);
}

/* o.name(*args) for a method looked up the ordinary way */
static int call_method0(PyObject *o, PyObject *name) {
    PyObject *r = PyObject_CallMethodNoArgs(o, name);
    if (r == NULL) return -1;
    Py_DECREF(r);
    return 0;
}

static int call_method1(PyObject *o, PyObject *name, PyObject *arg) {
    PyObject *r = PyObject_CallMethodOneArg(o, name, arg);
    if (r == NULL) return -1;
    Py_DECREF(r);
    return 0;
}

/* list[0] += delta (the load-epoch cell) */
static int cell_add(PyObject *list, long long delta) {
    PyObject *v = PyList_GetItem(list, 0); /* borrowed */
    if (v == NULL) return -1;
    long long r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred()) return -1;
    PyObject *obj = PyLong_FromLongLong(r + delta);
    if (obj == NULL) return -1;
    return PyList_SetItem(list, 0, obj); /* steals obj, decrefs old */
}

/* ---- Event slot access ------------------------------------------- */

enum {
    EV_TIME,
    EV_SEQ,
    EV_CALLBACK,
    EV_CANCELLED,
    EV_LABEL,
    EV_ENGINE,
    EV_IN_HEAP,
    EV_PAYLOAD,
    EV_NSLOTS
};

static Py_ssize_t ev_off[EV_NSLOTS];

#define EV_SLOT(ev, i) (*(PyObject **)((char *)(ev) + ev_off[i]))

/* new ref; subclassed/forged events fall back to real getattr */
static PyObject *ev_read(PyObject *ev, int i, PyObject *name) {
    if ((PyObject *)Py_TYPE(ev) == S.EventClass) {
        PyObject *v = EV_SLOT(ev, i);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(ev, name);
}

/* truthiness of an Event flag slot (cancelled / in_heap) */
static int ev_true(PyObject *ev, int i, PyObject *name) {
    if ((PyObject *)Py_TYPE(ev) == S.EventClass) {
        PyObject *v = EV_SLOT(ev, i);
        if (v == Py_True) return 1;
        if (v == Py_False || v == Py_None) return 0;
        if (v != NULL) return PyObject_IsTrue(v);
    }
    return atrue(ev, name);
}

static int ev_write(PyObject *ev, int i, PyObject *name, PyObject *v) {
    if ((PyObject *)Py_TYPE(ev) == S.EventClass) {
        PyObject *old = EV_SLOT(ev, i);
        Py_INCREF(v);
        EV_SLOT(ev, i) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(ev, name, v);
}

/* Event(time, seq, cb, label, engine, payload) without the Python
 * __init__ frame: allocate and fill the slots directly.  Mirrors
 * Event.__init__ exactly -- cancelled=False, in_heap=True (engine is
 * always non-None on this path). */
static PyObject *event_new(PyObject *time_obj, PyObject *seq_obj,
                           PyObject *cb, PyObject *label, PyObject *engine,
                           PyObject *payload) {
    PyTypeObject *tp = (PyTypeObject *)S.EventClass;
    PyObject *ev = tp->tp_alloc(tp, 0);
    if (ev == NULL) return NULL;
    PyObject *vals[EV_NSLOTS];
    vals[EV_TIME] = time_obj;
    vals[EV_SEQ] = seq_obj;
    vals[EV_CALLBACK] = cb;
    vals[EV_CANCELLED] = Py_False;
    vals[EV_LABEL] = label;
    vals[EV_ENGINE] = engine;
    vals[EV_IN_HEAP] = Py_True;
    vals[EV_PAYLOAD] = payload;
    for (int i = 0; i < EV_NSLOTS; i++) {
        Py_INCREF(vals[i]);
        EV_SLOT(ev, i) = vals[i];
    }
    return ev;
}

/* ------------------------------------------------------------------ */
/* heapq transcription (identical layouts to Lib/heapq.py)             */
/* ------------------------------------------------------------------ */

/* a < b, returning 1/0, or -1 with error set */
typedef int (*lt_fn)(PyObject *a, PyObject *b);

/* three-way compare of two exact ints into *cmp (-1/0/1); returns 1
 * when the fast path does not apply (non-int or overflow) */
static int int_cmp(PyObject *a, PyObject *b, int *cmp) {
    if (!PyLong_CheckExact(a) || !PyLong_CheckExact(b)) return 1;
    int of_a, of_b;
    long long la = PyLong_AsLongLongAndOverflow(a, &of_a);
    long long lb = PyLong_AsLongLongAndOverflow(b, &of_b);
    if (of_a || of_b) return 1;
    *cmp = (la > lb) - (la < lb);
    return 0;
}

/* for the engine heap: (time, seq, event) triples; seq is unique, so
 * the comparison resolves on the int prefix without touching Event */
static int lt_event(PyObject *a, PyObject *b) {
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b) &&
        PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        int cmp;
        if (int_cmp(PyTuple_GET_ITEM(a, 0), PyTuple_GET_ITEM(b, 0), &cmp) == 0 &&
            (cmp != 0 ||
             (int_cmp(PyTuple_GET_ITEM(a, 1), PyTuple_GET_ITEM(b, 1), &cmp) == 0 &&
              cmp != 0)))
            return cmp < 0;
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* for rq._heap / rq._max_heap: (float, int, ...) tuples; unique second
 * elements mean the comparison never reaches the third */
static int lt_entry(PyObject *a, PyObject *b) {
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b) &&
        PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        PyObject *a0 = PyTuple_GET_ITEM(a, 0), *b0 = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(a0) && PyFloat_CheckExact(b0)) {
            double da = PyFloat_AS_DOUBLE(a0), db = PyFloat_AS_DOUBLE(b0);
            if (da < db) return 1;
            if (db < da) return 0;
            int cmp;
            if (da == db &&
                int_cmp(PyTuple_GET_ITEM(a, 1), PyTuple_GET_ITEM(b, 1),
                        &cmp) == 0 &&
                cmp != 0)
                return cmp < 0;
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq._siftdown(heap, startpos, pos) */
static int siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos,
                    lt_fn lt) {
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int cmp = lt(newitem, parent);
        if (cmp < 0) { Py_DECREF(newitem); return -1; }
        if (!cmp) break;
        Py_INCREF(parent);
        if (PyList_SetItem(heap, pos, parent) < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        pos = parentpos;
    }
    return PyList_SetItem(heap, pos, newitem);
}

/* heapq._siftup(heap, pos): bubble the hole to a leaf, then siftdown */
static int siftup(PyObject *heap, Py_ssize_t pos, lt_fn lt) {
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int cmp = lt(PyList_GET_ITEM(heap, childpos),
                         PyList_GET_ITEM(heap, rightpos));
            if (cmp < 0) { Py_DECREF(newitem); return -1; }
            if (!cmp) childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        if (PyList_SetItem(heap, pos, child) < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    if (PyList_SetItem(heap, pos, newitem) < 0) return -1;
    return siftdown(heap, startpos, pos, lt);
}

static int heappush_c(PyObject *heap, PyObject *item, lt_fn lt) {
    if (PyList_Append(heap, item) < 0) return -1;
    return siftdown(heap, 0, PyList_GET_SIZE(heap) - 1, lt);
}

/* new reference, or NULL with error set; heap must be non-empty */
static PyObject *heappop_c(PyObject *heap, lt_fn lt) {
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    if (n == 1) return lastelt;
    PyObject *returnitem = PyList_GET_ITEM(heap, 0);
    Py_INCREF(returnitem);
    if (PyList_SetItem(heap, 0, lastelt) < 0) { /* steals lastelt */
        Py_DECREF(returnitem);
        return NULL;
    }
    if (siftup(heap, 0, lt) < 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

/* ------------------------------------------------------------------ */
/* one core event's working set                                        */
/* ------------------------------------------------------------------ */

/* The core and the objects its dispatch chain touches, each instance
 * dict materialized once per event.  None of these attributes is ever
 * rebound on a live System, so caching them across call-outs is safe;
 * the run queue's heap lists ARE rebound (CfsRunQueue._compact), so
 * the rq helpers below re-read them on every call. */
typedef struct {
    PyObject *engine, *engine_d; /* borrowed from the drain loop */
    PyObject *t_obj;             /* borrowed: the event time == engine.now */
    long long now;
    PyObject *core;              /* borrowed */
    PyObject *core_d;            /* the rest are owned */
    PyObject *cid_obj;
    long long cid;
    PyObject *system, *system_d;
    PyObject *rq, *rq_d;
    PyObject *stats, *stats_d;
    PyObject *params;
    PyObject *load_epoch;
    PyObject *mem_busy;
} core_ctx;

static void ctx_clear(core_ctx *c) {
    Py_CLEAR(c->core_d);
    Py_CLEAR(c->cid_obj);
    Py_CLEAR(c->system);
    Py_CLEAR(c->system_d);
    Py_CLEAR(c->rq);
    Py_CLEAR(c->rq_d);
    Py_CLEAR(c->stats);
    Py_CLEAR(c->stats_d);
    Py_CLEAR(c->params);
    Py_CLEAR(c->load_epoch);
    Py_CLEAR(c->mem_busy);
}

static int ctx_init(core_ctx *c, PyObject *core) {
    c->core = core;
    if ((c->core_d = idict(core)) == NULL) return -1;
    PyObject *d = c->core_d;
    if ((c->cid_obj = dget(d, core, S.n_cid)) == NULL) return -1;
    c->cid = PyLong_AsLongLong(c->cid_obj);
    if (c->cid == -1 && PyErr_Occurred()) return -1;
    if ((c->system = dget(d, core, S.n_system)) == NULL ||
        (c->system_d = idict(c->system)) == NULL ||
        (c->rq = dget(d, core, S.n_rq)) == NULL ||
        (c->stats = dget(d, core, S.n_stats)) == NULL ||
        (c->params = dget(d, core, S.n_params)) == NULL ||
        (c->load_epoch = dget(d, core, S.n__load_epoch)) == NULL ||
        (c->mem_busy = dget(d, core, S.n__mem_busy)) == NULL)
        return -1;
    return 0;
}

/* the C twin applies only to the exact classes it transcribes */
static int ctx_is_cfs(core_ctx *c) {
    return (PyObject *)Py_TYPE(c->rq) == S.CfsRunQueue &&
           (PyObject *)Py_TYPE(c->params) == S.CfsParams;
}

/* second-stage init for the C twin: the rq/stats instance dicts */
static int ctx_init_dicts(core_ctx *c) {
    if ((c->rq_d = idict(c->rq)) == NULL ||
        (c->stats_d = idict(c->stats)) == NULL)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* CfsRunQueue twins                                                   */
/* ------------------------------------------------------------------ */

/* live.get(entry[2].tid) is entry: 1/0, -1 on error */
static int rq_entry_live(PyObject *live, PyObject *entry) {
    PyObject *tid = PyObject_GetAttr(PyTuple_GET_ITEM(entry, 2), S.n_tid);
    if (tid == NULL) return -1;
    PyObject *got = PyDict_GetItemWithError(live, tid);
    Py_DECREF(tid);
    if (got == NULL && PyErr_Occurred()) return -1;
    return got == entry;
}

/* CfsRunQueue.note_current_vruntime(vruntime) */
static int rq_note_current_vruntime(core_ctx *c, PyObject *vr_obj) {
    int rc = -1;
    PyObject *heap = dget(c->rq_d, c->rq, S.n__heap);
    PyObject *live = heap ? dget(c->rq_d, c->rq, S.n__live) : NULL;
    if (live == NULL) goto done;
    PyObject *floor = vr_obj; /* borrowed from the caller or the heap */
    Py_INCREF(floor);
    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *entry = PyList_GET_ITEM(heap, 0);
        int is_live = rq_entry_live(live, entry);
        if (is_live < 0) { Py_DECREF(floor); goto done; }
        if (is_live) {
            PyObject *e0 = PyTuple_GET_ITEM(entry, 0);
            double de0, dfloor;
            if (as_dbl(e0, &de0) < 0 || as_dbl(floor, &dfloor) < 0) {
                Py_DECREF(floor);
                goto done;
            }
            if (de0 < dfloor) {
                Py_INCREF(e0);
                Py_SETREF(floor, e0);
            }
            break;
        }
        PyObject *dead = heappop_c(heap, lt_entry);
        if (dead == NULL) { Py_DECREF(floor); goto done; }
        Py_DECREF(dead);
    }
    double dfloor, minvr;
    if (as_dbl(floor, &dfloor) < 0 ||
        dget_dbl(c->rq_d, c->rq, S.n_min_vruntime, &minvr) < 0 ||
        (dfloor > minvr && dset(c->rq_d, S.n_min_vruntime, floor) < 0)) {
        Py_DECREF(floor);
        goto done;
    }
    Py_DECREF(floor);
    rc = 0;
done:
    Py_XDECREF(heap);
    Py_XDECREF(live);
    return rc;
}

/* CfsRunQueue.push(task) */
static int rq_push(core_ctx *c, PyObject *task, PyObject *task_d) {
    int rc = -1;
    PyObject *tid = NULL, *live = NULL, *heap = NULL, *mheap = NULL;
    PyObject *vr = NULL, *cnt = NULL, *entry = NULL, *mentry = NULL;
    PyObject *neg_vr = NULL, *neg_cnt = NULL;
    if ((tid = dget(task_d, task, S.n_tid)) == NULL ||
        (live = dget(c->rq_d, c->rq, S.n__live)) == NULL)
        goto done;
    int queued = PyDict_Contains(live, tid);
    if (queued < 0) goto done;
    if (queued) {
        PyErr_Format(PyExc_ValueError, "%S already queued", task);
        goto done;
    }
    if ((vr = dget(task_d, task, S.n_vruntime)) == NULL ||
        (cnt = PyIter_Next(S.entry_counter)) == NULL ||
        (entry = PyTuple_Pack(3, vr, cnt, task)) == NULL)
        goto done;
    if (PyDict_SetItem(live, tid, entry) < 0 ||
        (heap = dget(c->rq_d, c->rq, S.n__heap)) == NULL ||
        heappush_c(heap, entry, lt_entry) < 0)
        goto done;
    if ((neg_vr = PyNumber_Negative(vr)) == NULL ||
        (neg_cnt = PyNumber_Negative(cnt)) == NULL ||
        (mentry = PyTuple_Pack(3, neg_vr, neg_cnt, entry)) == NULL ||
        (mheap = dget(c->rq_d, c->rq, S.n__max_heap)) == NULL ||
        heappush_c(mheap, mentry, lt_entry) < 0)
        goto done;
    long long weight, count;
    if (dget_ll(task_d, task, S.n_weight, &weight) < 0 ||
        dadd_ll(c->rq_d, c->rq, S.n__total_weight, weight) < 0 ||
        dget_ll(c->rq_d, c->rq, S.n_count, &count) < 0 ||
        dset_ll(c->rq_d, S.n_count, count + 1) < 0)
        goto done;
    if (PyList_GET_SIZE(mheap) >
            S.compact_factor * (count + 1) + S.compact_min &&
        call_method0(c->rq, S.n__compact) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(tid);
    Py_XDECREF(live);
    Py_XDECREF(heap);
    Py_XDECREF(mheap);
    Py_XDECREF(vr);
    Py_XDECREF(cnt);
    Py_XDECREF(entry);
    Py_XDECREF(mentry);
    Py_XDECREF(neg_vr);
    Py_XDECREF(neg_cnt);
    return rc;
}

/* CfsRunQueue.pop_min(): *out is a new ref to the task, or NULL when
 * the queue is empty; returns -1 with an error set on failure */
static int rq_pop_min(core_ctx *c, PyObject **out) {
    *out = NULL;
    int rc = -1;
    PyObject *heap = dget(c->rq_d, c->rq, S.n__heap);
    PyObject *live = heap ? dget(c->rq_d, c->rq, S.n__live) : NULL;
    if (live == NULL) goto done;
    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *entry = heappop_c(heap, lt_entry);
        if (entry == NULL) goto done;
        PyObject *task = PyTuple_GET_ITEM(entry, 2);
        Py_INCREF(task);
        PyObject *tid = PyObject_GetAttr(task, S.n_tid);
        PyObject *got = tid ? PyDict_GetItemWithError(live, tid) : NULL;
        int found = (got == entry);
        if (!found) {
            Py_XDECREF(tid);
            Py_DECREF(task);
            Py_DECREF(entry);
            if (PyErr_Occurred()) goto done;
            continue;
        }
        long long weight;
        double vr, minvr;
        PyObject *vr_obj = NULL;
        int fail = (PyDict_DelItem(live, tid) < 0 ||
                    aget_ll(task, S.n_weight, &weight) < 0 ||
                    dadd_ll(c->rq_d, c->rq, S.n__total_weight, -weight) < 0 ||
                    dadd_ll(c->rq_d, c->rq, S.n_count, -1) < 0 ||
                    (vr_obj = PyObject_GetAttr(task, S.n_vruntime)) == NULL ||
                    as_dbl(vr_obj, &vr) < 0 ||
                    dget_dbl(c->rq_d, c->rq, S.n_min_vruntime, &minvr) < 0 ||
                    (vr > minvr &&
                     dset(c->rq_d, S.n_min_vruntime, vr_obj) < 0));
        Py_XDECREF(vr_obj);
        Py_DECREF(tid);
        Py_DECREF(entry);
        if (fail) {
            Py_DECREF(task);
            goto done;
        }
        *out = task;
        break;
    }
    rc = 0;
done:
    Py_XDECREF(heap);
    Py_XDECREF(live);
    return rc;
}

/* CfsRunQueue.max_vruntime(): new ref */
static PyObject *rq_max_vruntime(core_ctx *c) {
    PyObject *out = NULL;
    PyObject *heap = dget(c->rq_d, c->rq, S.n__max_heap);
    PyObject *live = heap ? dget(c->rq_d, c->rq, S.n__live) : NULL;
    if (live == NULL) goto done;
    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *entry = PyTuple_GET_ITEM(PyList_GET_ITEM(heap, 0), 2);
        int is_live = rq_entry_live(live, entry);
        if (is_live < 0) goto done;
        if (is_live) {
            out = PyTuple_GET_ITEM(entry, 0);
            Py_INCREF(out);
            goto done;
        }
        PyObject *dead = heappop_c(heap, lt_entry);
        if (dead == NULL) goto done;
        Py_DECREF(dead);
    }
    out = dget(c->rq_d, c->rq, S.n_min_vruntime);
done:
    Py_XDECREF(heap);
    Py_XDECREF(live);
    return out;
}

/* ------------------------------------------------------------------ */
/* CoreSim twins                                                       */
/* ------------------------------------------------------------------ */

/* ``self._mem_track and task.mem_intensity > 0.0``: 1/0, -1 on error;
 * the intensity lands in *mi */
static int mem_tracked(core_ctx *c, PyObject *task, PyObject *task_d,
                       double *mi) {
    int track = dtrue(c->core_d, c->core, S.n__mem_track);
    if (track <= 0) return track;
    if (dget_dbl(task_d, task, S.n_mem_intensity, mi) < 0) return -1;
    return *mi > 0.0;
}

/* CoreSim._mem_note_on(task): insort(mem_busy, (cid, intensity)).  The
 * core's cid is absent from the list, so bisect_right orders purely on
 * cid. */
static int mem_note_on(core_ctx *c, PyObject *task, PyObject *task_d) {
    double mi;
    int tracked = mem_tracked(c, task, task_d, &mi);
    if (tracked <= 0) return tracked;
    PyObject *busy = c->mem_busy;
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(busy);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long long cid = PyLong_AsLongLong(
            PyTuple_GET_ITEM(PyList_GET_ITEM(busy, mid), 0));
        if (c->cid < cid)
            hi = mid;
        else
            lo = mid + 1;
    }
    if (PyErr_Occurred()) return -1;
    PyObject *mi_obj = dget(task_d, task, S.n_mem_intensity);
    if (mi_obj == NULL) return -1;
    PyObject *pair = PyTuple_Pack(2, c->cid_obj, mi_obj);
    Py_DECREF(mi_obj);
    if (pair == NULL) return -1;
    int rc = PyList_Insert(busy, lo, pair);
    Py_DECREF(pair);
    return rc;
}

/* CoreSim._mem_note_off(task): del mem_busy[bisect_left(mem_busy,
 * (cid, 0.0))].  Intensities are strictly positive, so the probe orders
 * purely on cid. */
static int mem_note_off(core_ctx *c, PyObject *task, PyObject *task_d) {
    double mi;
    int tracked = mem_tracked(c, task, task_d, &mi);
    if (tracked <= 0) return tracked;
    PyObject *busy = c->mem_busy;
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(busy);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long long cid = PyLong_AsLongLong(
            PyTuple_GET_ITEM(PyList_GET_ITEM(busy, mid), 0));
        if (cid < c->cid)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (PyErr_Occurred()) return -1;
    if (lo >= PyList_GET_SIZE(busy)) {
        PyErr_SetString(PyExc_IndexError,
                        "list assignment index out of range");
        return -1;
    }
    return PyList_SetSlice(busy, lo, lo + 1, NULL);
}

/* the system.trace.record(...) call of CoreSim._charge_current */
static int trace_record(core_ctx *c, PyObject *task, PyObject *task_d,
                        long long dt, int waiting) {
    PyObject *trace = dget(c->system_d, c->system, S.n_trace);
    if (trace == NULL) return -1;
    if (trace == Py_None) {
        Py_DECREF(trace);
        return 0;
    }
    PyObject *r = NULL;
    PyObject *tid = dget(task_d, task, S.n_tid);
    PyObject *name = tid ? dget(task_d, task, S.n_name) : NULL;
    PyObject *start = name ? PyLong_FromLongLong(c->now - dt) : NULL;
    if (start != NULL) {
        PyObject *args[7] = {trace, tid, name, c->cid_obj, start, c->t_obj,
                             waiting ? S.str_wait : S.str_run};
        r = PyObject_VectorcallMethod(
            S.n_record, args, 7 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    }
    Py_XDECREF(tid);
    Py_XDECREF(name);
    Py_XDECREF(start);
    Py_DECREF(trace);
    if (r == NULL) return -1;
    Py_DECREF(r);
    return 0;
}

/* the kernel-balancer hook and charge observers: fn(core, task, dt) */
static int charge_hooks(core_ctx *c, PyObject *task, long long dt) {
    int rc = -1;
    PyObject *observers = NULL;
    PyObject *dt_obj = PyLong_FromLongLong(dt);
    PyObject *kb = dt_obj ? dget(c->system_d, c->system, S.n__kb_on_charge)
                          : NULL;
    if (kb == NULL) goto done;
    PyObject *args[3] = {c->core, task, dt_obj};
    if (kb != Py_None) {
        PyObject *r = PyObject_Vectorcall(kb, args, 3, NULL);
        if (r == NULL) goto done;
        Py_DECREF(r);
    }
    observers = dget(c->system_d, c->system, S.n_charge_observers);
    if (observers == NULL) goto done;
    int have_observers = PyObject_IsTrue(observers);
    if (have_observers < 0) goto done;
    if (have_observers) {
        PyObject *it = PyObject_GetIter(observers);
        if (it == NULL) goto done;
        PyObject *obs;
        while ((obs = PyIter_Next(it)) != NULL) {
            PyObject *r = PyObject_Vectorcall(obs, args, 3, NULL);
            Py_DECREF(obs);
            if (r == NULL) break;
            Py_DECREF(r);
        }
        Py_DECREF(it);
        if (PyErr_Occurred()) goto done;
    }
    rc = 0;
done:
    Py_XDECREF(kb);
    Py_XDECREF(observers);
    Py_XDECREF(dt_obj);
    return rc;
}

/* CoreSim._charge_current(), with ``task`` the current task */
static int charge_current(core_ctx *c, PyObject *task, PyObject *task_d) {
    PyObject *core_d = c->core_d;
    long long dsa;
    if (dget_ll(core_d, c->core, S.n_dispatch_started_at, &dsa) < 0)
        return -1;
    long long dt = c->now - dsa;
    if (dset(core_d, S.n_dispatch_started_at, c->t_obj) < 0) return -1;
    if (dt <= 0) return 0;
    if (dadd_ll(task_d, task, S.n_exec_us, dt) < 0) return -1;
    int waiting = dnone(task_d, task, S.n_waiting_on);
    if (waiting < 0) return -1;
    waiting = !waiting;
    if (trace_record(c, task, task_d, dt, waiting) < 0) return -1;
    double vruntime;
    long long weight;
    if (dget_dbl(task_d, task, S.n_vruntime, &vruntime) < 0 ||
        dget_ll(task_d, task, S.n_weight, &weight) < 0)
        return -1;
    PyObject *vr = PyFloat_FromDouble(
        vruntime + (double)dt * (S.nice0 / (double)weight));
    if (vr == NULL) return -1;
    if (dset(task_d, S.n_vruntime, vr) < 0 ||
        rq_note_current_vruntime(c, vr) < 0) {
        Py_DECREF(vr);
        return -1;
    }
    Py_DECREF(vr);
    if (dadd_ll(c->stats_d, c->stats, S.n_busy_us, dt) < 0) return -1;
    if (waiting) {
        if (dadd_ll(c->stats_d, c->stats, S.n_spin_us, dt) < 0) return -1;
    } else {
        double rate, md, wr;
        if (dget_dbl(core_d, c->core, S.n__rate_at_dispatch, &rate) < 0 ||
            dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0)
            return -1;
        double ddt = (double)dt;
        double debt_paid = (md < ddt) ? md : ddt; /* min(float(dt), md) */
        if (dset_dbl(task_d, S.n_migration_debt_us, md - debt_paid) < 0)
            return -1;
        double productive = ddt - debt_paid;
        if (dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0 ||
            dset_dbl(task_d, S.n_work_remaining, wr - productive * rate) < 0 ||
            dadd_ll(task_d, task, S.n_compute_us, (long long)productive) < 0)
            return -1;
    }
    return charge_hooks(c, task, dt);
}

/* CoreSim.sibling(): new ref (None when the core has no sibling) */
static PyObject *core_sibling(core_ctx *c) {
    PyObject *sib = dget(c->core_d, c->core, S.n__sib_core);
    if (sib == NULL || sib != Py_None) return sib;
    PyObject *hw = dget(c->core_d, c->core, S.n_hw);
    PyObject *sib_id = hw ? PyObject_GetAttr(hw, S.n_smt_sibling) : NULL;
    Py_XDECREF(hw);
    if (sib_id == NULL) {
        Py_DECREF(sib);
        return NULL;
    }
    if (sib_id != Py_None) {
        PyObject *cores = dget(c->system_d, c->system, S.n_cores);
        PyObject *resolved = cores ? PyObject_GetItem(cores, sib_id) : NULL;
        Py_XDECREF(cores);
        if (resolved == NULL ||
            dset(c->core_d, S.n__sib_core, resolved) < 0) {
            Py_XDECREF(resolved);
            Py_DECREF(sib_id);
            Py_DECREF(sib);
            return NULL;
        }
        Py_SETREF(sib, resolved);
    }
    Py_DECREF(sib_id);
    return sib;
}

/* CoreSim.effective_rate(task) */
static int effective_rate(core_ctx *c, PyObject *task, PyObject *task_d,
                          double *out) {
    PyObject *core_d = c->core_d;
    double rate;
    if (dget_dbl(core_d, c->core, S.n__clock_factor, &rate) < 0) return -1;
    int smt_active = dtrue(core_d, c->core, S.n__smt_active);
    if (smt_active < 0) return -1;
    if (smt_active) {
        PyObject *sib = core_sibling(c);
        if (sib == NULL) return -1;
        if (sib != Py_None) {
            PyObject *sib_cur = PyObject_GetAttr(sib, S.n_current);
            if (sib_cur == NULL) { Py_DECREF(sib); return -1; }
            int busy = (sib_cur != Py_None);
            Py_DECREF(sib_cur);
            if (busy) {
                double derate;
                if (dget_dbl(core_d, c->core, S.n__smt_derate, &derate) < 0) {
                    Py_DECREF(sib);
                    return -1;
                }
                rate *= derate;
            }
        }
        Py_DECREF(sib);
    }
    PyObject *home = dget(task_d, task, S.n_home_node);
    if (home == NULL) return -1;
    int numa = dtrue(core_d, c->core, S.n__numa);
    int remote = 0;
    if (numa > 0 && home != Py_None) {
        PyObject *node = dget(core_d, c->core, S.n__numa_node);
        remote = node ? PyObject_RichCompareBool(home, node, Py_NE) : -1;
        Py_XDECREF(node);
    }
    Py_DECREF(home);
    if (numa < 0 || remote < 0) return -1;
    if (remote) {
        double slow;
        if (dget_dbl(core_d, c->core, S.n__numa_remote_slowdown, &slow) < 0)
            return -1;
        rate /= slow;
    }
    double mi;
    int tracked = mem_tracked(c, task, task_d, &mi);
    if (tracked < 0) return -1;
    if (tracked) {
        /* the maintained scope index, summed in cid order */
        double co = 0.0;
        PyObject *busy = c->mem_busy;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(busy); i++) {
            PyObject *e = PyList_GET_ITEM(busy, i);
            long long cid = PyLong_AsLongLong(PyTuple_GET_ITEM(e, 0));
            double intensity;
            if (cid == -1 && PyErr_Occurred()) return -1;
            if (cid != c->cid) {
                if (as_dbl(PyTuple_GET_ITEM(e, 1), &intensity) < 0) return -1;
                co += intensity;
            }
        }
        double alpha;
        if (dget_dbl(core_d, c->core, S.n__mem_alpha, &alpha) < 0) return -1;
        rate /= 1.0 + mi * alpha * co;
    }
    *out = rate;
    return 0;
}

/* math.ceil(x) as a long long, raising what Python would for values it
 * cannot represent */
static int ceil_ll(double x, long long *out) {
    double r = ceil(x);
    if (r >= -9.2e18 && r <= 9.2e18) {
        *out = (long long)r;
        return 0;
    }
    PyObject *f = PyFloat_FromDouble(x);
    PyObject *i = f ? PyObject_CallMethodNoArgs(f, S.n___ceil__) : NULL;
    Py_XDECREF(f);
    if (i == NULL) return -1;
    *out = PyLong_AsLongLong(i);
    Py_DECREF(i);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* CoreSim._run_duration(task) under plain CfsParams; ``rate`` is the
 * _rate_at_dispatch just stored */
static int run_duration(core_ctx *c, PyObject *task, PyObject *task_d,
                        double rate, long long *out) {
    long long rq_count, weight, rq_weight, min_gran, target_lat;
    if (dget_ll(c->rq_d, c->rq, S.n_count, &rq_count) < 0 ||
        dget_ll(task_d, task, S.n_weight, &weight) < 0 ||
        dget_ll(c->rq_d, c->rq, S.n__total_weight, &rq_weight) < 0 ||
        aget_ll(c->params, S.n_min_granularity, &min_gran) < 0 ||
        aget_ll(c->params, S.n_target_latency, &target_lat) < 0)
        return -1;
    long long nr = rq_count + 1;
    long long total_weight = rq_weight + weight;
    long long scaled = nr * min_gran;
    long long period = target_lat;
    if (scaled > period) period = scaled;
    long long slice_us;
    /* int(period * weight / total_weight): Python divides two ints
     * exactly representable as doubles in double arithmetic, so this
     * matches while the product stays under 2**53 (always, for sane
     * configs); fall back to PyLong arithmetic beyond that */
    if (weight > 0 && period < (1LL << 53) / weight) {
        slice_us = (long long)(((double)period * (double)weight) /
                               (double)total_weight);
    } else {
        PyObject *p = PyLong_FromLongLong(period);
        PyObject *w = p ? PyLong_FromLongLong(weight) : NULL;
        PyObject *tw = w ? PyLong_FromLongLong(total_weight) : NULL;
        PyObject *prod = tw ? PyNumber_Multiply(p, w) : NULL;
        PyObject *quot = prod ? PyNumber_TrueDivide(prod, tw) : NULL;
        Py_XDECREF(p);
        Py_XDECREF(w);
        Py_XDECREF(tw);
        Py_XDECREF(prod);
        if (quot == NULL) return -1;
        slice_us = (long long)PyFloat_AsDouble(quot);
        Py_DECREF(quot);
        if (PyErr_Occurred()) return -1;
    }
    if (slice_us < min_gran) slice_us = min_gran;

    int idle_wait = dnone(task_d, task, S.n_waiting_on);
    if (idle_wait < 0) return -1;
    if (!idle_wait) { /* task.waiting_on is not None */
        long long run_for = slice_us;
        int is_yield = dis(task_d, task, S.n_wait_mode, S.wm_yield);
        if (is_yield < 0) return -1;
        if (is_yield && rq_count > 0) {
            long long ycheck;
            if (dget_ll(c->core_d, c->core, S.n_yield_check_us, &ycheck) < 0)
                return -1;
            if (ycheck < run_for) run_for = ycheck;
        }
        PyObject *deadline = dget(task_d, task, S.n_spin_deadline);
        if (deadline == NULL) return -1;
        if (deadline != Py_None) {
            long long dl = PyLong_AsLongLong(deadline);
            Py_DECREF(deadline);
            if (dl == -1 && PyErr_Occurred()) return -1;
            long long margin = dl - c->now;
            if (margin < 1) margin = 1;
            if (margin < run_for) run_for = margin;
        } else {
            Py_DECREF(deadline);
        }
        *out = run_for;
        return 0;
    }
    double md, wr;
    if (dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0 ||
        dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0)
        return -1;
    if (rate == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    long long ceiled;
    if (ceil_ll(md + wr / rate - 1e-9, &ceiled) < 0) return -1;
    *out = (ceiled < slice_us) ? ceiled : slice_us;
    return 0;
}

/* ``self._gen += 1; self._event = self.engine.schedule(delay,
 * self._on_core_event, self._event_label, self._gen)`` with
 * Engine.schedule inlined (delay >= 1, so its past-time guard cannot
 * fire) */
static int schedule_core_event(core_ctx *c, long long delay) {
    int rc = -1;
    PyObject *gen = NULL, *time_obj = NULL, *seq = NULL, *cb = NULL;
    PyObject *label = NULL, *ev = NULL, *entry = NULL, *heap = NULL;
    long long g, seq_ll;
    if (dget_ll(c->core_d, c->core, S.n__gen, &g) < 0 ||
        (gen = PyLong_FromLongLong(g + 1)) == NULL ||
        dset(c->core_d, S.n__gen, gen) < 0)
        goto done;
    if (dget_ll(c->engine_d, c->engine, S.n__seq, &seq_ll) < 0 ||
        (time_obj = PyLong_FromLongLong(c->now + delay)) == NULL ||
        (seq = PyLong_FromLongLong(seq_ll)) == NULL ||
        (cb = PyMethod_New(S.on_core_event, c->core)) == NULL ||
        (label = dget(c->core_d, c->core, S.n__event_label)) == NULL ||
        (ev = event_new(time_obj, seq, cb, label, c->engine, gen)) == NULL)
        goto done;
    if (dset_ll(c->engine_d, S.n__seq, seq_ll + 1) < 0 ||
        (entry = PyTuple_Pack(3, time_obj, seq, ev)) == NULL ||
        (heap = dget(c->engine_d, c->engine, S.n__heap)) == NULL ||
        heappush_c(heap, entry, lt_event) < 0 ||
        dset(c->core_d, S.n__event, ev) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(gen);
    Py_XDECREF(time_obj);
    Py_XDECREF(seq);
    Py_XDECREF(cb);
    Py_XDECREF(label);
    Py_XDECREF(ev);
    Py_XDECREF(entry);
    Py_XDECREF(heap);
    return rc;
}

/* the shared tail of CoreSim._start and _redispatch's fast path:
 * resample the rate, size the slice, schedule its end, tell the SMT
 * sibling */
static int begin_slice(core_ctx *c, PyObject *task, PyObject *task_d) {
    double rate;
    long long run_for;
    if (effective_rate(c, task, task_d, &rate) < 0 ||
        dset_dbl(c->core_d, S.n__rate_at_dispatch, rate) < 0 ||
        run_duration(c, task, task_d, rate, &run_for) < 0 ||
        schedule_core_event(c, run_for > 1 ? run_for : 1) < 0)
        return -1;
    int smt_active = dtrue(c->core_d, c->core, S.n__smt_active);
    if (smt_active <= 0) return smt_active;
    return call_method0(c->core, S.n__notify_sibling_rate_change);
}

/* CoreSim._start(task) */
static int start(core_ctx *c, PyObject *task, PyObject *task_d) {
    if (dset(task_d, S.n_state, S.st_running) < 0 ||
        dset(task_d, S.n_cur_core, c->cid_obj) < 0 ||
        dset(c->core_d, S.n_current, task) < 0 ||
        mem_note_on(c, task, task_d) < 0 ||
        dset(c->core_d, S.n_dispatch_started_at, c->t_obj) < 0 ||
        dadd_ll(c->stats_d, c->stats, S.n_dispatches, 1) < 0)
        return -1;
    return begin_slice(c, task, task_d);
}

/* Event.cancel(), inlined for exact Events */
static int event_cancel(PyObject *ev) {
    if ((PyObject *)Py_TYPE(ev) != S.EventClass)
        return call_method0(ev, S.n_cancel);
    if (EV_SLOT(ev, EV_CANCELLED) == Py_True) return 0;
    int cancelled = ev_true(ev, EV_CANCELLED, S.n_cancelled);
    if (cancelled != 0) return cancelled < 0 ? -1 : 0;
    if (ev_write(ev, EV_CANCELLED, S.n_cancelled, Py_True) < 0) return -1;
    PyObject *eng = EV_SLOT(ev, EV_ENGINE);
    if (eng == NULL || eng == Py_None) return 0;
    int in_heap = ev_true(ev, EV_IN_HEAP, S.n_in_heap);
    if (in_heap <= 0) return in_heap;
    return call_method0(eng, S.n__note_cancel);
}

/* CoreSim._cancel_event() */
static int cancel_event(core_ctx *c) {
    PyObject *ev = dget(c->core_d, c->core, S.n__event);
    if (ev == NULL) return -1;
    if (ev != Py_None) {
        int rc = event_cancel(ev);
        if (rc < 0 || dset(c->core_d, S.n__event, Py_None) < 0) {
            Py_DECREF(ev);
            return -1;
        }
    }
    Py_DECREF(ev);
    return dadd_ll(c->core_d, c->core, S.n__gen, 1);
}

/* ``not task.needs_advance and (task.work_remaining > _WORK_EPS or
 * task.migration_debt_us > _WORK_EPS)``: 1/0, -1 on error */
static int has_cpu_work(PyObject *task, PyObject *task_d) {
    int na = dtrue(task_d, task, S.n_needs_advance);
    if (na != 0) return na < 0 ? -1 : 0;
    double wr, md;
    if (dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0) return -1;
    if (wr > S.work_eps) return 1;
    if (dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0) return -1;
    return md > S.work_eps;
}

/* ``task.waiting_on is not None or has_cpu_work(task)``: _prepare's
 * immediate-True cases */
static int ready_to_run(PyObject *task, PyObject *task_d) {
    int not_waiting = dnone(task_d, task, S.n_waiting_on);
    if (not_waiting <= 0) return not_waiting < 0 ? -1 : 1;
    return has_cpu_work(task, task_d);
}

/* the pick loop of CoreSim._dispatch_next; *out is the task to start
 * (new ref) or NULL when the core went genuinely idle */
static int pick_next(core_ctx *c, PyObject **out) {
    *out = NULL;
    for (;;) {
        PyObject *task;
        if (rq_pop_min(c, &task) < 0) return -1;
        if (task == NULL) {
            if (call_method0(c->core, S.n__go_idle) < 0) return -1;
            long long count;
            if (dget_ll(c->rq_d, c->rq, S.n_count, &count) < 0) return -1;
            if (count == 0) return 0; /* genuinely idle */
            continue;                 /* idle balance pulled something */
        }
        PyObject *task_d = idict(task);
        int throttled = task_d ? dtrue(task_d, task, S.n_throttled) : -1;
        int rc = -1;
        if (throttled > 0) {
            /* parked off the queue: nr_running really dropped */
            PyObject *parked = dget(c->core_d, c->core, S.n_throttled);
            if (parked != NULL && cell_add(c->load_epoch, 1) == 0 &&
                PyList_Append(parked, task) == 0)
                rc = 1; /* pick again */
            Py_XDECREF(parked);
        } else if (throttled == 0) {
            int ready = ready_to_run(task, task_d);
            if (ready > 0) {
                rc = 0;
            } else if (ready == 0) {
                PyObject *r = PyObject_CallMethodOneArg(c->core, S.n__prepare,
                                                        task);
                int prepared = r ? PyObject_IsTrue(r) : -1;
                Py_XDECREF(r);
                if (prepared > 0)
                    rc = 0;
                else if (prepared == 0 && cell_add(c->load_epoch, 1) == 0)
                    rc = 1; /* slept or exited during prepare */
            }
        }
        Py_XDECREF(task_d);
        if (rc == 0) {
            *out = task;
            return 0;
        }
        Py_DECREF(task);
        if (rc < 0) return -1;
    }
}

/* CoreSim._dispatch_next() */
static int dispatch_next(core_ctx *c) {
    if (cancel_event(c) < 0 || dset(c->core_d, S.n__in_resched, Py_True) < 0)
        return -1;
    PyObject *task;
    int rc = pick_next(c, &task);
    /* the Python twin's try/finally: restore even while raising */
    PyObject *et, *ev, *tb;
    PyErr_Fetch(&et, &ev, &tb);
    int frc = dset(c->core_d, S.n__in_resched, Py_False);
    if (et != NULL) {
        PyErr_Restore(et, ev, tb);
        return -1;
    }
    if (frc < 0 || rc < 0) {
        Py_XDECREF(task);
        return -1;
    }
    if (task == NULL) return 0;
    PyObject *task_d = idict(task);
    rc = task_d ? start(c, task, task_d) : -1;
    Py_XDECREF(task_d);
    Py_DECREF(task);
    return rc;
}

/* CoreSim._put_back_current() */
static int put_back_current(core_ctx *c) {
    PyObject *task = dget(c->core_d, c->core, S.n_current);
    if (task == NULL) return -1;
    if (task == Py_None) {
        Py_DECREF(task);
        return 0;
    }
    int rc = -1;
    PyObject *task_d = idict(task);
    if (task_d == NULL || dset(c->core_d, S.n_current, Py_None) < 0 ||
        mem_note_off(c, task, task_d) < 0 ||
        dset(task_d, S.n_last_descheduled_at, c->t_obj) < 0 ||
        dset(task_d, S.n_last_core, c->cid_obj) < 0 ||
        dadd_ll(c->stats_d, c->stats, S.n_context_switches, 1) < 0)
        goto done;
    int running = dis(task_d, task, S.n_state, S.st_running);
    if (running < 0) goto done;
    if (!running) {
        /* already slept/exited/migrated under us: nr_running dropped */
        rc = cell_add(c->load_epoch, 1);
        goto done;
    }
    if (dset(task_d, S.n_state, S.st_runnable) < 0) goto done;
    int throttled = dtrue(task_d, task, S.n_throttled);
    if (throttled < 0) goto done;
    if (throttled) {
        PyObject *parked = dget(c->core_d, c->core, S.n_throttled);
        if (parked != NULL && cell_add(c->load_epoch, 1) == 0 &&
            PyList_Append(parked, task) == 0)
            rc = 0;
        Py_XDECREF(parked);
    } else {
        /* requeue of the running task: load-neutral, no epoch bump */
        rc = rq_push(c, task, task_d);
    }
done:
    Py_XDECREF(task_d);
    Py_DECREF(task);
    return rc;
}

/* CoreSim._redispatch(task) */
static int redispatch(core_ctx *c, PyObject *task, PyObject *task_d) {
    long long count;
    if (dget_ll(c->rq_d, c->rq, S.n_count, &count) < 0) return -1;
    int lone = (count == 0);
    if (lone) {
        int throttled = dtrue(task_d, task, S.n_throttled);
        if (throttled < 0) return -1;
        lone = !throttled;
    }
    if (lone) {
        lone = dis(task_d, task, S.n_state, S.st_running);
        if (lone < 0) return -1;
    }
    if (lone) {
        lone = ready_to_run(task, task_d);
        if (lone < 0) return -1;
    }
    if (lone) {
        /* lone-task fast path: the queue round trip is an identity */
        if (dset(task_d, S.n_last_descheduled_at, c->t_obj) < 0 ||
            dset(task_d, S.n_last_core, c->cid_obj) < 0 ||
            dadd_ll(c->stats_d, c->stats, S.n_context_switches, 1) < 0 ||
            dadd_ll(c->stats_d, c->stats, S.n_dispatches, 1) < 0)
            return -1;
        return begin_slice(c, task, task_d);
    }
    if (put_back_current(c) < 0) return -1;
    return dispatch_next(c);
}

/* the KMP_BLOCKTIME branch of CoreSim._on_core_event: the spinning
 * waiter goes to sleep */
static int spin_expired(core_ctx *c, PyObject *task, PyObject *task_d,
                        PyObject *barrier) {
    if (dset(c->core_d, S.n_current, Py_None) < 0 ||
        cell_add(c->load_epoch, 1) < 0 ||
        mem_note_off(c, task, task_d) < 0 ||
        dset(task_d, S.n_last_descheduled_at, c->t_obj) < 0 ||
        dset(task_d, S.n_last_core, c->cid_obj) < 0)
        return -1;
    PyObject *args[3] = {barrier, task, c->t_obj};
    PyObject *r = PyObject_VectorcallMethod(
        S.n_spin_timeout, args, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL) return -1;
    Py_DECREF(r);
    if (call_method1(c->system, S.n_note_residency, task) < 0) return -1;
    return dispatch_next(c);
}

/* CoreSim._on_core_event(gen), after the superseded check */
static int on_core_event(core_ctx *c, PyObject *task, PyObject *task_d) {
    if (charge_current(c, task, task_d) < 0) return -1;
    PyObject *barrier = dget(task_d, task, S.n_waiting_on);
    if (barrier == NULL) return -1;
    int rc = -1;
    if (barrier != Py_None) {
        PyObject *deadline = dget(task_d, task, S.n_spin_deadline);
        if (deadline == NULL) goto done;
        if (deadline != Py_None) {
            long long dl = PyLong_AsLongLong(deadline);
            Py_DECREF(deadline);
            if (dl == -1 && PyErr_Occurred()) goto done;
            if (c->now >= dl) {
                rc = spin_expired(c, task, task_d, barrier);
                goto done;
            }
        } else {
            Py_DECREF(deadline);
        }
        int is_yield = dis(task_d, task, S.n_wait_mode, S.wm_yield);
        if (is_yield < 0) goto done;
        if (is_yield) {
            /* sched_yield: move past the rightmost task and requeue */
            double vr, mv, penalty;
            PyObject *mv_obj = rq_max_vruntime(c);
            if (mv_obj == NULL) goto done;
            int frc = as_dbl(mv_obj, &mv);
            Py_DECREF(mv_obj);
            if (frc < 0 || dget_dbl(task_d, task, S.n_vruntime, &vr) < 0 ||
                aget_dbl(c->params, S.n_yield_penalty, &penalty) < 0 ||
                dset_dbl(task_d, S.n_vruntime,
                         ((mv > vr) ? mv : vr) + penalty) < 0)
                goto done;
        }
    } else {
        double wr, md;
        if (dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0 ||
            dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0)
            goto done;
        if (wr <= S.work_eps && md <= S.work_eps) {
            if (dset_dbl(task_d, S.n_work_remaining, 0.0) < 0 ||
                dset(task_d, S.n_needs_advance, Py_True) < 0)
                goto done;
        }
    }
    rc = redispatch(c, task, task_d);
done:
    Py_DECREF(barrier);
    return rc;
}

/* Dispatch one CoreSim._on_core_event(gen) event: the C twin for CFS
 * run queues with plain CfsParams, the Python method otherwise. */
static int core_event(PyObject *cb, PyObject *gen, PyObject *engine,
                      PyObject *engine_d, PyObject *t_obj, long long t) {
    core_ctx c = {0};
    c.engine = engine;
    c.engine_d = engine_d;
    c.t_obj = t_obj;
    c.now = t;
    int rc = -1;
    if (ctx_init(&c, PyMethod_GET_SELF(cb)) < 0) goto done;
    if (!ctx_is_cfs(&c)) {
        stat_delegated++;
        PyObject *r = PyObject_CallOneArg(cb, gen);
        if (r != NULL) {
            Py_DECREF(r);
            rc = 0;
        }
        goto done;
    }
    stat_fused++;
    /* if gen != self._gen or self.current is None: return */
    PyObject *self_gen = dget(c.core_d, c.core, S.n__gen);
    if (self_gen == NULL) goto done;
    int same = PyObject_RichCompareBool(gen, self_gen, Py_EQ);
    Py_DECREF(self_gen);
    if (same <= 0) {
        rc = same;
        goto done;
    }
    PyObject *task = dget(c.core_d, c.core, S.n_current);
    if (task == NULL) goto done;
    if (task != Py_None) {
        PyObject *task_d = idict(task);
        if (task_d != NULL && ctx_init_dicts(&c) == 0)
            rc = on_core_event(&c, task, task_d);
        Py_XDECREF(task_d);
    } else {
        rc = 0; /* superseded */
    }
    Py_DECREF(task);
done:
    ctx_clear(&c);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the drain loop (C twin of Engine._drain, single=False)              */
/* ------------------------------------------------------------------ */

/* ev.callback(ev.payload) or ev.callback() */
static int dispatch_event(PyObject *ev, PyObject *engine, PyObject *engine_d,
                          PyObject *t_obj, long long t) {
    PyObject *cb = ev_read(ev, EV_CALLBACK, S.n_callback);
    if (cb == NULL) return -1;
    PyObject *payload = ev_read(ev, EV_PAYLOAD, S.n_payload);
    if (payload == NULL) {
        Py_DECREF(cb);
        return -1;
    }
    int rc;
    if (payload != Py_None && PyMethod_Check(cb) &&
        PyMethod_GET_FUNCTION(cb) == S.on_core_event) {
        rc = core_event(cb, payload, engine, engine_d, t_obj, t);
    } else {
        stat_generic++;
        PyObject *r = (payload == Py_None) ? PyObject_CallNoArgs(cb)
                                           : PyObject_CallOneArg(cb, payload);
        rc = r ? 0 : -1;
        Py_XDECREF(r);
    }
    Py_DECREF(payload);
    Py_DECREF(cb);
    return rc;
}

/* run every engine observer on ``ev`` */
static int notify_observers(PyObject *observers, PyObject *ev) {
    PyObject *it = PyObject_GetIter(observers);
    if (it == NULL) return -1;
    PyObject *obs;
    while ((obs = PyIter_Next(it)) != NULL) {
        PyObject *r = PyObject_CallOneArg(obs, ev);
        Py_DECREF(obs);
        if (r == NULL) break;
        Py_DECREF(r);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

/* One pass of the drain loop over the head entry ``entry`` (popped here
 * when it is dispatched or purged).  Returns 1 if an event was
 * dispatched, 0 if a cancelled entry was purged, 2 if the head lies
 * past ``until``, -1 on error. */
static int drain_one(PyObject *engine, PyObject *engine_d, PyObject *heap,
                     PyObject *observers, PyObject *entry, int have_until,
                     long long until, long long limit) {
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "engine heap entries must be (time, seq, event)");
        return -1;
    }
    PyObject *t_obj = PyTuple_GET_ITEM(entry, 0);
    PyObject *ev = PyTuple_GET_ITEM(entry, 2);
    int cancelled = ev_true(ev, EV_CANCELLED, S.n_cancelled);
    if (cancelled < 0) return -1;
    if (cancelled) {
        PyObject *dead = heappop_c(heap, lt_event);
        if (dead == NULL) return -1;
        Py_DECREF(dead);
        if (ev_write(ev, EV_IN_HEAP, S.n_in_heap, Py_False) < 0) return -1;
        PyObject *owner = ev_read(ev, EV_ENGINE, S.n_engine);
        if (owner == NULL) return -1;
        int owned = (owner != Py_None);
        Py_DECREF(owner);
        if (owned && dadd_ll(engine_d, engine, S.n__cancelled, -1) < 0)
            return -1;
        return 0;
    }
    long long t = PyLong_AsLongLong(t_obj);
    if (t == -1 && PyErr_Occurred()) return -1;
    if (have_until && t > until) return 2;
    PyObject *popped = heappop_c(heap, lt_event);
    if (popped == NULL) return -1;
    Py_DECREF(popped);
    if (ev_write(ev, EV_IN_HEAP, S.n_in_heap, Py_False) < 0) return -1;
    int have_observers = PyObject_IsTrue(observers);
    if (have_observers < 0) return -1;
    if (have_observers && notify_observers(observers, ev) < 0) return -1;
    long long engine_now, d;
    if (dget_ll(engine_d, engine, S.n_now, &engine_now) < 0) return -1;
    if (t < engine_now) { /* defensive, mirrors Python */
        PyErr_SetString(S.SimulationError, "event queue time went backwards");
        return -1;
    }
    if (dset(engine_d, S.n_now, t_obj) < 0 ||
        dget_ll(engine_d, engine, S.n__dispatched, &d) < 0 ||
        dset_ll(engine_d, S.n__dispatched, d + 1) < 0)
        return -1;
    if (d + 1 > limit) {
        PyObject *lbl = ev_read(ev, EV_LABEL, S.n_label);
        if (lbl != NULL) {
            PyErr_Format(S.SimulationError,
                         "event limit exceeded (%lld); likely livelock near "
                         "t=%lld (last: %R)",
                         limit, t, lbl);
            Py_DECREF(lbl);
        }
        return -1;
    }
    if (dispatch_event(ev, engine, engine_d, t_obj, t) < 0) return -1;
    return 1;
}

/* returns 1 if at least one event dispatched, 0 if none, -1 on error */
long long repro_drain(PyObject *engine, PyObject *until_obj) {
    if (!S_ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "native engine core not initialised");
        return -1;
    }
    long long rc = -1;
    PyObject *heap = NULL, *observers = NULL;
    PyObject *engine_d = idict(engine);
    if (engine_d == NULL) return -1;
    /* aliases, not copies: Engine._compact rewrites the heap in place
     * and callbacks may edit the observer list, so both are re-read
     * through the list object on every pass */
    if ((heap = dget(engine_d, engine, S.n__heap)) == NULL ||
        (observers = dget(engine_d, engine, S.n_observers)) == NULL)
        goto done;
    if (!PyList_Check(heap)) {
        PyErr_SetString(PyExc_TypeError, "engine heap must be a list");
        goto done;
    }
    long long limit;
    if (dget_ll(engine_d, engine, S.n_max_events, &limit) < 0) goto done;
    int have_until = (until_obj != Py_None);
    long long until = 0;
    if (have_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred()) goto done;
    }
    long long dispatched_any = 0;
    unsigned long long passes = 0;
    while (PyList_GET_SIZE(heap) > 0) {
        int stop = dtrue(engine_d, engine, S.n__stop_requested);
        if (stop < 0) goto done;
        if (stop) break;
        PyObject *entry = PyList_GET_ITEM(heap, 0);
        Py_INCREF(entry); /* keeps t_obj and ev alive through dispatch */
        int step = drain_one(engine, engine_d, heap, observers, entry,
                             have_until, until, limit);
        Py_DECREF(entry);
        if (step < 0) goto done;
        if (step == 2) break;
        if (step == 1) dispatched_any = 1;
        if (((++passes) & 4095) == 0 && PyErr_CheckSignals() < 0) goto done;
    }
    rc = dispatched_any;
done:
    Py_XDECREF(heap);
    Py_XDECREF(observers);
    Py_DECREF(engine_d);
    return rc;
}

/* ------------------------------------------------------------------ */
/* initialisation                                                      */
/* ------------------------------------------------------------------ */

/* the binding module checks this against its expected value so a stale
 * cached artifact from an older source revision is never used */
long long repro_native_abi(void) { return 2; }

/* dispatch-path counters: 0 = core event in the C twin, 1 = generic
 * Python call, 2 = core event delegated to the Python method; anything
 * else = -1 */
long long repro_native_stat(long long which) {
    switch (which) {
    case 0: return stat_fused;
    case 1: return stat_generic;
    case 2: return stat_delegated;
    default: return -1;
    }
}

/* resolve the Event __slots__ member offsets from the class's slot
 * descriptors; refuses anything that is not a real member descriptor
 * so a future Event redesign fails loudly here instead of corrupting
 * memory */
static int resolve_ev_slots(void) {
    static const char *names[EV_NSLOTS] = {
        "time", "seq", "callback", "cancelled",
        "label", "engine", "in_heap", "payload",
    };
    for (int i = 0; i < EV_NSLOTS; i++) {
        PyObject *d = PyObject_GetAttrString(S.EventClass, names[i]);
        if (d == NULL) return -1;
        if (!PyObject_TypeCheck(d, &PyMemberDescr_Type)) {
            Py_DECREF(d);
            PyErr_Format(PyExc_TypeError,
                         "Event.%s is not a slot descriptor", names[i]);
            return -1;
        }
        ev_off[i] = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_DECREF(d);
    }
    return 0;
}

static PyObject *take(PyObject *support, const char *key) {
    PyObject *v = PyDict_GetItemString(support, key); /* borrowed */
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "native support dict missing %s", key);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

long long repro_native_init(PyObject *support) {
    if (S_ready) return 0;
    if (!PyDict_Check(support)) {
        PyErr_SetString(PyExc_TypeError, "support must be a dict");
        return -1;
    }
#define X(n)                                                                \
    S.n_##n = PyUnicode_InternFromString(#n);                               \
    if (S.n_##n == NULL) return -1;
    ATTR_NAMES(X)
#undef X
    if ((S.SimulationError = take(support, "SimulationError")) == NULL ||
        (S.EventClass = take(support, "Event")) == NULL ||
        (S.on_core_event = take(support, "on_core_event")) == NULL ||
        (S.CfsParams = take(support, "CfsParams")) == NULL ||
        (S.CfsRunQueue = take(support, "CfsRunQueue")) == NULL ||
        (S.st_running = take(support, "RUNNING")) == NULL ||
        (S.st_runnable = take(support, "RUNNABLE")) == NULL ||
        (S.wm_yield = take(support, "YIELD")) == NULL ||
        (S.entry_counter = take(support, "entry_counter")) == NULL)
        return -1;
    if (resolve_ev_slots() < 0) return -1;
    PyObject *eps = PyDict_GetItemString(support, "WORK_EPS");
    PyObject *nice0 = PyDict_GetItemString(support, "NICE_0_WEIGHT");
    if (eps == NULL || nice0 == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "native support dict missing WORK_EPS/NICE_0_WEIGHT");
        return -1;
    }
    PyObject *cf = PyDict_GetItemString(support, "COMPACT_FACTOR");
    PyObject *cm = PyDict_GetItemString(support, "COMPACT_MIN");
    if (cf == NULL || cm == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "native support dict missing COMPACT_FACTOR/MIN");
        return -1;
    }
    S.work_eps = PyFloat_AsDouble(eps);
    S.nice0 = PyFloat_AsDouble(nice0);
    S.compact_factor = PyLong_AsLongLong(cf);
    S.compact_min = PyLong_AsLongLong(cm);
    if (PyErr_Occurred()) return -1;
    S.str_wait = PyUnicode_InternFromString("wait");
    S.str_run = PyUnicode_InternFromString("run");
    if (S.str_wait == NULL || S.str_run == NULL) return -1;
    S_ready = 1;
    return 0;
}
