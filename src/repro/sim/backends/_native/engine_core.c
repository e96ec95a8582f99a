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
 * (time, seq, event) heap list, the run queue's sorted entry list, and the
 * __slots__ fields of the engine, cores, tasks, run queues, stats,
 * system and CFS params) through the CPython C-API.  Each function below
 * is the twin of the Python method it is named after and performs the
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
 * (exception class, the slotted classes, enum members, interned
 * constants) and the entry points take plain PyObject pointers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* completes PyMemberDef for slot offsets */
#include <math.h>

/* ------------------------------------------------------------------ */
/* the slot table                                                      */
/* ------------------------------------------------------------------ */

/* Every field the C twin reads or writes, as (class, name).  Each class
 * declares __slots__; repro_native_init resolves every name to its
 * member offset once (resolve_slots), so a field access below is a
 * struct load or store.  A field added to a class's Python twin and
 * touched here must be added to both the class's __slots__ and this
 * table. */
#define SLOT_TABLE(X)                                                       \
    X(EN, now) X(EN, _heap) X(EN, _seq) X(EN, _dispatched)                  \
    X(EN, _cancelled) X(EN, max_events) X(EN, _stop_requested)              \
    X(EN, observers)                                                        \
    X(EV, time) X(EV, seq) X(EV, callback) X(EV, cancelled) X(EV, label)    \
    X(EV, engine) X(EV, in_heap) X(EV, payload)                             \
    X(CO, system) X(CO, hw) X(CO, cid) X(CO, params) X(CO, rq)              \
    X(CO, current) X(CO, dispatch_started_at) X(CO, stats)                  \
    X(CO, throttled) X(CO, _event) X(CO, _gen) X(CO, _in_resched)           \
    X(CO, _rate_at_dispatch) X(CO, yield_check_us) X(CO, _mem_track)        \
    X(CO, _mem_busy) X(CO, _load_epoch) X(CO, _clock_factor)                \
    X(CO, _numa_node) X(CO, _numa) X(CO, _numa_remote_slowdown)             \
    X(CO, _smt_derate) X(CO, _mem_alpha) X(CO, _smt_active)                 \
    X(CO, _sib_core) X(CO, _event_label)                                    \
    X(TK, tid) X(TK, name) X(TK, weight) X(TK, vruntime) X(TK, exec_us)     \
    X(TK, compute_us) X(TK, work_remaining) X(TK, migration_debt_us)        \
    X(TK, waiting_on) X(TK, wait_mode) X(TK, spin_deadline) X(TK, state)    \
    X(TK, needs_advance) X(TK, mem_intensity) X(TK, home_node)              \
    X(TK, last_descheduled_at) X(TK, last_core) X(TK, cur_core)             \
    X(TK, throttled)                                                        \
    X(RQ, _live) X(RQ, _queue) X(RQ, _total_weight) X(RQ, count)            \
    X(RQ, min_vruntime)                                                     \
    X(ST, busy_us) X(ST, spin_us) X(ST, context_switches)                   \
    X(ST, dispatches)                                                       \
    X(SY, trace) X(SY, _kb_on_charge) X(SY, charge_observers) X(SY, cores)  \
    X(PA, min_granularity) X(PA, target_latency) X(PA, yield_penalty)

/* the slotted classes, in the order of CLASS_KEYS */
enum { CLS_EN, CLS_EV, CLS_CO, CLS_TK, CLS_RQ, CLS_ST, CLS_SY, CLS_PA,
       N_CLASSES };

/* their keys in the support dict */
static const char *const CLASS_KEYS[N_CLASSES] = {
    "Engine", "Event", "CoreSim", "Task", "CfsRunQueue", "CoreStats",
    "System", "CfsParams",
};

/* one index per table row: EN_now, EV_time, CO_system, TK_tid, ... */
#define SLOT_ENUM(c, n) c##_##n,
enum { SLOT_TABLE(SLOT_ENUM) N_SLOTS };
#undef SLOT_ENUM

#define SLOT_CLASS(c, n) CLS_##c,
static const int slot_class[N_SLOTS] = {SLOT_TABLE(SLOT_CLASS)};
#undef SLOT_CLASS

#define SLOT_NAME(c, n) #n,
static const char *const slot_name[N_SLOTS] = {SLOT_TABLE(SLOT_NAME)};
#undef SLOT_NAME

/* member offsets, resolved by repro_native_init */
static Py_ssize_t slot_off[N_SLOTS];

#define SLOT(o, i) (*(PyObject **)((char *)(o) + slot_off[i]))

/* ------------------------------------------------------------------ */
/* support objects                                                     */
/* ------------------------------------------------------------------ */

/* names still reached through the generic attribute protocol: Event
 * fields of forged/subclassed events, the topology record's sibling id,
 * and the methods the twin calls out to */
#define ATTR_NAMES(X)                                                       \
    X(callback) X(payload) X(cancelled) X(in_heap) X(label) X(engine)       \
    X(smt_sibling)                                                          \
    X(_prepare) X(_go_idle) X(_notify_sibling_rate_change)                  \
    X(note_residency) X(spin_timeout) X(record) X(cancel) X(_note_cancel)  \
    X(__ceil__)

typedef struct {
    /* support objects (owned references, held for process lifetime) */
    PyObject *SimulationError;
    PyObject *on_core_event; /* CoreSim._on_core_event, the function */
    PyObject *cls[N_CLASSES]; /* the slotted classes, by CLS_* */
    PyObject *slot_table;    /* ["Class.field", ...] in table order */
    PyObject *st_running;    /* TaskState.RUNNING */
    PyObject *st_runnable;   /* TaskState.RUNNABLE */
    PyObject *wm_yield;      /* WaitMode.YIELD */
    PyObject *entry_counter; /* runqueue._entry_counter (itertools.count) */
    PyObject *str_wait;      /* "wait" */
    PyObject *str_run;       /* "run" */
    double work_eps;
    double nice0;            /* float(NICE_0_WEIGHT) */
#define X(n) PyObject *n_##n;
    ATTR_NAMES(X)
#undef X
} support_t;

static support_t S;
static int S_ready = 0;

/* process-lifetime dispatch counters, readable via repro_native_stat:
 * how many core events ran through the C twin, how many events took
 * the generic Python call, and how many core events were delegated to
 * the Python method (other run-queue or slice policies, or objects
 * outside the slotted classes).  The test
 * suite uses these to prove the fast path is actually exercised rather
 * than silently falling back. */
static long long stat_fused = 0;
static long long stat_generic = 0;
static long long stat_delegated = 0;

/* ------------------------------------------------------------------ */
/* slot access                                                         */
/*                                                                     */
/* Generic PyObject_GetAttr costs as much as the 3.11 specializing     */
/* interpreter's LOAD_ATTR, which is why a naive C transcription runs  */
/* no faster than the bytecode it replaces.  Every class whose fields  */
/* the dispatch chain touches declares __slots__, so each field lives  */
/* at a fixed offset inside its object.  The offsets are resolved once */
/* from the classes' member descriptors (resolve_slots), and a field   */
/* access is a struct load or store: a write takes a new reference and */
/* releases the old one, exactly as the member descriptor's __set__    */
/* does.  An object is only read this way after an instance check      */
/* against its resolved class (is_a); a core event whose objects fail  */
/* it is handed to the Python method whole.                            */
/* ------------------------------------------------------------------ */

static inline int is_a(PyObject *o, int c) {
    return PyObject_TypeCheck(o, (PyTypeObject *)S.cls[c]);
}

/* TypeError for an object the twin met mid-event that is not an
 * instance of the class it must be read as */
static int not_a(PyObject *o, int c) {
    PyErr_Format(PyExc_TypeError,
                 "native engine core: expected a %s, got %.100s",
                 CLASS_KEYS[c], Py_TYPE(o)->tp_name);
    return -1;
}

/* borrowed value of slot ``i``, or NULL with AttributeError set when
 * the slot is unset (what reading it from Python raises) */
static inline PyObject *speek(PyObject *o, int i) {
    PyObject *v = SLOT(o, i);
    if (v == NULL)
        PyErr_Format(PyExc_AttributeError,
                     "'%.100s' object has no attribute '%s'",
                     Py_TYPE(o)->tp_name, slot_name[i]);
    return v;
}

/* new reference */
static inline PyObject *sget(PyObject *o, int i) {
    PyObject *v = speek(o, i);
    Py_XINCREF(v);
    return v;
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

static int sget_ll(PyObject *o, int i, long long *out) {
    PyObject *v = speek(o, i);
    if (v == NULL) return -1;
    long long r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

static int sget_dbl(PyObject *o, int i, double *out) {
    PyObject *v = speek(o, i);
    if (v == NULL) return -1;
    return as_dbl(v, out);
}

/* truthiness of a slot: 1/0, or -1 with error set */
static int strue(PyObject *o, int i) {
    PyObject *v = speek(o, i);
    if (v == NULL) return -1;
    if (v == Py_True) return 1;
    if (v == Py_False || v == Py_None) return 0;
    Py_INCREF(v); /* __bool__ may rebind the slot */
    int rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
}

/* 1 iff the slot holds the object ``want`` (None, enum members), 0 if
 * not, -1 with error set */
static int sis(PyObject *o, int i, PyObject *want) {
    PyObject *v = speek(o, i);
    if (v == NULL) return -1;
    return v == want;
}

/* store ``v`` (borrowed) in slot ``i``; cannot fail, returns 0 so it
 * chains with the fallible accessors */
static inline int sset(PyObject *o, int i, PyObject *v) {
    PyObject *old = SLOT(o, i);
    Py_INCREF(v);
    SLOT(o, i) = v;
    Py_XDECREF(old);
    return 0;
}

/* store a new reference, releasing the old one */
static int ssteal(PyObject *o, int i, PyObject *v) {
    if (v == NULL) return -1;
    PyObject *old = SLOT(o, i);
    SLOT(o, i) = v;
    Py_XDECREF(old);
    return 0;
}

static int sset_ll(PyObject *o, int i, long long v) {
    return ssteal(o, i, PyLong_FromLongLong(v));
}

static int sset_dbl(PyObject *o, int i, double v) {
    return ssteal(o, i, PyFloat_FromDouble(v));
}

/* o.<slot> += delta on an int field */
static int sadd_ll(PyObject *o, int i, long long delta) {
    long long v;
    if (sget_ll(o, i, &v) < 0) return -1;
    return sset_ll(o, i, v + delta);
}

/* truthiness of a generic attribute: 1/0, or -1 with error set */
static int atrue(PyObject *o, PyObject *name) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    int rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
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

/* ---- Event access ------------------------------------------------- */

/* Engine-created events are exact Events and read through their slots;
 * subclassed or forged ones go through the attribute protocol. */
static inline int exact_event(PyObject *ev) {
    return (PyObject *)Py_TYPE(ev) == S.cls[CLS_EV];
}

/* new ref */
static PyObject *ev_read(PyObject *ev, int i, PyObject *name) {
    if (exact_event(ev)) {
        PyObject *v = SLOT(ev, i);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(ev, name);
}

/* truthiness of an Event flag slot (cancelled / in_heap) */
static int ev_true(PyObject *ev, int i, PyObject *name) {
    if (exact_event(ev)) {
        PyObject *v = SLOT(ev, i);
        if (v == Py_True) return 1;
        if (v == Py_False || v == Py_None) return 0;
        if (v != NULL) return PyObject_IsTrue(v);
    }
    return atrue(ev, name);
}

static int ev_write(PyObject *ev, int i, PyObject *name, PyObject *v) {
    if (exact_event(ev)) return sset(ev, i, v);
    return PyObject_SetAttr(ev, name, v);
}

/* Event(time, seq, cb, label, engine, payload) without the Python
 * __init__ frame: allocate and fill the slots directly.  Mirrors
 * Event.__init__ exactly -- cancelled=False, in_heap=True (engine is
 * always non-None on this path). */
static PyObject *event_new(PyObject *time_obj, PyObject *seq_obj,
                           PyObject *cb, PyObject *label, PyObject *engine,
                           PyObject *payload) {
    PyTypeObject *tp = (PyTypeObject *)S.cls[CLS_EV];
    PyObject *ev = tp->tp_alloc(tp, 0);
    if (ev == NULL) return NULL;
    sset(ev, EV_time, time_obj);
    sset(ev, EV_seq, seq_obj);
    sset(ev, EV_callback, cb);
    sset(ev, EV_cancelled, Py_False);
    sset(ev, EV_label, label);
    sset(ev, EV_engine, engine);
    sset(ev, EV_in_heap, Py_True);
    sset(ev, EV_payload, payload);
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

/* for the run queue's sorted list: (vruntime, counter, task) entries;
 * the counters are unique, so the comparison never reaches the task */
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

/* The core and the objects its dispatch chain touches, read once per
 * event.  None of these fields is ever rebound on a live System (a
 * CfsRunQueue binds its entry list and tid map once, in __init__, and
 * edits both in place), so holding them across call-outs is safe. */
typedef struct {
    PyObject *engine;            /* borrowed from the drain loop */
    PyObject *t_obj;             /* borrowed: the event time == engine.now */
    long long now;
    PyObject *core;              /* borrowed */
    PyObject *cid_obj;           /* the rest are owned */
    long long cid;
    PyObject *system;
    PyObject *rq;
    PyObject *queue;             /* rq._queue, the sorted entry list */
    PyObject *live;              /* rq._live, tid -> entry */
    PyObject *stats;
    PyObject *params;
    PyObject *load_epoch;
    PyObject *mem_busy;
} core_ctx;

static void ctx_clear(core_ctx *c) {
    Py_CLEAR(c->cid_obj);
    Py_CLEAR(c->system);
    Py_CLEAR(c->rq);
    Py_CLEAR(c->queue);
    Py_CLEAR(c->live);
    Py_CLEAR(c->stats);
    Py_CLEAR(c->params);
    Py_CLEAR(c->load_epoch);
    Py_CLEAR(c->mem_busy);
}

/* Read the core's working set.  Returns 1 when the C twin applies, 0
 * when the event must go to the Python method, -1 on error.  The twin
 * transcribes exactly CfsRunQueue and CfsParams (a subclass may
 * override what it transcribes); the core, its system and stats, and
 * its current task must be instances of the classes whose slots were
 * resolved. */
static int ctx_init(core_ctx *c, PyObject *core) {
    c->core = core;
    if (!is_a(core, CLS_CO)) return 0;
    if ((c->cid_obj = sget(core, CO_cid)) == NULL) return -1;
    c->cid = PyLong_AsLongLong(c->cid_obj);
    if (c->cid == -1 && PyErr_Occurred()) return -1;
    if ((c->system = sget(core, CO_system)) == NULL ||
        (c->rq = sget(core, CO_rq)) == NULL ||
        (c->stats = sget(core, CO_stats)) == NULL ||
        (c->params = sget(core, CO_params)) == NULL ||
        (c->load_epoch = sget(core, CO__load_epoch)) == NULL ||
        (c->mem_busy = sget(core, CO__mem_busy)) == NULL)
        return -1;
    PyObject *current = speek(core, CO_current);
    if (current == NULL) return -1;
    if ((PyObject *)Py_TYPE(c->rq) != S.cls[CLS_RQ] ||
        (PyObject *)Py_TYPE(c->params) != S.cls[CLS_PA] ||
        !is_a(c->system, CLS_SY) || !is_a(c->stats, CLS_ST) ||
        (current != Py_None && !is_a(current, CLS_TK)) ||
        !PyList_Check(c->load_epoch) || !PyList_Check(c->mem_busy))
        return 0;
    if ((c->queue = sget(c->rq, RQ__queue)) == NULL ||
        (c->live = sget(c->rq, RQ__live)) == NULL)
        return -1;
    return PyList_Check(c->queue) && PyDict_Check(c->live);
}

/* ------------------------------------------------------------------ */
/* CfsRunQueue twins                                                   */
/* ------------------------------------------------------------------ */

/* The queue is one list of (vruntime, counter, task) entries in
 * lt_entry order, the order bisect.insort keeps: its front is the
 * leftmost entity, its back the rightmost. */

/* the task of a run-queue entry (borrowed), or NULL with TypeError set
 * when it is not a Task */
static PyObject *entry_task(PyObject *entry) {
    PyObject *task = PyTuple_GET_ITEM(entry, 2);
    if (is_a(task, CLS_TK)) return task;
    not_a(task, CLS_TK);
    return NULL;
}

/* CfsRunQueue.note_current_vruntime(vruntime) */
static int rq_note_current_vruntime(core_ctx *c, PyObject *vr_obj) {
    PyObject *floor = vr_obj; /* borrowed from the caller or the list */
    double dfloor, minvr;
    if (as_dbl(floor, &dfloor) < 0) return -1;
    if (PyList_GET_SIZE(c->queue) > 0) {
        PyObject *e0 = PyTuple_GET_ITEM(PyList_GET_ITEM(c->queue, 0), 0);
        double de0;
        if (as_dbl(e0, &de0) < 0) return -1;
        if (de0 < dfloor) {
            floor = e0;
            dfloor = de0;
        }
    }
    Py_INCREF(floor); /* held until stored */
    int rc = sget_dbl(c->rq, RQ_min_vruntime, &minvr);
    if (rc == 0 && dfloor > minvr) sset(c->rq, RQ_min_vruntime, floor);
    Py_DECREF(floor);
    return rc;
}

/* CfsRunQueue.push(task): the entry goes where bisect.insort puts it */
static int rq_push(core_ctx *c, PyObject *task) {
    int rc = -1;
    PyObject *tid = NULL, *vr = NULL, *cnt = NULL, *entry = NULL;
    if ((tid = sget(task, TK_tid)) == NULL) goto done;
    int queued = PyDict_Contains(c->live, tid);
    if (queued < 0) goto done;
    if (queued) {
        PyErr_Format(PyExc_ValueError, "%S already queued", task);
        goto done;
    }
    if ((vr = sget(task, TK_vruntime)) == NULL ||
        (cnt = PyIter_Next(S.entry_counter)) == NULL ||
        (entry = PyTuple_Pack(3, vr, cnt, task)) == NULL ||
        PyDict_SetItem(c->live, tid, entry) < 0)
        goto done;
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(c->queue);
    while (lo < hi) { /* bisect_right */
        Py_ssize_t mid = (lo + hi) / 2;
        PyObject *item = PyList_GET_ITEM(c->queue, mid);
        Py_INCREF(item);
        int lt = lt_entry(entry, item);
        Py_DECREF(item);
        if (lt < 0) goto done;
        if (lt)
            hi = mid;
        else
            lo = mid + 1;
    }
    long long weight;
    if (PyList_Insert(c->queue, lo, entry) < 0 ||
        sget_ll(task, TK_weight, &weight) < 0 ||
        sadd_ll(c->rq, RQ__total_weight, weight) < 0 ||
        sadd_ll(c->rq, RQ_count, 1) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(tid);
    Py_XDECREF(vr);
    Py_XDECREF(cnt);
    Py_XDECREF(entry);
    return rc;
}

/* CfsRunQueue.pop_min(): *out is a new ref to the task, or NULL when
 * the queue is empty; returns -1 with an error set on failure */
static int rq_pop_min(core_ctx *c, PyObject **out) {
    *out = NULL;
    if (PyList_GET_SIZE(c->queue) == 0) return 0;
    PyObject *task = entry_task(PyList_GET_ITEM(c->queue, 0));
    if (task == NULL) return -1;
    Py_INCREF(task); /* outlives its entry */
    PyObject *tid = NULL, *vr_obj = NULL;
    long long weight;
    double vr, minvr;
    int fail = (PyList_SetSlice(c->queue, 0, 1, NULL) < 0 ||
                (tid = sget(task, TK_tid)) == NULL ||
                PyDict_DelItem(c->live, tid) < 0 ||
                sget_ll(task, TK_weight, &weight) < 0 ||
                sadd_ll(c->rq, RQ__total_weight, -weight) < 0 ||
                sadd_ll(c->rq, RQ_count, -1) < 0 ||
                (vr_obj = sget(task, TK_vruntime)) == NULL ||
                as_dbl(vr_obj, &vr) < 0 ||
                sget_dbl(c->rq, RQ_min_vruntime, &minvr) < 0 ||
                (vr > minvr && sset(c->rq, RQ_min_vruntime, vr_obj) < 0));
    Py_XDECREF(tid);
    Py_XDECREF(vr_obj);
    if (fail) {
        Py_DECREF(task);
        return -1;
    }
    *out = task;
    return 0;
}

/* CfsRunQueue.max_vruntime(): new ref */
static PyObject *rq_max_vruntime(core_ctx *c) {
    Py_ssize_t n = PyList_GET_SIZE(c->queue);
    if (n == 0) return sget(c->rq, RQ_min_vruntime);
    PyObject *out = PyTuple_GET_ITEM(PyList_GET_ITEM(c->queue, n - 1), 0);
    Py_INCREF(out);
    return out;
}

/* ------------------------------------------------------------------ */
/* CoreSim twins                                                       */
/* ------------------------------------------------------------------ */

/* ``self._mem_track and task.mem_intensity > 0.0``: 1/0, -1 on error;
 * the intensity lands in *mi */
static int mem_tracked(core_ctx *c, PyObject *task, double *mi) {
    int track = strue(c->core, CO__mem_track);
    if (track <= 0) return track;
    if (sget_dbl(task, TK_mem_intensity, mi) < 0) return -1;
    return *mi > 0.0;
}

/* CoreSim._mem_note_on(task): insort(mem_busy, (cid, intensity)).  The
 * core's cid is absent from the list, so bisect_right orders purely on
 * cid. */
static int mem_note_on(core_ctx *c, PyObject *task) {
    double mi;
    int tracked = mem_tracked(c, task, &mi);
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
    PyObject *mi_obj = sget(task, TK_mem_intensity);
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
static int mem_note_off(core_ctx *c, PyObject *task) {
    double mi;
    int tracked = mem_tracked(c, task, &mi);
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
static int trace_record(core_ctx *c, PyObject *task, long long dt,
                        int waiting) {
    PyObject *trace = sget(c->system, SY_trace);
    if (trace == NULL) return -1;
    if (trace == Py_None) {
        Py_DECREF(trace);
        return 0;
    }
    PyObject *r = NULL;
    PyObject *tid = sget(task, TK_tid);
    PyObject *name = tid ? sget(task, TK_name) : NULL;
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
    PyObject *kb = dt_obj ? sget(c->system, SY__kb_on_charge) : NULL;
    if (kb == NULL) goto done;
    PyObject *args[3] = {c->core, task, dt_obj};
    if (kb != Py_None) {
        PyObject *r = PyObject_Vectorcall(kb, args, 3, NULL);
        if (r == NULL) goto done;
        Py_DECREF(r);
    }
    observers = sget(c->system, SY_charge_observers);
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
static int charge_current(core_ctx *c, PyObject *task) {
    PyObject *core = c->core;
    long long dsa;
    if (sget_ll(core, CO_dispatch_started_at, &dsa) < 0) return -1;
    long long dt = c->now - dsa;
    sset(core, CO_dispatch_started_at, c->t_obj);
    if (dt <= 0) return 0;
    if (sadd_ll(task, TK_exec_us, dt) < 0) return -1;
    int waiting = sis(task, TK_waiting_on, Py_None);
    if (waiting < 0) return -1;
    waiting = !waiting;
    if (trace_record(c, task, dt, waiting) < 0) return -1;
    double vruntime;
    long long weight;
    if (sget_dbl(task, TK_vruntime, &vruntime) < 0 ||
        sget_ll(task, TK_weight, &weight) < 0)
        return -1;
    PyObject *vr = PyFloat_FromDouble(
        vruntime + (double)dt * (S.nice0 / (double)weight));
    if (vr == NULL) return -1;
    sset(task, TK_vruntime, vr);
    int rc = rq_note_current_vruntime(c, vr);
    Py_DECREF(vr);
    if (rc < 0) return -1;
    if (sadd_ll(c->stats, ST_busy_us, dt) < 0) return -1;
    if (waiting) {
        if (sadd_ll(c->stats, ST_spin_us, dt) < 0) return -1;
    } else {
        double rate, md, wr;
        if (sget_dbl(core, CO__rate_at_dispatch, &rate) < 0 ||
            sget_dbl(task, TK_migration_debt_us, &md) < 0)
            return -1;
        double ddt = (double)dt;
        double debt_paid = (md < ddt) ? md : ddt; /* min(float(dt), md) */
        if (sset_dbl(task, TK_migration_debt_us, md - debt_paid) < 0)
            return -1;
        double productive = ddt - debt_paid;
        if (sget_dbl(task, TK_work_remaining, &wr) < 0 ||
            sset_dbl(task, TK_work_remaining, wr - productive * rate) < 0 ||
            sadd_ll(task, TK_compute_us, (long long)productive) < 0)
            return -1;
    }
    return charge_hooks(c, task, dt);
}

/* CoreSim.sibling(): new ref (None when the core has no sibling) */
static PyObject *core_sibling(core_ctx *c) {
    PyObject *sib = sget(c->core, CO__sib_core);
    if (sib == NULL || sib != Py_None) return sib;
    PyObject *hw = sget(c->core, CO_hw);
    PyObject *sib_id = hw ? PyObject_GetAttr(hw, S.n_smt_sibling) : NULL;
    Py_XDECREF(hw);
    if (sib_id == NULL) {
        Py_DECREF(sib);
        return NULL;
    }
    if (sib_id != Py_None) {
        PyObject *cores = sget(c->system, SY_cores);
        PyObject *resolved = cores ? PyObject_GetItem(cores, sib_id) : NULL;
        Py_XDECREF(cores);
        if (resolved == NULL) {
            Py_DECREF(sib_id);
            Py_DECREF(sib);
            return NULL;
        }
        sset(c->core, CO__sib_core, resolved);
        Py_SETREF(sib, resolved);
    }
    Py_DECREF(sib_id);
    return sib;
}

/* CoreSim.effective_rate(task) */
static int effective_rate(core_ctx *c, PyObject *task, double *out) {
    PyObject *core = c->core;
    double rate;
    if (sget_dbl(core, CO__clock_factor, &rate) < 0) return -1;
    int smt_active = strue(core, CO__smt_active);
    if (smt_active < 0) return -1;
    if (smt_active) {
        PyObject *sib = core_sibling(c);
        if (sib == NULL) return -1;
        if (sib != Py_None) {
            int sib_idle = is_a(sib, CLS_CO) ? sis(sib, CO_current, Py_None)
                                             : not_a(sib, CLS_CO);
            if (sib_idle < 0) { Py_DECREF(sib); return -1; }
            if (!sib_idle) { /* sib.current is not None */
                double derate;
                if (sget_dbl(core, CO__smt_derate, &derate) < 0) {
                    Py_DECREF(sib);
                    return -1;
                }
                rate *= derate;
            }
        }
        Py_DECREF(sib);
    }
    PyObject *home = sget(task, TK_home_node);
    if (home == NULL) return -1;
    int numa = strue(core, CO__numa);
    int remote = 0;
    if (numa > 0 && home != Py_None) {
        PyObject *node = sget(core, CO__numa_node);
        remote = node ? PyObject_RichCompareBool(home, node, Py_NE) : -1;
        Py_XDECREF(node);
    }
    Py_DECREF(home);
    if (numa < 0 || remote < 0) return -1;
    if (remote) {
        double slow;
        if (sget_dbl(core, CO__numa_remote_slowdown, &slow) < 0) return -1;
        rate /= slow;
    }
    double mi;
    int tracked = mem_tracked(c, task, &mi);
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
        if (sget_dbl(core, CO__mem_alpha, &alpha) < 0) return -1;
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
static int run_duration(core_ctx *c, PyObject *task, double rate,
                        long long *out) {
    long long rq_count, weight, rq_weight, min_gran, target_lat;
    if (sget_ll(c->rq, RQ_count, &rq_count) < 0 ||
        sget_ll(task, TK_weight, &weight) < 0 ||
        sget_ll(c->rq, RQ__total_weight, &rq_weight) < 0 ||
        sget_ll(c->params, PA_min_granularity, &min_gran) < 0 ||
        sget_ll(c->params, PA_target_latency, &target_lat) < 0)
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

    int idle_wait = sis(task, TK_waiting_on, Py_None);
    if (idle_wait < 0) return -1;
    if (!idle_wait) { /* task.waiting_on is not None */
        long long run_for = slice_us;
        int is_yield = sis(task, TK_wait_mode, S.wm_yield);
        if (is_yield < 0) return -1;
        if (is_yield && rq_count > 0) {
            long long ycheck;
            if (sget_ll(c->core, CO_yield_check_us, &ycheck) < 0) return -1;
            if (ycheck < run_for) run_for = ycheck;
        }
        PyObject *deadline = speek(task, TK_spin_deadline);
        if (deadline == NULL) return -1;
        if (deadline != Py_None) {
            long long dl = PyLong_AsLongLong(deadline);
            if (dl == -1 && PyErr_Occurred()) return -1;
            long long margin = dl - c->now;
            if (margin < 1) margin = 1;
            if (margin < run_for) run_for = margin;
        }
        *out = run_for;
        return 0;
    }
    double md, wr;
    if (sget_dbl(task, TK_migration_debt_us, &md) < 0 ||
        sget_dbl(task, TK_work_remaining, &wr) < 0)
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
    if (sget_ll(c->core, CO__gen, &g) < 0 ||
        (gen = PyLong_FromLongLong(g + 1)) == NULL)
        goto done;
    sset(c->core, CO__gen, gen);
    if (sget_ll(c->engine, EN__seq, &seq_ll) < 0 ||
        (time_obj = PyLong_FromLongLong(c->now + delay)) == NULL ||
        (seq = PyLong_FromLongLong(seq_ll)) == NULL ||
        (cb = PyMethod_New(S.on_core_event, c->core)) == NULL ||
        (label = sget(c->core, CO__event_label)) == NULL ||
        (ev = event_new(time_obj, seq, cb, label, c->engine, gen)) == NULL)
        goto done;
    if (sset_ll(c->engine, EN__seq, seq_ll + 1) < 0 ||
        (entry = PyTuple_Pack(3, time_obj, seq, ev)) == NULL ||
        (heap = sget(c->engine, EN__heap)) == NULL ||
        heappush_c(heap, entry, lt_event) < 0)
        goto done;
    sset(c->core, CO__event, ev);
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
static int begin_slice(core_ctx *c, PyObject *task) {
    double rate;
    long long run_for;
    if (effective_rate(c, task, &rate) < 0 ||
        sset_dbl(c->core, CO__rate_at_dispatch, rate) < 0 ||
        run_duration(c, task, rate, &run_for) < 0 ||
        schedule_core_event(c, run_for > 1 ? run_for : 1) < 0)
        return -1;
    int smt_active = strue(c->core, CO__smt_active);
    if (smt_active <= 0) return smt_active;
    return call_method0(c->core, S.n__notify_sibling_rate_change);
}

/* CoreSim._start(task) */
static int start(core_ctx *c, PyObject *task) {
    sset(task, TK_state, S.st_running);
    sset(task, TK_cur_core, c->cid_obj);
    sset(c->core, CO_current, task);
    if (mem_note_on(c, task) < 0) return -1;
    sset(c->core, CO_dispatch_started_at, c->t_obj);
    if (sadd_ll(c->stats, ST_dispatches, 1) < 0) return -1;
    return begin_slice(c, task);
}

/* Event.cancel(), inlined for exact Events */
static int event_cancel(PyObject *ev) {
    if (!exact_event(ev)) return call_method0(ev, S.n_cancel);
    if (SLOT(ev, EV_cancelled) == Py_True) return 0;
    int cancelled = ev_true(ev, EV_cancelled, S.n_cancelled);
    if (cancelled != 0) return cancelled < 0 ? -1 : 0;
    sset(ev, EV_cancelled, Py_True);
    PyObject *eng = SLOT(ev, EV_engine);
    if (eng == NULL || eng == Py_None) return 0;
    int in_heap = ev_true(ev, EV_in_heap, S.n_in_heap);
    if (in_heap <= 0) return in_heap;
    return call_method0(eng, S.n__note_cancel);
}

/* CoreSim._cancel_event() */
static int cancel_event(core_ctx *c) {
    PyObject *ev = sget(c->core, CO__event);
    if (ev == NULL) return -1;
    if (ev != Py_None) {
        if (event_cancel(ev) < 0) {
            Py_DECREF(ev);
            return -1;
        }
        sset(c->core, CO__event, Py_None);
    }
    Py_DECREF(ev);
    return sadd_ll(c->core, CO__gen, 1);
}

/* ``not task.needs_advance and (task.work_remaining > _WORK_EPS or
 * task.migration_debt_us > _WORK_EPS)``: 1/0, -1 on error */
static int has_cpu_work(PyObject *task) {
    int na = strue(task, TK_needs_advance);
    if (na != 0) return na < 0 ? -1 : 0;
    double wr, md;
    if (sget_dbl(task, TK_work_remaining, &wr) < 0) return -1;
    if (wr > S.work_eps) return 1;
    if (sget_dbl(task, TK_migration_debt_us, &md) < 0) return -1;
    return md > S.work_eps;
}

/* ``task.waiting_on is not None or has_cpu_work(task)``: _prepare's
 * immediate-True cases */
static int ready_to_run(PyObject *task) {
    int not_waiting = sis(task, TK_waiting_on, Py_None);
    if (not_waiting <= 0) return not_waiting < 0 ? -1 : 1;
    return has_cpu_work(task);
}

/* park ``task`` on the core's DWRR throttled list: nr_running really
 * dropped */
static int park_throttled(core_ctx *c, PyObject *task) {
    PyObject *parked = speek(c->core, CO_throttled);
    if (parked == NULL || cell_add(c->load_epoch, 1) < 0) return -1;
    return PyList_Append(parked, task);
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
            if (sget_ll(c->rq, RQ_count, &count) < 0) return -1;
            if (count == 0) return 0; /* genuinely idle */
            continue;                 /* idle balance pulled something */
        }
        int throttled = strue(task, TK_throttled);
        int rc = -1;
        if (throttled > 0) {
            if (park_throttled(c, task) == 0) rc = 1; /* pick again */
        } else if (throttled == 0) {
            int ready = ready_to_run(task);
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
    if (cancel_event(c) < 0) return -1;
    sset(c->core, CO__in_resched, Py_True);
    PyObject *task;
    int rc = pick_next(c, &task);
    /* the Python twin's try/finally: restore even while raising */
    sset(c->core, CO__in_resched, Py_False);
    if (rc < 0) return -1;
    if (task == NULL) return 0;
    rc = start(c, task);
    Py_DECREF(task);
    return rc;
}

/* CoreSim._put_back_current() */
static int put_back_current(core_ctx *c) {
    PyObject *task = sget(c->core, CO_current);
    if (task == NULL) return -1;
    if (task == Py_None) {
        Py_DECREF(task);
        return 0;
    }
    int rc = -1;
    if (!is_a(task, CLS_TK)) {
        not_a(task, CLS_TK);
        goto done;
    }
    int running = sis(task, TK_state, S.st_running);
    if (running < 0) goto done;
    if (!running) {
        /* a task leaves RUNNING only through its own core, which clears
         * current as it does: the running state is corrupt */
        PyErr_Format(S.SimulationError, "core %S puts back %R, which is not running",
                     c->cid_obj, task);
        goto done;
    }
    sset(c->core, CO_current, Py_None);
    if (mem_note_off(c, task) < 0) goto done;
    sset(task, TK_last_descheduled_at, c->t_obj);
    sset(task, TK_last_core, c->cid_obj);
    if (sadd_ll(c->stats, ST_context_switches, 1) < 0) goto done;
    sset(task, TK_state, S.st_runnable);
    int throttled = strue(task, TK_throttled);
    if (throttled < 0) goto done;
    if (throttled)
        rc = park_throttled(c, task);
    else
        /* requeue of the running task: load-neutral, no epoch bump */
        rc = rq_push(c, task);
done:
    Py_DECREF(task);
    return rc;
}

/* CoreSim._redispatch(task) */
static int redispatch(core_ctx *c, PyObject *task) {
    long long count;
    if (sget_ll(c->rq, RQ_count, &count) < 0) return -1;
    int lone = (count == 0);
    if (lone) {
        int throttled = strue(task, TK_throttled);
        if (throttled < 0) return -1;
        lone = !throttled;
    }
    if (lone) {
        lone = sis(task, TK_state, S.st_running);
        if (lone < 0) return -1;
    }
    if (lone) {
        lone = ready_to_run(task);
        if (lone < 0) return -1;
    }
    if (lone) {
        /* lone-task fast path: the queue round trip is an identity */
        sset(task, TK_last_descheduled_at, c->t_obj);
        sset(task, TK_last_core, c->cid_obj);
        if (sadd_ll(c->stats, ST_context_switches, 1) < 0 ||
            sadd_ll(c->stats, ST_dispatches, 1) < 0)
            return -1;
        return begin_slice(c, task);
    }
    if (put_back_current(c) < 0) return -1;
    return dispatch_next(c);
}

/* the KMP_BLOCKTIME branch of CoreSim._on_core_event: the spinning
 * waiter goes to sleep */
static int spin_expired(core_ctx *c, PyObject *task, PyObject *barrier) {
    sset(c->core, CO_current, Py_None);
    if (cell_add(c->load_epoch, 1) < 0 || mem_note_off(c, task) < 0)
        return -1;
    sset(task, TK_last_descheduled_at, c->t_obj);
    sset(task, TK_last_core, c->cid_obj);
    PyObject *args[3] = {barrier, task, c->t_obj};
    PyObject *r = PyObject_VectorcallMethod(
        S.n_spin_timeout, args, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (r == NULL) return -1;
    Py_DECREF(r);
    if (call_method1(c->system, S.n_note_residency, task) < 0) return -1;
    return dispatch_next(c);
}

/* CoreSim._on_core_event(gen), after the superseded check */
static int on_core_event(core_ctx *c, PyObject *task) {
    if (charge_current(c, task) < 0) return -1;
    PyObject *barrier = sget(task, TK_waiting_on);
    if (barrier == NULL) return -1;
    int rc = -1;
    if (barrier != Py_None) {
        PyObject *deadline = speek(task, TK_spin_deadline);
        if (deadline == NULL) goto done;
        if (deadline != Py_None) {
            long long dl = PyLong_AsLongLong(deadline);
            if (dl == -1 && PyErr_Occurred()) goto done;
            if (c->now >= dl) {
                rc = spin_expired(c, task, barrier);
                goto done;
            }
        }
        int is_yield = sis(task, TK_wait_mode, S.wm_yield);
        if (is_yield < 0) goto done;
        if (is_yield) {
            /* sched_yield: move past the rightmost task and requeue */
            double vr, mv, penalty;
            PyObject *mv_obj = rq_max_vruntime(c);
            if (mv_obj == NULL) goto done;
            int frc = as_dbl(mv_obj, &mv);
            Py_DECREF(mv_obj);
            if (frc < 0 || sget_dbl(task, TK_vruntime, &vr) < 0 ||
                sget_dbl(c->params, PA_yield_penalty, &penalty) < 0 ||
                sset_dbl(task, TK_vruntime, ((mv > vr) ? mv : vr) + penalty) < 0)
                goto done;
        }
    } else {
        double wr, md;
        if (sget_dbl(task, TK_work_remaining, &wr) < 0 ||
            sget_dbl(task, TK_migration_debt_us, &md) < 0)
            goto done;
        if (wr <= S.work_eps && md <= S.work_eps) {
            if (sset_dbl(task, TK_work_remaining, 0.0) < 0) goto done;
            sset(task, TK_needs_advance, Py_True);
        }
    }
    rc = redispatch(c, task);
done:
    Py_DECREF(barrier);
    return rc;
}

/* Dispatch one CoreSim._on_core_event(gen) event: the C twin for CFS
 * run queues with plain CfsParams, the Python method otherwise. */
static int core_event(PyObject *cb, PyObject *gen, PyObject *engine,
                      PyObject *t_obj, long long t) {
    core_ctx c = {0};
    c.engine = engine;
    c.t_obj = t_obj;
    c.now = t;
    int rc = -1;
    int fusable = ctx_init(&c, PyMethod_GET_SELF(cb));
    if (fusable < 0) goto done;
    if (!fusable) {
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
    PyObject *self_gen = sget(c.core, CO__gen);
    if (self_gen == NULL) goto done;
    int same = PyObject_RichCompareBool(gen, self_gen, Py_EQ);
    Py_DECREF(self_gen);
    if (same <= 0) {
        rc = same;
        goto done;
    }
    PyObject *task = sget(c.core, CO_current);
    if (task == NULL) goto done;
    /* ctx_init checked it is None or a Task */
    rc = (task != Py_None) ? on_core_event(&c, task) : 0;
    Py_DECREF(task);
done:
    ctx_clear(&c);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the drain loop (C twin of Engine._drain, single=False)              */
/* ------------------------------------------------------------------ */

/* ev.callback(ev.payload) or ev.callback() */
static int dispatch_event(PyObject *ev, PyObject *engine, PyObject *t_obj,
                          long long t) {
    PyObject *cb = ev_read(ev, EV_callback, S.n_callback);
    if (cb == NULL) return -1;
    PyObject *payload = ev_read(ev, EV_payload, S.n_payload);
    if (payload == NULL) {
        Py_DECREF(cb);
        return -1;
    }
    int rc;
    if (payload != Py_None && PyMethod_Check(cb) &&
        PyMethod_GET_FUNCTION(cb) == S.on_core_event) {
        rc = core_event(cb, payload, engine, t_obj, t);
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
static int drain_one(PyObject *engine, PyObject *heap, PyObject *observers,
                     PyObject *entry, int have_until, long long until,
                     long long limit) {
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "engine heap entries must be (time, seq, event)");
        return -1;
    }
    PyObject *t_obj = PyTuple_GET_ITEM(entry, 0);
    PyObject *ev = PyTuple_GET_ITEM(entry, 2);
    int cancelled = ev_true(ev, EV_cancelled, S.n_cancelled);
    if (cancelled < 0) return -1;
    if (cancelled) {
        PyObject *dead = heappop_c(heap, lt_event);
        if (dead == NULL) return -1;
        Py_DECREF(dead);
        if (ev_write(ev, EV_in_heap, S.n_in_heap, Py_False) < 0) return -1;
        PyObject *owner = ev_read(ev, EV_engine, S.n_engine);
        if (owner == NULL) return -1;
        int owned = (owner != Py_None);
        Py_DECREF(owner);
        if (owned && sadd_ll(engine, EN__cancelled, -1) < 0) return -1;
        return 0;
    }
    long long t = PyLong_AsLongLong(t_obj);
    if (t == -1 && PyErr_Occurred()) return -1;
    if (have_until && t > until) return 2;
    PyObject *popped = heappop_c(heap, lt_event);
    if (popped == NULL) return -1;
    Py_DECREF(popped);
    if (ev_write(ev, EV_in_heap, S.n_in_heap, Py_False) < 0) return -1;
    int have_observers = PyObject_IsTrue(observers);
    if (have_observers < 0) return -1;
    if (have_observers && notify_observers(observers, ev) < 0) return -1;
    long long engine_now, d;
    if (sget_ll(engine, EN_now, &engine_now) < 0) return -1;
    if (t < engine_now) { /* defensive, mirrors Python */
        PyErr_SetString(S.SimulationError, "event queue time went backwards");
        return -1;
    }
    sset(engine, EN_now, t_obj);
    if (sget_ll(engine, EN__dispatched, &d) < 0 ||
        sset_ll(engine, EN__dispatched, d + 1) < 0)
        return -1;
    if (d + 1 > limit) {
        PyObject *lbl = ev_read(ev, EV_label, S.n_label);
        if (lbl != NULL) {
            PyErr_Format(S.SimulationError,
                         "event limit exceeded (%lld); likely livelock near "
                         "t=%lld (last: %R)",
                         limit, t, lbl);
            Py_DECREF(lbl);
        }
        return -1;
    }
    if (dispatch_event(ev, engine, t_obj, t) < 0) return -1;
    return 1;
}

/* returns 1 if at least one event dispatched, 0 if none, -1 on error */
long long repro_drain(PyObject *engine, PyObject *until_obj) {
    if (!S_ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "native engine core not initialised");
        return -1;
    }
    if (!is_a(engine, CLS_EN)) return not_a(engine, CLS_EN);
    long long rc = -1;
    PyObject *heap = NULL, *observers = NULL;
    /* aliases, not copies: Engine._compact rewrites the heap in place
     * and callbacks may edit the observer list, so both are re-read
     * through the list object on every pass */
    if ((heap = sget(engine, EN__heap)) == NULL ||
        (observers = sget(engine, EN_observers)) == NULL)
        goto done;
    if (!PyList_Check(heap)) {
        PyErr_SetString(PyExc_TypeError, "engine heap must be a list");
        goto done;
    }
    long long limit;
    if (sget_ll(engine, EN_max_events, &limit) < 0) goto done;
    int have_until = (until_obj != Py_None);
    long long until = 0;
    if (have_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred()) goto done;
    }
    long long dispatched_any = 0;
    unsigned long long passes = 0;
    while (PyList_GET_SIZE(heap) > 0) {
        int stop = strue(engine, EN__stop_requested);
        if (stop < 0) goto done;
        if (stop) break;
        PyObject *entry = PyList_GET_ITEM(heap, 0);
        Py_INCREF(entry); /* keeps t_obj and ev alive through dispatch */
        int step = drain_one(engine, heap, observers, entry, have_until,
                             until, limit);
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
    return rc;
}

/* ------------------------------------------------------------------ */
/* initialisation                                                      */
/* ------------------------------------------------------------------ */

/* the binding module checks this against its expected value so a stale
 * cached artifact from an older source revision is never used */
long long repro_native_abi(void) { return 4; }

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

/* the slot table as ["Class.field", ...], for the test that holds it
 * against the classes' __slots__; borrowed (ctypes' py_object return
 * increfs), NULL with an error before initialisation */
PyObject *repro_native_slots(void) {
    if (S.slot_table == NULL)
        PyErr_SetString(PyExc_RuntimeError,
                        "native engine core not initialised");
    return S.slot_table;
}

/* resolve every slot offset from the member descriptors of the support
 * classes; refuses a name that is not a writable object slot declared
 * by its class (or a base) so a class redesign fails loudly here
 * instead of corrupting memory */
static int resolve_slots(void) {
    for (int i = 0; i < N_SLOTS; i++) {
        PyTypeObject *cls = (PyTypeObject *)S.cls[slot_class[i]];
        PyObject *d = PyObject_GetAttrString((PyObject *)cls, slot_name[i]);
        if (d == NULL && !PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        int ok = d != NULL && PyObject_TypeCheck(d, &PyMemberDescr_Type) &&
                 PyType_IsSubtype(cls, PyDescr_TYPE(d));
        if (ok) {
            PyMemberDef *m = ((PyMemberDescrObject *)d)->d_member;
            ok = m->type == T_OBJECT_EX && !(m->flags & READONLY);
            slot_off[i] = m->offset;
        }
        Py_XDECREF(d);
        if (!ok) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a slot descriptor",
                         cls->tp_name, slot_name[i]);
            return -1;
        }
    }
    return 0;
}

/* ["Class.field", ...] from the table */
static PyObject *build_slot_table(void) {
    PyObject *table = PyList_New(N_SLOTS);
    for (int i = 0; table != NULL && i < N_SLOTS; i++) {
        PyObject *entry = PyUnicode_FromFormat(
            "%s.%s", CLASS_KEYS[slot_class[i]], slot_name[i]);
        if (entry == NULL)
            Py_CLEAR(table);
        else
            PyList_SET_ITEM(table, i, entry); /* steals entry */
    }
    return table;
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
    for (int k = 0; k < N_CLASSES; k++) {
        if ((S.cls[k] = take(support, CLASS_KEYS[k])) == NULL) return -1;
        if (!PyType_Check(S.cls[k])) {
            PyErr_Format(PyExc_TypeError, "native support %s is not a class",
                         CLASS_KEYS[k]);
            return -1;
        }
    }
    if ((S.SimulationError = take(support, "SimulationError")) == NULL ||
        (S.on_core_event = take(support, "on_core_event")) == NULL ||
        (S.st_running = take(support, "RUNNING")) == NULL ||
        (S.st_runnable = take(support, "RUNNABLE")) == NULL ||
        (S.wm_yield = take(support, "YIELD")) == NULL ||
        (S.entry_counter = take(support, "entry_counter")) == NULL)
        return -1;
    if (resolve_slots() < 0) return -1;
    if ((S.slot_table = build_slot_table()) == NULL) return -1;
    PyObject *eps = PyDict_GetItemString(support, "WORK_EPS");
    PyObject *nice0 = PyDict_GetItemString(support, "NICE_0_WEIGHT");
    if (eps == NULL || nice0 == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "native support dict missing WORK_EPS/NICE_0_WEIGHT");
        return -1;
    }
    S.work_eps = PyFloat_AsDouble(eps);
    S.nice0 = PyFloat_AsDouble(nice0);
    if (PyErr_Occurred()) return -1;
    S.str_wait = PyUnicode_InternFromString("wait");
    S.str_run = PyUnicode_InternFromString("run");
    if (S.str_wait == NULL || S.str_run == NULL) return -1;
    S_ready = 1;
    return 0;
}
