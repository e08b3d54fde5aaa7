/* Accelerated exploration kernel: the compiled twin of _pycore.PyKernel.
 *
 * One KernelState holds the interned configuration rows (fixed-width
 * uint32 fields, one per process local state / process status / object
 * state — the packed encoding of repro.analysis.kernel.encoding), an
 * open-addressing row hash table, the per-(pid, local[, object-state])
 * invoke and delta tables, and the recorded adjacency lists. The BFS
 * (run_bfs) runs entirely in C; protocol semantics reach it through
 * one lazy path: on a table miss the kernel calls back into the
 * explorer (resolve_invoke / compute_deltas) exactly once per key and
 * stores the result — a key not yet resolved is simply an empty map
 * slot.
 *
 * run_bfs expands each frontier in two phases: a *plan* phase that
 * computes successor rows from the tables filled so far — pure C over
 * immutable state, so the GIL is released and the frontier can be
 * partitioned across OS threads — and a serial *commit* phase that
 * interns the planned rows in frontier order (falling back to the
 * GIL-holding callbacks for cids whose keys missed). Because the
 * commit replays the exact serial discovery sequence, configuration
 * ids, edge order, budget truncation, orders, parents, and digests
 * are byte-identical across backends and thread counts.
 *
 * export_graph / load_graph move the interned rows and the recorded
 * adjacency in and out as little-endian 32-bit buffers: the
 * exploration cache's packed entry, loaded in bulk and validated in C
 * so a hostile entry raises ValueError instead of reaching the BFS.
 *
 * All heap state uses the PyMem_Raw* allocators, which are legal
 * without the GIL; the low-level helpers never set Python errors
 * (GIL-holding boundaries raise MemoryError after the fact).
 *
 * Built best-effort: setup.py marks the extension optional, and
 * `make kernel-ext` (repro.analysis.kernel._build) compiles it in
 * place with the running interpreter's headers. Absence of this module
 * is never an error — kernel selection falls back to "python" unless
 * the compiled backend was requested explicitly.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#ifndef _WIN32
#include <pthread.h>
#define REPRO_KERNEL_PTHREADS 1
#endif

/* Must match repro.analysis.kernel.encoding.FIELD_BITS: slot codes are
 * allocated below 1 << 24, so they always fit a uint32 field. */
#define FIELD_BITS 24

/* Upper bound for --kernel-threads: beyond this, frontier partitioning
 * overhead dwarfs any win on the graph sizes the explorer bounds. */
#define MAX_PLAN_THREADS 16

/* ---------------------------------------------------------------------
 * Growable int32 buffer
 * ------------------------------------------------------------------ */

typedef struct {
    int32_t *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} IntBuf;

/* The intbuf/u64map/grow/intern helpers below are called with the GIL
 * released (plan/commit phases), so on allocation failure they return
 * -1 WITHOUT setting a Python error; GIL-holding boundaries translate
 * that into MemoryError. */

static int
intbuf_init(IntBuf *buf, Py_ssize_t cap)
{
    buf->data = PyMem_RawMalloc((size_t)cap * sizeof(int32_t));
    if (buf->data == NULL) {
        return -1;
    }
    buf->len = 0;
    buf->cap = cap;
    return 0;
}

static void
intbuf_free(IntBuf *buf)
{
    PyMem_RawFree(buf->data);
    buf->data = NULL;
    buf->len = buf->cap = 0;
}

static int
intbuf_reserve(IntBuf *buf, Py_ssize_t extra)
{
    if (buf->len + extra <= buf->cap) {
        return 0;
    }
    Py_ssize_t cap = buf->cap ? buf->cap : 8;
    while (cap < buf->len + extra) {
        cap *= 2;
    }
    int32_t *data = PyMem_RawRealloc(buf->data, (size_t)cap * sizeof(int32_t));
    if (data == NULL) {
        return -1;
    }
    buf->data = data;
    buf->cap = cap;
    return 0;
}

static inline int
intbuf_push(IntBuf *buf, int32_t value)
{
    if (buf->len >= buf->cap && intbuf_reserve(buf, 1) < 0) {
        return -1;
    }
    buf->data[buf->len++] = value;
    return 0;
}

/* ---------------------------------------------------------------------
 * uint64 -> int32 open-addressing map (invoke and delta tables)
 * ------------------------------------------------------------------ */

typedef struct {
    uint64_t key;
    int32_t value; /* -1 marks an empty slot; stored values are >= 0 */
} U64Entry;

typedef struct {
    U64Entry *entries;
    Py_ssize_t size; /* power of two */
    Py_ssize_t count;
} U64Map;

static int
u64map_init(U64Map *map, Py_ssize_t size)
{
    map->entries = PyMem_RawMalloc((size_t)size * sizeof(U64Entry));
    if (map->entries == NULL) {
        return -1;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        map->entries[i].value = -1;
    }
    map->size = size;
    map->count = 0;
    return 0;
}

static void
u64map_free(U64Map *map)
{
    PyMem_RawFree(map->entries);
    map->entries = NULL;
    map->size = map->count = 0;
}

static inline uint64_t
u64_mix(uint64_t key)
{
    /* splitmix64 finalizer: full avalanche over the packed key bits. */
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return key;
}

static inline int32_t
u64map_get(const U64Map *map, uint64_t key)
{
    Py_ssize_t mask = map->size - 1;
    Py_ssize_t index = (Py_ssize_t)(u64_mix(key) & (uint64_t)mask);
    for (;;) {
        const U64Entry *entry = &map->entries[index];
        if (entry->value < 0) {
            return -1;
        }
        if (entry->key == key) {
            return entry->value;
        }
        index = (index + 1) & mask;
    }
}

static int
u64map_set(U64Map *map, uint64_t key, int32_t value)
{
    if (map->count * 3 >= map->size * 2) {
        Py_ssize_t new_size = map->size * 2;
        U64Entry *old = map->entries;
        Py_ssize_t old_size = map->size;
        if (u64map_init(map, new_size) < 0) {
            map->entries = old;
            map->size = old_size;
            return -1;
        }
        for (Py_ssize_t i = 0; i < old_size; i++) {
            if (old[i].value >= 0) {
                Py_ssize_t mask = map->size - 1;
                Py_ssize_t index =
                    (Py_ssize_t)(u64_mix(old[i].key) & (uint64_t)mask);
                while (map->entries[index].value >= 0) {
                    index = (index + 1) & mask;
                }
                map->entries[index] = old[i];
                map->count++;
            }
        }
        PyMem_RawFree(old);
    }
    Py_ssize_t mask = map->size - 1;
    Py_ssize_t index = (Py_ssize_t)(u64_mix(key) & (uint64_t)mask);
    for (;;) {
        U64Entry *entry = &map->entries[index];
        if (entry->value < 0) {
            entry->key = key;
            entry->value = value;
            map->count++;
            return 0;
        }
        if (entry->key == key) {
            entry->value = value;
            return 0;
        }
        index = (index + 1) & mask;
    }
}

/* ---------------------------------------------------------------------
 * Delta sets: the memoized outcomes of one (pid, local, obj_code) key
 * ------------------------------------------------------------------ */

typedef struct {
    int32_t n;      /* number of outcomes */
    uint32_t *vals; /* n * 4: eid, new_local, new_status, new_obj */
} DeltaSet;

/* ---------------------------------------------------------------------
 * KernelState
 * ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    int n_fields;
    int n_processes;
    PyObject *resolve_invoke;
    PyObject *compute_deltas;
    /* Interned rows: row_count * n_fields uint32 codes. */
    uint32_t *rows;
    /* Per-row hash, cached at intern time so table growth re-buckets
     * without rehashing row bytes (the cold-path hot spot). */
    uint64_t *row_hashes;
    Py_ssize_t row_count;
    Py_ssize_t row_cap;
    /* Row hash table: open addressing over cids, -1 empty. */
    int32_t *table;
    Py_ssize_t table_size; /* power of two */
    /* Adjacency per cid: flat [eid, tid, ...]; len < 0 = unexpanded. */
    int32_t **adj;
    int32_t *adj_len;
    U64Map invoke; /* (pid << 24 | local) -> object index */
    U64Map deltas; /* (pid << 48 | local << 24 | obj) -> delta set id */
    DeltaSet *delta_sets;
    Py_ssize_t ds_count;
    Py_ssize_t ds_cap;
    /* Scratch rows (n_fields each): stable source copy + successor. */
    uint32_t *src_row;
    uint32_t *scratch;
} KernelState;

static inline uint64_t
row_hash(const uint32_t *row, int n_fields)
{
    /* FNV-1a, one step per uint32 field (field-granular is 4x fewer
     * multiplies than byte-granular and just as well distributed for
     * small slot codes). Internal only — never leaves the process. */
    uint64_t hash = 1469598103934665603ULL;
    for (int i = 0; i < n_fields; i++) {
        hash ^= row[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

static int
kernel_grow_rows(KernelState *self)
{
    Py_ssize_t cap = self->row_cap * 2;
    uint32_t *rows = PyMem_RawRealloc(
        self->rows, (size_t)cap * (size_t)self->n_fields * sizeof(uint32_t));
    if (rows == NULL) {
        return -1;
    }
    self->rows = rows;
    uint64_t *hashes = PyMem_RawRealloc(self->row_hashes,
                                        (size_t)cap * sizeof(uint64_t));
    if (hashes == NULL) {
        return -1;
    }
    self->row_hashes = hashes;
    int32_t **adj = PyMem_RawRealloc(self->adj, (size_t)cap * sizeof(int32_t *));
    if (adj == NULL) {
        return -1;
    }
    self->adj = adj;
    int32_t *adj_len =
        PyMem_RawRealloc(self->adj_len, (size_t)cap * sizeof(int32_t));
    if (adj_len == NULL) {
        return -1;
    }
    self->adj_len = adj_len;
    for (Py_ssize_t i = self->row_cap; i < cap; i++) {
        self->adj[i] = NULL;
        self->adj_len[i] = -1;
    }
    self->row_cap = cap;
    return 0;
}

static int
kernel_grow_table(KernelState *self)
{
    /* Grow 4x: cached row hashes make re-bucketing cheap, so fewer,
     * larger growth steps win on the cold path. */
    Py_ssize_t new_size = self->table_size * 4;
    int32_t *table = PyMem_RawMalloc((size_t)new_size * sizeof(int32_t));
    if (table == NULL) {
        return -1;
    }
    for (Py_ssize_t i = 0; i < new_size; i++) {
        table[i] = -1;
    }
    Py_ssize_t mask = new_size - 1;
    for (Py_ssize_t cid = 0; cid < self->row_count; cid++) {
        Py_ssize_t index =
            (Py_ssize_t)(self->row_hashes[cid] & (uint64_t)mask);
        while (table[index] >= 0) {
            index = (index + 1) & mask;
        }
        table[index] = (int32_t)cid;
    }
    PyMem_RawFree(self->table);
    self->table = table;
    self->table_size = new_size;
    return 0;
}

/* The cid of `row`, interning it if new; -1 on memory error. */
static Py_ssize_t
kernel_intern(KernelState *self, const uint32_t *row)
{
    int n_fields = self->n_fields;
    Py_ssize_t mask = self->table_size - 1;
    uint64_t hash = row_hash(row, n_fields);
    Py_ssize_t index = (Py_ssize_t)(hash & (uint64_t)mask);
    for (;;) {
        int32_t cid = self->table[index];
        if (cid < 0) {
            break;
        }
        if (self->row_hashes[cid] == hash &&
            memcmp(self->rows + (Py_ssize_t)cid * n_fields, row,
                   (size_t)n_fields * sizeof(uint32_t)) == 0) {
            return cid;
        }
        index = (index + 1) & mask;
    }
    Py_ssize_t cid = self->row_count;
    if (cid >= self->row_cap && kernel_grow_rows(self) < 0) {
        return -1;
    }
    memcpy(self->rows + cid * n_fields, row,
           (size_t)n_fields * sizeof(uint32_t));
    self->row_hashes[cid] = hash;
    self->row_count++;
    self->table[index] = (int32_t)cid;
    if (self->row_count * 3 >= self->table_size * 2 &&
        kernel_grow_table(self) < 0) {
        return -1;
    }
    return cid;
}

/* The cid of `row`, or -1 when absent (never interns). */
static Py_ssize_t
kernel_find(const KernelState *self, const uint32_t *row)
{
    int n_fields = self->n_fields;
    Py_ssize_t mask = self->table_size - 1;
    uint64_t hash = row_hash(row, n_fields);
    Py_ssize_t index = (Py_ssize_t)(hash & (uint64_t)mask);
    for (;;) {
        int32_t cid = self->table[index];
        if (cid < 0) {
            return -1;
        }
        if (self->row_hashes[cid] == hash &&
            memcmp(self->rows + (Py_ssize_t)cid * n_fields, row,
                   (size_t)n_fields * sizeof(uint32_t)) == 0) {
            return cid;
        }
        index = (index + 1) & mask;
    }
}

/* Parse a Python sequence of ints into `out` (n_fields uint32 codes). */
static int
kernel_parse_row(KernelState *self, PyObject *codes, uint32_t *out)
{
    PyObject *fast = PySequence_Fast(codes, "expected a sequence of codes");
    if (fast == NULL) {
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(fast) != self->n_fields) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "expected %d codes", self->n_fields);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (int i = 0; i < self->n_fields; i++) {
        long code = PyLong_AsLong(items[i]);
        if (code == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (code < 0 || code >= (1L << FIELD_BITS)) {
            Py_DECREF(fast);
            PyErr_Format(PyExc_ValueError, "code %ld out of range", code);
            return -1;
        }
        out[i] = (uint32_t)code;
    }
    Py_DECREF(fast);
    return 0;
}

/* Parse `outcomes` — a sequence of (eid, new_local, new_status,
 * new_obj) 4-tuples — into a new delta set registered under `dkey`.
 * Returns the delta-set id, -1 with a Python error set. GIL held. */
static Py_ssize_t
kernel_store_delta_set(KernelState *self, uint64_t dkey, PyObject *outcomes)
{
    PyObject *fast =
        PySequence_Fast(outcomes, "delta outcomes must be a sequence");
    if (fast == NULL) {
        return -1;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    uint32_t *vals = PyMem_RawMalloc((size_t)(n ? n : 1) * 4 * sizeof(uint32_t));
    if (vals == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *entry = items[i];
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
            PyMem_RawFree(vals);
            Py_DECREF(fast);
            PyErr_SetString(PyExc_TypeError,
                            "delta outcomes must be 4-tuples");
            return -1;
        }
        for (int k = 0; k < 4; k++) {
            long value = PyLong_AsLong(PyTuple_GET_ITEM(entry, k));
            if (value == -1 && PyErr_Occurred()) {
                PyMem_RawFree(vals);
                Py_DECREF(fast);
                return -1;
            }
            if (value < 0 || value > (long)UINT32_MAX) {
                PyMem_RawFree(vals);
                Py_DECREF(fast);
                PyErr_Format(PyExc_ValueError,
                             "delta value %ld out of range", value);
                return -1;
            }
            vals[i * 4 + k] = (uint32_t)value;
        }
    }
    Py_DECREF(fast);
    if (self->ds_count >= self->ds_cap) {
        Py_ssize_t cap = self->ds_cap ? self->ds_cap * 2 : 64;
        DeltaSet *sets =
            PyMem_RawRealloc(self->delta_sets, (size_t)cap * sizeof(DeltaSet));
        if (sets == NULL) {
            PyMem_RawFree(vals);
            PyErr_NoMemory();
            return -1;
        }
        self->delta_sets = sets;
        self->ds_cap = cap;
    }
    Py_ssize_t index = self->ds_count;
    self->delta_sets[index].n = (int32_t)n;
    self->delta_sets[index].vals = vals;
    self->ds_count++;
    if (u64map_set(&self->deltas, dkey, (int32_t)index) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return index;
}

/* Resolve the delta set for (pid, local, obj_index, obj_code), calling
 * back into Python on the first miss. Returns the delta-set id, -1 on
 * error. */
static Py_ssize_t
kernel_delta_set(KernelState *self, int pid, uint32_t local, int obj_index,
                 uint32_t obj_code)
{
    uint64_t ikey = ((uint64_t)pid << FIELD_BITS) | local;
    uint64_t dkey = (ikey << FIELD_BITS) | obj_code;
    int32_t dsi = u64map_get(&self->deltas, dkey);
    if (dsi >= 0) {
        return dsi;
    }
    PyObject *result = PyObject_CallFunction(
        self->compute_deltas, "iiiI", pid, (int)local, obj_index,
        (unsigned int)obj_code);
    if (result == NULL) {
        return -1;
    }
    Py_ssize_t index = kernel_store_delta_set(self, dkey, result);
    Py_DECREF(result);
    return index;
}

/* Resolve the invoked object index for (pid, local), calling back into
 * Python on the first miss. Returns the index, -1 on error. */
static int
kernel_invoke_index(KernelState *self, int pid, uint32_t local)
{
    uint64_t ikey = ((uint64_t)pid << FIELD_BITS) | local;
    int32_t obj_index = u64map_get(&self->invoke, ikey);
    if (obj_index >= 0) {
        return obj_index;
    }
    PyObject *result = PyObject_CallFunction(self->resolve_invoke, "ii", pid,
                                             (int)local);
    if (result == NULL) {
        return -1;
    }
    long value = PyLong_AsLong(result);
    Py_DECREF(result);
    if (value == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (value < 0 || 2 * self->n_processes + value >= self->n_fields) {
        PyErr_Format(PyExc_ValueError, "object index %ld out of range", value);
        return -1;
    }
    if (u64map_set(&self->invoke, ikey, (int32_t)value) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return (int)value;
}

/* Expand one pid of `cid` into `entries` as flat (eid, tid) pairs.
 * The source row must already be copied into self->src_row (interning
 * successors may reallocate the rows arena). Returns 0/-1. */
static int
kernel_expand_pid_into(KernelState *self, int pid, IntBuf *entries)
{
    int n = self->n_processes;
    const uint32_t *src = self->src_row;
    if (src[n + pid] != 0) {
        return 0; /* status != RUNNING: nothing enabled */
    }
    uint32_t local = src[pid];
    int obj_index = kernel_invoke_index(self, pid, local);
    if (obj_index < 0) {
        return -1;
    }
    uint32_t obj_code = src[2 * n + obj_index];
    Py_ssize_t dsi = kernel_delta_set(self, pid, local, obj_index, obj_code);
    if (dsi < 0) {
        return -1;
    }
    /* The callback cannot re-enter this kernel, so the delta set and
     * the source copy stay valid across the loop. */
    const DeltaSet *set = &self->delta_sets[dsi];
    int n_fields = self->n_fields;
    for (int32_t i = 0; i < set->n; i++) {
        const uint32_t *vals = set->vals + (Py_ssize_t)i * 4;
        memcpy(self->scratch, src, (size_t)n_fields * sizeof(uint32_t));
        self->scratch[pid] = vals[1];
        self->scratch[n + pid] = vals[2];
        self->scratch[2 * n + obj_index] = vals[3];
        Py_ssize_t tid = kernel_intern(self, self->scratch);
        if (tid < 0) {
            return -1;
        }
        if (intbuf_push(entries, (int32_t)vals[0]) < 0 ||
            intbuf_push(entries, (int32_t)tid) < 0) {
            return -1;
        }
    }
    return 0;
}

/* Compute and record the full adjacency of `cid`. Returns 0/-1 with a
 * Python error set (GIL held: this is the callback path). */
static int
kernel_expand_new(KernelState *self, Py_ssize_t cid)
{
    memcpy(self->src_row, self->rows + cid * self->n_fields,
           (size_t)self->n_fields * sizeof(uint32_t));
    IntBuf entries;
    if (intbuf_init(&entries, 16) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    for (int pid = 0; pid < self->n_processes; pid++) {
        if (kernel_expand_pid_into(self, pid, &entries) < 0) {
            intbuf_free(&entries);
            if (!PyErr_Occurred()) {
                PyErr_NoMemory();
            }
            return -1;
        }
    }
    int32_t *flat = NULL;
    if (entries.len) {
        flat = PyMem_RawMalloc((size_t)entries.len * sizeof(int32_t));
        if (flat == NULL) {
            intbuf_free(&entries);
            PyErr_NoMemory();
            return -1;
        }
        memcpy(flat, entries.data, (size_t)entries.len * sizeof(int32_t));
    }
    self->adj[cid] = flat;
    self->adj_len[cid] = (int32_t)entries.len;
    intbuf_free(&entries);
    return 0;
}

static PyObject *
intbuf_as_list(const int32_t *data, Py_ssize_t len)
{
    PyObject *list = PyList_New(len);
    if (list == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *value = PyLong_FromLong(data[i]);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

/* ---------------------------------------------------------------------
 * Two-phase BFS: GIL-free plan, serial commit
 * ------------------------------------------------------------------ */

typedef struct {
    uint32_t *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} PlanBuf;

static int
planbuf_reserve(PlanBuf *buf, Py_ssize_t extra)
{
    if (buf->len + extra <= buf->cap) {
        return 0;
    }
    Py_ssize_t cap = buf->cap ? buf->cap : 256;
    while (cap < buf->len + extra) {
        cap *= 2;
    }
    uint32_t *data = PyMem_RawRealloc(buf->data, (size_t)cap * sizeof(uint32_t));
    if (data == NULL) {
        return -1;
    }
    buf->data = data;
    buf->cap = cap;
    return 0;
}

/* Per-frontier-member plan verdicts. */
#define PLAN_RECORDED 0 /* adjacency already recorded: nothing planned */
#define PLAN_ROWS 1     /* successor rows planned in the job's PlanBuf */
#define PLAN_CALLBACK 2 /* table miss: commit takes the callback path */

typedef struct {
    KernelState *self;
    const int32_t *frontier;
    Py_ssize_t begin; /* this job's frontier block: [begin, end) */
    Py_ssize_t end;
    unsigned char *flags; /* shared, indexed by frontier position */
    PlanBuf plan;
    Py_ssize_t read; /* commit-phase cursor into plan.data */
    int oom;
} PlanJob;

/* Plan one contiguous frontier block from the tables alone: pure C
 * over state no other thread writes, so it runs with the GIL released
 * and blocks run in parallel. Per PLAN_ROWS cid the plan records
 * [n_edges, then per edge: eid followed by the full successor row];
 * any invoke/delta table miss discards the cid's partial record and
 * flags it PLAN_CALLBACK for the commit phase. */
static void
plan_block(PlanJob *job)
{
    KernelState *self = job->self;
    int n = self->n_processes;
    int n_fields = self->n_fields;
    for (Py_ssize_t f = job->begin; f < job->end; f++) {
        Py_ssize_t cid = job->frontier[f];
        if (self->adj_len[cid] >= 0) {
            job->flags[f] = PLAN_RECORDED;
            continue;
        }
        const uint32_t *src = self->rows + cid * n_fields;
        Py_ssize_t mark = job->plan.len;
        if (planbuf_reserve(&job->plan, 1) < 0) {
            job->oom = 1;
            return;
        }
        Py_ssize_t header = job->plan.len++;
        uint32_t n_edges = 0;
        int miss = 0;
        for (int pid = 0; pid < n; pid++) {
            if (src[n + pid] != 0) {
                continue; /* status != RUNNING: nothing enabled */
            }
            uint32_t local = src[pid];
            uint64_t ikey = ((uint64_t)pid << FIELD_BITS) | local;
            int32_t obj_index = u64map_get(&self->invoke, ikey);
            if (obj_index < 0) {
                miss = 1;
                break;
            }
            uint32_t obj_code = src[2 * n + obj_index];
            int32_t dsi =
                u64map_get(&self->deltas, (ikey << FIELD_BITS) | obj_code);
            if (dsi < 0) {
                miss = 1;
                break;
            }
            const DeltaSet *set = &self->delta_sets[dsi];
            if (planbuf_reserve(&job->plan,
                                (Py_ssize_t)set->n * (1 + n_fields)) < 0) {
                job->oom = 1;
                return;
            }
            for (int32_t i = 0; i < set->n; i++) {
                const uint32_t *vals = set->vals + (Py_ssize_t)i * 4;
                uint32_t *out = job->plan.data + job->plan.len;
                out[0] = vals[0]; /* eid */
                memcpy(out + 1, src, (size_t)n_fields * sizeof(uint32_t));
                out[1 + pid] = vals[1];
                out[1 + n + pid] = vals[2];
                out[1 + 2 * n + obj_index] = vals[3];
                job->plan.len += 1 + n_fields;
                n_edges++;
            }
        }
        if (miss) {
            job->plan.len = mark;
            job->flags[f] = PLAN_CALLBACK;
        } else {
            job->plan.data[header] = n_edges;
            job->flags[f] = PLAN_ROWS;
        }
    }
}

#ifdef REPRO_KERNEL_PTHREADS
static void *
plan_thread_main(void *arg)
{
    plan_block((PlanJob *)arg);
    return NULL;
}
#endif

typedef struct {
    IntBuf *order;
    IntBuf *parents;
    IntBuf *next_frontier;
    char *seen;
    Py_ssize_t seen_cap;
    Py_ssize_t seen_count;
    Py_ssize_t expansions;
    Py_ssize_t max_configurations;
} CommitCtx;

#define COMMIT_DONE 0
#define COMMIT_TRUNCATED 1
#define COMMIT_OOM (-1)
#define COMMIT_PYERR (-2)

/* Commit one planned frontier serially, in frontier order: intern the
 * planned rows (or run the GIL-holding callback expansion for cids
 * flagged PLAN_CALLBACK), record adjacency, then scan it with the
 * exact serial budget semantics — the budget is charged per newly
 * discovered successor, the truncating cid's adjacency is already
 * recorded, and the walk stops mid-scan. Because this loop replays
 * the serial discovery sequence regardless of how the plan phase was
 * partitioned, cids and edge order are identical across thread
 * counts. Touches no Python state unless a cid is flagged
 * PLAN_CALLBACK, so with no flagged cid the caller runs it with the
 * GIL released. */
static int
commit_frontier(KernelState *self, const int32_t *frontier, Py_ssize_t width,
                const unsigned char *flags, PlanJob *jobs, Py_ssize_t chunk,
                CommitCtx *ctx)
{
    int n_fields = self->n_fields;
    for (Py_ssize_t f = 0; f < width; f++) {
        Py_ssize_t cid = frontier[f];
        ctx->expansions++;
        if (flags[f] == PLAN_ROWS) {
            PlanJob *job = &jobs[f / chunk];
            uint32_t n_edges = job->plan.data[job->read++];
            int32_t *flat = NULL;
            if (n_edges) {
                flat = PyMem_RawMalloc((size_t)n_edges * 2 * sizeof(int32_t));
                if (flat == NULL) {
                    return COMMIT_OOM;
                }
            }
            for (uint32_t k = 0; k < n_edges; k++) {
                const uint32_t *rec = job->plan.data + job->read;
                Py_ssize_t tid = kernel_intern(self, rec + 1);
                if (tid < 0) {
                    PyMem_RawFree(flat);
                    return COMMIT_OOM;
                }
                flat[k * 2] = (int32_t)rec[0];
                flat[k * 2 + 1] = (int32_t)tid;
                job->read += 1 + n_fields;
            }
            self->adj[cid] = flat;
            self->adj_len[cid] = (int32_t)(n_edges * 2);
        } else if (flags[f] == PLAN_CALLBACK) {
            if (kernel_expand_new(self, cid) < 0) {
                return COMMIT_PYERR;
            }
        }
        if (ctx->seen_cap < self->row_count) {
            Py_ssize_t cap = self->row_count;
            char *grown = PyMem_RawRealloc(ctx->seen, (size_t)cap);
            if (grown == NULL) {
                return COMMIT_OOM;
            }
            memset(grown + ctx->seen_cap, 0, (size_t)(cap - ctx->seen_cap));
            ctx->seen = grown;
            ctx->seen_cap = cap;
        }
        const int32_t *adj = self->adj[cid];
        int32_t adj_len = self->adj_len[cid];
        for (int32_t k = 0; k < adj_len; k += 2) {
            int32_t tid = adj[k + 1];
            if (!ctx->seen[tid]) {
                if (ctx->seen_count >= ctx->max_configurations) {
                    return COMMIT_TRUNCATED;
                }
                ctx->seen[tid] = 1;
                ctx->seen_count++;
                if (intbuf_push(ctx->order, tid) < 0 ||
                    intbuf_push(ctx->parents, tid) < 0 ||
                    intbuf_push(ctx->parents, (int32_t)cid) < 0 ||
                    intbuf_push(ctx->parents, adj[k]) < 0 ||
                    intbuf_push(ctx->next_frontier, tid) < 0) {
                    return COMMIT_OOM;
                }
            }
        }
    }
    return COMMIT_DONE;
}

/* ---------------------------------------------------------------------
 * Python-visible methods
 * ------------------------------------------------------------------ */

static int
kernel_check_cid(const KernelState *self, Py_ssize_t cid)
{
    if (cid < 0 || cid >= self->row_count) {
        PyErr_Format(PyExc_IndexError, "unknown configuration id %zd", cid);
        return -1;
    }
    return 0;
}

static PyObject *
KernelState_intern_row(KernelState *self, PyObject *codes)
{
    if (kernel_parse_row(self, codes, self->scratch) < 0) {
        return NULL;
    }
    Py_ssize_t cid = kernel_intern(self, self->scratch);
    if (cid < 0) {
        return PyErr_NoMemory();
    }
    return PyLong_FromSsize_t(cid);
}

static PyObject *
KernelState_find_row(KernelState *self, PyObject *codes)
{
    if (kernel_parse_row(self, codes, self->scratch) < 0) {
        return NULL;
    }
    Py_ssize_t cid = kernel_find(self, self->scratch);
    if (cid < 0) {
        Py_RETURN_NONE;
    }
    return PyLong_FromSsize_t(cid);
}

static PyObject *
KernelState_row(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    const uint32_t *row = self->rows + cid * self->n_fields;
    PyObject *result = PyTuple_New(self->n_fields);
    if (result == NULL) {
        return NULL;
    }
    for (int i = 0; i < self->n_fields; i++) {
        PyObject *value = PyLong_FromUnsignedLong(row[i]);
        if (value == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyTuple_SET_ITEM(result, i, value);
    }
    return result;
}

static PyObject *
KernelState_expand(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    if (self->adj_len[cid] < 0 && kernel_expand_new(self, cid) < 0) {
        return NULL;
    }
    return intbuf_as_list(self->adj[cid], self->adj_len[cid]);
}

static PyObject *
KernelState_adjacency(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    if (self->adj_len[cid] < 0) {
        Py_RETURN_NONE;
    }
    return intbuf_as_list(self->adj[cid], self->adj_len[cid]);
}

static PyObject *
KernelState_expand_pid(KernelState *self, PyObject *args)
{
    Py_ssize_t cid;
    int pid;
    if (!PyArg_ParseTuple(args, "ni", &cid, &pid)) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    if (pid < 0 || pid >= self->n_processes) {
        PyErr_Format(PyExc_IndexError, "unknown pid %d", pid);
        return NULL;
    }
    memcpy(self->src_row, self->rows + cid * self->n_fields,
           (size_t)self->n_fields * sizeof(uint32_t));
    IntBuf entries;
    if (intbuf_init(&entries, 8) < 0) {
        return PyErr_NoMemory();
    }
    if (kernel_expand_pid_into(self, pid, &entries) < 0) {
        intbuf_free(&entries);
        if (!PyErr_Occurred()) {
            PyErr_NoMemory();
        }
        return NULL;
    }
    PyObject *result = intbuf_as_list(entries.data, entries.len);
    intbuf_free(&entries);
    return result;
}

static PyObject *
KernelState_status_key(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    int n = self->n_processes;
    const uint32_t *row = self->rows + cid * self->n_fields;
    PyObject *result = PyTuple_New(n);
    if (result == NULL) {
        return NULL;
    }
    for (int pid = 0; pid < n; pid++) {
        PyObject *value = PyLong_FromUnsignedLong(row[n + pid]);
        if (value == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyTuple_SET_ITEM(result, pid, value);
    }
    return result;
}

/* ---------------------------------------------------------------------
 * Bulk export and load: the exploration cache's packed entry
 *
 * Three little-endian 32-bit buffers: every interned row in cid order
 * (n_fields codes each), the recorded flat [eid, tid, ...] adjacency
 * of cids 0..k-1 concatenated, and its k + 1 offsets. The byte order
 * is fixed so entries are backend- and host-neutral.
 * ------------------------------------------------------------------ */

static inline uint32_t
le32_get(const unsigned char *p)
{
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16) |
           ((uint32_t)p[3] << 24);
}

static inline void
le32_put(unsigned char *p, uint32_t value)
{
    p[0] = (unsigned char)value;
    p[1] = (unsigned char)(value >> 8);
    p[2] = (unsigned char)(value >> 16);
    p[3] = (unsigned char)(value >> 24);
}

/* Drop every interned row and recorded adjacency: back to the empty
 * kernel a load starts from (the load's rollback on failure). */
static void
kernel_reset_rows(KernelState *self)
{
    for (Py_ssize_t cid = 0; cid < self->row_count; cid++) {
        PyMem_RawFree(self->adj[cid]);
        self->adj[cid] = NULL;
        self->adj_len[cid] = -1;
    }
    self->row_count = 0;
    for (Py_ssize_t i = 0; i < self->table_size; i++) {
        self->table[i] = -1;
    }
}

static PyObject *
KernelState_export_graph(KernelState *self, PyObject *arg)
{
    Py_ssize_t expanded = PyLong_AsSsize_t(arg);
    if (expanded == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (expanded < 0 || expanded > self->row_count) {
        PyErr_Format(PyExc_ValueError, "expanded count %zd out of range",
                     expanded);
        return NULL;
    }
    Py_ssize_t total = 0;
    for (Py_ssize_t cid = 0; cid < expanded; cid++) {
        if (self->adj_len[cid] < 0) {
            PyErr_Format(PyExc_ValueError,
                         "configuration %zd was never expanded", cid);
            return NULL;
        }
        total += self->adj_len[cid];
    }
    Py_ssize_t n_codes = self->row_count * self->n_fields;
    PyObject *rows = PyBytes_FromStringAndSize(NULL, n_codes * 4);
    PyObject *adjacency = PyBytes_FromStringAndSize(NULL, total * 4);
    PyObject *offsets = PyBytes_FromStringAndSize(NULL, (expanded + 1) * 4);
    if (rows == NULL || adjacency == NULL || offsets == NULL) {
        Py_XDECREF(rows);
        Py_XDECREF(adjacency);
        Py_XDECREF(offsets);
        return NULL;
    }
    unsigned char *out = (unsigned char *)PyBytes_AS_STRING(rows);
    for (Py_ssize_t i = 0; i < n_codes; i++) {
        le32_put(out + i * 4, self->rows[i]);
    }
    unsigned char *flat = (unsigned char *)PyBytes_AS_STRING(adjacency);
    unsigned char *offs = (unsigned char *)PyBytes_AS_STRING(offsets);
    Py_ssize_t at = 0;
    le32_put(offs, 0);
    for (Py_ssize_t cid = 0; cid < expanded; cid++) {
        const int32_t *adj = self->adj[cid];
        for (int32_t k = 0; k < self->adj_len[cid]; k++) {
            le32_put(flat + (at++) * 4, (uint32_t)adj[k]);
        }
        le32_put(offs + (cid + 1) * 4, (uint32_t)at);
    }
    return Py_BuildValue("(NNN)", rows, adjacency, offsets);
}

/* Validate a whole entry against this empty kernel, then intern its
 * rows in cid order and record the adjacency of cids 0..k-1. Nothing
 * is touched until every code, offset, eid and tid has been checked;
 * a repeated row or a memory error rolls the kernel back to empty. */
static PyObject *
KernelState_load_graph(KernelState *self, PyObject *args)
{
    Py_buffer rows, adjacency, offsets;
    PyObject *limits;
    Py_ssize_t n_edges;
    if (!PyArg_ParseTuple(args, "y*Oy*y*n", &rows, &limits, &adjacency,
                          &offsets, &n_edges)) {
        return NULL;
    }
    PyObject *result = NULL;
    uint32_t *bounds = NULL;
    PyObject *fast = NULL;
    int n_fields = self->n_fields;
    const unsigned char *codes = rows.buf;
    const unsigned char *flat = adjacency.buf;
    const unsigned char *offs = offsets.buf;

    if (self->row_count != 0) {
        PyErr_SetString(PyExc_ValueError, "load_graph needs an empty kernel");
        goto done;
    }
    if (rows.len % (4 * (Py_ssize_t)n_fields) != 0 || adjacency.len % 8 != 0 ||
        offsets.len % 4 != 0 || offsets.len == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "entry buffers are not whole rows, pairs and offsets");
        goto done;
    }
    Py_ssize_t n_rows = rows.len / (4 * (Py_ssize_t)n_fields);
    Py_ssize_t n_flat = adjacency.len / 4;
    Py_ssize_t k = offsets.len / 4 - 1;
    if (n_rows > INT32_MAX || n_flat > INT32_MAX || k > n_rows) {
        PyErr_SetString(PyExc_ValueError, "entry larger than its rows allow");
        goto done;
    }
    fast = PySequence_Fast(limits, "slot limits must be a sequence");
    if (fast == NULL) {
        goto done;
    }
    if (PySequence_Fast_GET_SIZE(fast) != n_fields) {
        PyErr_Format(PyExc_ValueError, "expected %d slot limits", n_fields);
        goto done;
    }
    bounds = PyMem_RawMalloc((size_t)n_fields * sizeof(uint32_t));
    if (bounds == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int i = 0; i < n_fields; i++) {
        long bound = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (bound == -1 && PyErr_Occurred()) {
            goto done;
        }
        if (bound < 0 || bound > (1L << FIELD_BITS)) {
            PyErr_Format(PyExc_ValueError, "slot limit %ld out of range",
                         bound);
            goto done;
        }
        bounds[i] = (uint32_t)bound;
    }
    for (Py_ssize_t cid = 0; cid < n_rows; cid++) {
        const unsigned char *row = codes + cid * n_fields * 4;
        for (int i = 0; i < n_fields; i++) {
            uint32_t code = le32_get(row + i * 4);
            if (code >= bounds[i]) {
                PyErr_Format(PyExc_ValueError,
                             "code %lu outside the table of slot %d",
                             (unsigned long)code, i);
                goto done;
            }
        }
    }
    if (le32_get(offs) != 0 || le32_get(offs + k * 4) != (uint32_t)n_flat) {
        PyErr_SetString(PyExc_ValueError,
                        "adjacency offsets do not span the adjacency");
        goto done;
    }
    for (Py_ssize_t cid = 0; cid < k; cid++) {
        uint32_t begin = le32_get(offs + cid * 4);
        uint32_t end = le32_get(offs + (cid + 1) * 4);
        if (end < begin || end > (uint32_t)n_flat || (end - begin) % 2) {
            PyErr_Format(PyExc_ValueError,
                         "adjacency offsets of configuration %zd are "
                         "not monotone pairs", cid);
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < n_flat; i += 2) {
        int32_t eid = (int32_t)le32_get(flat + i * 4);
        int32_t tid = (int32_t)le32_get(flat + (i + 1) * 4);
        if (eid < 0 || eid >= n_edges || tid < 0 || tid >= n_rows) {
            PyErr_Format(PyExc_ValueError,
                         "adjacency entry (%ld, %ld) out of range",
                         (long)eid, (long)tid);
            goto done;
        }
    }

    /* Size the arena and the hash table once, not by doubling. */
    while (self->row_cap < n_rows) {
        if (kernel_grow_rows(self) < 0) {
            PyErr_NoMemory();
            goto done;
        }
    }
    while (n_rows * 3 >= self->table_size * 2) {
        if (kernel_grow_table(self) < 0) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (Py_ssize_t cid = 0; cid < n_rows; cid++) {
        for (int i = 0; i < n_fields; i++) {
            self->scratch[i] = le32_get(codes + (cid * n_fields + i) * 4);
        }
        Py_ssize_t got = kernel_intern(self, self->scratch);
        if (got != cid) {
            kernel_reset_rows(self);
            if (got < 0) {
                PyErr_NoMemory();
            } else {
                PyErr_Format(PyExc_ValueError,
                             "row %zd repeats row %zd", cid, got);
            }
            goto done;
        }
    }
    for (Py_ssize_t cid = 0; cid < k; cid++) {
        uint32_t begin = le32_get(offs + cid * 4);
        int32_t len = (int32_t)(le32_get(offs + (cid + 1) * 4) - begin);
        int32_t *adj = NULL;
        if (len) {
            adj = PyMem_RawMalloc((size_t)len * sizeof(int32_t));
            if (adj == NULL) {
                kernel_reset_rows(self);
                PyErr_NoMemory();
                goto done;
            }
            for (int32_t j = 0; j < len; j++) {
                adj[j] = (int32_t)le32_get(flat + ((Py_ssize_t)begin + j) * 4);
            }
        }
        self->adj[cid] = adj;
        self->adj_len[cid] = len;
    }
    result = Py_None;
    Py_INCREF(result);

done:
    PyMem_RawFree(bounds);
    Py_XDECREF(fast);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&adjacency);
    PyBuffer_Release(&offsets);
    return result;
}

static PyObject *
KernelState_run_bfs(KernelState *self, PyObject *args)
{
    Py_ssize_t start_id;
    Py_ssize_t max_configurations;
    PyObject *on_round = Py_None;
    int threads = 1;
    if (!PyArg_ParseTuple(args, "nn|Oi", &start_id, &max_configurations,
                          &on_round, &threads)) {
        return NULL;
    }
    if (kernel_check_cid(self, start_id) < 0) {
        return NULL;
    }
    if (threads < 1) {
        threads = 1;
    } else if (threads > MAX_PLAN_THREADS) {
        threads = MAX_PLAN_THREADS;
    }
#ifndef REPRO_KERNEL_PTHREADS
    threads = 1;
#endif

    IntBuf order, parents, frontier, next_frontier;
    PlanJob jobs[MAX_PLAN_THREADS];
    unsigned char *flags = NULL;
    Py_ssize_t flags_cap = 0;
    PyObject *result = NULL;
    CommitCtx ctx;
    int complete = 1;
    Py_ssize_t rounds = 0;
    Py_ssize_t depth = 0;

    memset(jobs, 0, sizeof(jobs));
    memset(&ctx, 0, sizeof(ctx));
    order.data = parents.data = frontier.data = next_frontier.data = NULL;
    order.len = order.cap = parents.len = parents.cap = 0;
    frontier.len = frontier.cap = next_frontier.len = next_frontier.cap = 0;
    if (intbuf_init(&order, 256) < 0 || intbuf_init(&parents, 256) < 0 ||
        intbuf_init(&frontier, 64) < 0 || intbuf_init(&next_frontier, 64) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    ctx.order = &order;
    ctx.parents = &parents;
    ctx.next_frontier = &next_frontier;
    ctx.max_configurations = max_configurations;
    ctx.seen_cap = self->row_count;
    ctx.seen = PyMem_RawCalloc((size_t)(ctx.seen_cap ? ctx.seen_cap : 1), 1);
    if (ctx.seen == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    ctx.seen[start_id] = 1;
    ctx.seen_count = 1;
    if (intbuf_push(&order, (int32_t)start_id) < 0 ||
        intbuf_push(&frontier, (int32_t)start_id) < 0) {
        PyErr_NoMemory();
        goto done;
    }

    while (frontier.len) {
        Py_ssize_t width = frontier.len;
        if (on_round != Py_None) {
            PyObject *hook_result = PyObject_CallFunction(
                on_round, "nnn", depth, width, ctx.seen_count);
            if (hook_result == NULL) {
                goto done;
            }
            Py_DECREF(hook_result);
        }
        if (flags_cap < width) {
            unsigned char *grown = PyMem_RawRealloc(flags, (size_t)width);
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            flags = grown;
            flags_cap = width;
        }
        Py_ssize_t n_jobs = threads < width ? threads : width;
        Py_ssize_t chunk = (width + n_jobs - 1) / n_jobs;
        n_jobs = (width + chunk - 1) / chunk;
        for (Py_ssize_t j = 0; j < n_jobs; j++) {
            jobs[j].self = self;
            jobs[j].frontier = frontier.data;
            jobs[j].begin = j * chunk;
            jobs[j].end = (j + 1) * chunk < width ? (j + 1) * chunk : width;
            jobs[j].flags = flags;
            jobs[j].plan.len = 0;
            jobs[j].read = 0;
            jobs[j].oom = 0;
        }
        int oom = 0;
        int have_callbacks = 0;
        int verdict = COMMIT_DONE;
        /* Plan the whole frontier with the GIL released — across OS
         * threads when asked — and, when no cid needs a callback,
         * commit inside the same GIL-free region. */
        Py_BEGIN_ALLOW_THREADS
#ifdef REPRO_KERNEL_PTHREADS
        if (n_jobs > 1) {
            pthread_t tids[MAX_PLAN_THREADS];
            int spawned[MAX_PLAN_THREADS];
            for (Py_ssize_t j = 1; j < n_jobs; j++) {
                spawned[j] = pthread_create(&tids[j], NULL, plan_thread_main,
                                            &jobs[j]) == 0;
            }
            plan_block(&jobs[0]);
            for (Py_ssize_t j = 1; j < n_jobs; j++) {
                if (spawned[j]) {
                    pthread_join(tids[j], NULL);
                } else {
                    plan_block(&jobs[j]); /* spawn failed: run inline */
                }
            }
        } else {
            plan_block(&jobs[0]);
        }
#else
        plan_block(&jobs[0]);
#endif
        for (Py_ssize_t j = 0; j < n_jobs; j++) {
            oom |= jobs[j].oom;
        }
        if (!oom) {
            for (Py_ssize_t f = 0; f < width; f++) {
                if (flags[f] == PLAN_CALLBACK) {
                    have_callbacks = 1;
                    break;
                }
            }
            if (!have_callbacks) {
                verdict = commit_frontier(self, frontier.data, width, flags,
                                          jobs, chunk, &ctx);
            }
        }
        Py_END_ALLOW_THREADS
        if (oom) {
            PyErr_NoMemory();
            goto done;
        }
        if (have_callbacks) {
            verdict = commit_frontier(self, frontier.data, width, flags, jobs,
                                      chunk, &ctx);
        }
        if (verdict == COMMIT_OOM) {
            PyErr_NoMemory();
            goto done;
        }
        if (verdict == COMMIT_PYERR) {
            goto done;
        }
        if (verdict == COMMIT_TRUNCATED) {
            /* Budget exhausted mid-scan: stop exactly here, matching
             * the Python backend (later frontier members stay
             * unexpanded; rounds counts only fully completed
             * frontiers). */
            complete = 0;
            goto build;
        }
        rounds++;
        depth++;
        IntBuf swap = frontier;
        frontier = next_frontier;
        next_frontier = swap;
        next_frontier.len = 0;
    }

build:;
    PyObject *order_list = intbuf_as_list(order.data, order.len);
    if (order_list == NULL) {
        goto done;
    }
    PyObject *parents_list = intbuf_as_list(parents.data, parents.len);
    if (parents_list == NULL) {
        Py_DECREF(order_list);
        goto done;
    }
    result = Py_BuildValue("(NNOnn)", order_list, parents_list,
                           complete ? Py_True : Py_False, ctx.expansions,
                           rounds);

done:
    PyMem_RawFree(ctx.seen);
    PyMem_RawFree(flags);
    for (int j = 0; j < MAX_PLAN_THREADS; j++) {
        PyMem_RawFree(jobs[j].plan.data);
    }
    intbuf_free(&order);
    intbuf_free(&parents);
    intbuf_free(&frontier);
    intbuf_free(&next_frontier);
    return result;
}

/* ---------------------------------------------------------------------
 * Type plumbing
 * ------------------------------------------------------------------ */

static int
KernelState_init(KernelState *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"n_fields", "n_processes", "resolve_invoke",
                               "compute_deltas", NULL};
    int n_fields, n_processes;
    PyObject *resolve_invoke, *compute_deltas;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO", keywords,
                                     &n_fields, &n_processes, &resolve_invoke,
                                     &compute_deltas)) {
        return -1;
    }
    if (n_fields <= 0 || n_processes <= 0 || 2 * n_processes > n_fields) {
        PyErr_SetString(PyExc_ValueError,
                        "need n_fields >= 2 * n_processes > 0");
        return -1;
    }
    self->n_fields = n_fields;
    self->n_processes = n_processes;
    Py_INCREF(resolve_invoke);
    Py_XSETREF(self->resolve_invoke, resolve_invoke);
    Py_INCREF(compute_deltas);
    Py_XSETREF(self->compute_deltas, compute_deltas);

    self->row_cap = 256;
    self->rows = PyMem_RawMalloc(
        (size_t)self->row_cap * (size_t)n_fields * sizeof(uint32_t));
    self->row_hashes =
        PyMem_RawMalloc((size_t)self->row_cap * sizeof(uint64_t));
    self->adj = PyMem_RawMalloc((size_t)self->row_cap * sizeof(int32_t *));
    self->adj_len = PyMem_RawMalloc((size_t)self->row_cap * sizeof(int32_t));
    self->src_row = PyMem_RawMalloc((size_t)n_fields * sizeof(uint32_t));
    self->scratch = PyMem_RawMalloc((size_t)n_fields * sizeof(uint32_t));
    if (self->rows == NULL || self->row_hashes == NULL || self->adj == NULL ||
        self->adj_len == NULL || self->src_row == NULL ||
        self->scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < self->row_cap; i++) {
        self->adj[i] = NULL;
        self->adj_len[i] = -1;
    }
    self->row_count = 0;
    self->table_size = 1024;
    self->table = PyMem_RawMalloc((size_t)self->table_size * sizeof(int32_t));
    if (self->table == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < self->table_size; i++) {
        self->table[i] = -1;
    }
    if (u64map_init(&self->invoke, 256) < 0 ||
        u64map_init(&self->deltas, 1024) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    self->delta_sets = NULL;
    self->ds_count = self->ds_cap = 0;
    return 0;
}

static int
KernelState_traverse(KernelState *self, visitproc visit, void *arg)
{
    Py_VISIT(self->resolve_invoke);
    Py_VISIT(self->compute_deltas);
    return 0;
}

static int
KernelState_clear(KernelState *self)
{
    Py_CLEAR(self->resolve_invoke);
    Py_CLEAR(self->compute_deltas);
    return 0;
}

static void
KernelState_dealloc(KernelState *self)
{
    PyObject_GC_UnTrack(self);
    KernelState_clear(self);
    PyMem_RawFree(self->rows);
    PyMem_RawFree(self->row_hashes);
    PyMem_RawFree(self->table);
    if (self->adj != NULL) {
        for (Py_ssize_t i = 0; i < self->row_cap; i++) {
            PyMem_RawFree(self->adj[i]);
        }
    }
    PyMem_RawFree(self->adj);
    PyMem_RawFree(self->adj_len);
    u64map_free(&self->invoke);
    u64map_free(&self->deltas);
    for (Py_ssize_t i = 0; i < self->ds_count; i++) {
        PyMem_RawFree(self->delta_sets[i].vals);
    }
    PyMem_RawFree(self->delta_sets);
    PyMem_RawFree(self->src_row);
    PyMem_RawFree(self->scratch);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
KernelState_length(KernelState *self)
{
    return self->row_count;
}

static PyMethodDef KernelState_methods[] = {
    {"intern_row", (PyCFunction)KernelState_intern_row, METH_O,
     "The cid of a code row, interning it if new."},
    {"find_row", (PyCFunction)KernelState_find_row, METH_O,
     "The cid of a code row, or None - never interns."},
    {"row", (PyCFunction)KernelState_row, METH_O,
     "The code row of an interned cid."},
    {"expand", (PyCFunction)KernelState_expand, METH_O,
     "Flat [eid, tid, ...] adjacency of cid (computed once)."},
    {"adjacency", (PyCFunction)KernelState_adjacency, METH_O,
     "The recorded adjacency of cid, or None - never expands."},
    {"expand_pid", (PyCFunction)KernelState_expand_pid, METH_VARARGS,
     "Flat [eid, tid, ...] for one pid; does not record adjacency."},
    {"status_key", (PyCFunction)KernelState_status_key, METH_O,
     "The process status codes of cid as a tuple."},
    {"run_bfs", (PyCFunction)KernelState_run_bfs, METH_VARARGS,
     "Batch BFS: (order, parents, complete, expansions, rounds)."},
    {"export_graph", (PyCFunction)KernelState_export_graph, METH_O,
     "(rows, adjacency, offsets) little-endian buffers of the rows and "
     "the adjacency of cids below the argument."},
    {"load_graph", (PyCFunction)KernelState_load_graph, METH_VARARGS,
     "Bulk-load export_graph buffers into an empty kernel (validated)."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods KernelState_as_sequence = {
    .sq_length = (lenfunc)KernelState_length,
};

static PyTypeObject KernelStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.analysis.kernel._ckernel.KernelState",
    .tp_basicsize = sizeof(KernelState),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled packed-state exploration kernel.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)KernelState_init,
    .tp_dealloc = (destructor)KernelState_dealloc,
    .tp_traverse = (traverseproc)KernelState_traverse,
    .tp_clear = (inquiry)KernelState_clear,
    .tp_methods = KernelState_methods,
    .tp_as_sequence = &KernelState_as_sequence,
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.analysis.kernel._ckernel",
    .m_doc = "Accelerated packed-state exploration kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&KernelStateType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL) {
        return NULL;
    }
#ifdef REPRO_KERNEL_PTHREADS
    int has_threads = 1;
#else
    int has_threads = 0;
#endif
    if (PyModule_AddIntConstant(module, "FIELD_BITS", FIELD_BITS) < 0 ||
        PyModule_AddIntConstant(module, "HAS_THREADS", has_threads) < 0 ||
        PyModule_AddIntConstant(module, "MAX_THREADS", MAX_PLAN_THREADS) < 0 ||
        PyModule_AddStringConstant(module, "NAME", "compiled") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&KernelStateType);
    if (PyModule_AddObject(module, "KernelState",
                           (PyObject *)&KernelStateType) < 0) {
        Py_DECREF(&KernelStateType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
