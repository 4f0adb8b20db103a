/* Native twins of the six whole-graph methods of the pure-Python kernel
   object, for graphs of order <= 64.

   enumerate_pms(rows, cap) lists the perfect matchings as
   pure.Kernel.enumerate_pms does, returning None where that raises;
   forcing_numbers(rows, matchings) runs the two-ended search of
   pure.Kernel.forcing_numbers, with its own count2 memo, and
   switch_pass(rows, matchings) and matching_facts(rows, matchings,
   forcing) give what the methods of those names give, by looking up each
   matching's 4-cycle neighbours by their edge-set keys (switch_pass
   returns the sorted switch edges and builds no adjacency);
   vertex_connectivity(rows) runs the unit flows of
   pure.Kernel.vertex_connectivity on the split network, and
   bicritical(rows) the two-vertex deletion probes of pure.Kernel.bicritical
   through a count2 memo of its own.  The pure docstrings say what is
   computed.  A vertex set is one 64-bit mask, a set of split-network nodes
   one 128-bit mask; a set of the given matchings, or of a graph's edges,
   is a bitset of `words` 64-bit words.  The package builds this
   file on first import and serves it through NativeKernel (see
   __init__.py).  */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

#define MAX_ORDER 64
#define GOLDEN 0x9E3779B97F4A7C15ULL

static int
ctz(u64 x)
{
    return __builtin_ctzll(x);
}

/* Every vertex of a graph of the given order; a shift by 64 is undefined. */
static u64
full_mask(int order)
{
    return order == 64 ? ~0ULL : (1ULL << order) - 1;
}

/* ---------------------------------------------------------------------
   input: adjacency rows and flat matchings */

static int
parse_rows(PyObject *obj, u64 *rows, int *order)
{
    PyObject *seq = PySequence_Fast(obj, "rows must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAX_ORDER) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "order above 64");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        rows[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (rows[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (n < MAX_ORDER && rows[i] >> n) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "row bit at or above the order");
            return -1;
        }
    }
    Py_DECREF(seq);
    *order = (int)n;
    return 0;
}

/* Matchings as edge codes u * 64 + v, u < v, in the order given; `*edges`
   per matching, the same for all of them.  An edge may come as (v, u); a
   vertex may not come twice in one matching.
   Returns a malloc'd array of count * edges codes, or NULL with an
   exception set.  `*count` is 0 for no matchings (and the result is a
   non-NULL empty array). */
static uint16_t *
parse_matchings(PyObject *obj, int order, Py_ssize_t *count, int *edges)
{
    PyObject *seq = PySequence_Fast(obj, "matchings must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t nm = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t width = -1;
    uint16_t *codes = NULL;
    for (Py_ssize_t i = 0; i < nm; i++) {
        PyObject *flat = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i),
                                         "a matching must be a sequence");
        if (flat == NULL)
            goto fail;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(flat);
        if (width < 0) {
            if (len & 1 || len > order) {
                Py_DECREF(flat);
                PyErr_SetString(PyExc_ValueError, "matching length");
                goto fail;
            }
            width = len / 2;
            codes = PyMem_Malloc((size_t)(nm * width + 1) * sizeof *codes);
            if (codes == NULL) {
                Py_DECREF(flat);
                PyErr_NoMemory();
                goto fail;
            }
        }
        else if (len != 2 * width) {
            Py_DECREF(flat);
            PyErr_SetString(PyExc_ValueError, "matchings differ in length");
            goto fail;
        }
        uint16_t *own = codes + i * width;
        u64 covered = 0;
        for (Py_ssize_t e = 0; e < width; e++) {
            long u = PyLong_AsLong(PySequence_Fast_GET_ITEM(flat, 2 * e));
            long v = u == -1 && PyErr_Occurred()
                         ? -1 : PyLong_AsLong(PySequence_Fast_GET_ITEM(flat, 2 * e + 1));
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(flat);
                goto fail;
            }
            if (u < 0 || v < 0 || u >= order || v >= order || u == v) {
                Py_DECREF(flat);
                PyErr_SetString(PyExc_ValueError, "vertex out of range");
                goto fail;
            }
            u64 ends = (1ULL << u) | (1ULL << v);
            if (covered & ends) {
                Py_DECREF(flat);
                PyErr_SetString(PyExc_ValueError, "vertex repeated in a matching");
                goto fail;
            }
            covered |= ends;
            own[e] = u < v ? (uint16_t)(u * 64 + v) : (uint16_t)(v * 64 + u);
        }
        Py_DECREF(flat);
    }
    Py_DECREF(seq);
    if (codes == NULL)
        codes = PyMem_Malloc(1);
    if (codes == NULL)
        return (uint16_t *)PyErr_NoMemory();
    *count = nm;
    *edges = width < 0 ? 0 : (int)width;
    return codes;
fail:
    PyMem_Free(codes);
    Py_DECREF(seq);
    return NULL;
}

static u64
code_mask(uint16_t code)
{
    return (1ULL << (code >> 6)) | (1ULL << (code & 63));
}

/* ---------------------------------------------------------------------
   perfect matchings of the whole graph, listed */

/* The flat tuple (u0, v0, u1, v1, ...) of `2 * k` vertices. */
static PyObject *
flat_tuple(const uint8_t *flat, int k)
{
    PyObject *t = PyTuple_New(2 * k);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < 2 * k; i++) {
        PyObject *v = PyLong_FromLong(flat[i]);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* The graph's perfect matchings in the order of pure.Kernel.enumerate_pms,
   or None past `cap` of them.  Depth d matches the lowest vertex of
   left[d], the vertices still uncovered, to each of its neighbours in
   todo[d] in ascending order; every 2^16 steps pending signals are run,
   so that Ctrl-C stops a long search. */
static PyObject *
enumerate_pms(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *cap_obj;
    if (!PyArg_ParseTuple(args, "OO", &rows_obj, &cap_obj))
        return NULL;
    u64 rows[MAX_ORDER];
    int order;
    if (parse_rows(rows_obj, rows, &order) < 0)
        return NULL;
    int overflow;
    long long cap = PyLong_AsLongLongAndOverflow(cap_obj, &overflow);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        cap = overflow > 0 ? LLONG_MAX : -1;
    PyObject *out = PyList_New(0);
    if (out == NULL || order & 1)
        return out;
    int k = order / 2, d = 0, entered = 1;  /* entered: depth d is new */
    u64 left[MAX_ORDER / 2 + 1], todo[MAX_ORDER / 2];
    uint8_t flat[MAX_ORDER];
    left[0] = full_mask(order);
    unsigned long steps = 0;
    while (d >= 0) {
        if (++steps % 65536 == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        if (entered && d == k) {  /* every vertex is matched */
            if (PyList_GET_SIZE(out) >= cap) {
                Py_DECREF(out);
                Py_RETURN_NONE;
            }
            PyObject *t = flat_tuple(flat, k);
            if (t == NULL || PyList_Append(out, t) < 0) {
                Py_XDECREF(t);
                goto fail;
            }
            Py_DECREF(t);
            d--;
            entered = 0;
            continue;
        }
        if (entered) {
            flat[2 * d] = (uint8_t)ctz(left[d]);
            todo[d] = rows[flat[2 * d]] & left[d] & ~(1ULL << flat[2 * d]);
        }
        if (todo[d] == 0) {
            d--;
            entered = 0;
            continue;
        }
        u64 v_bit = todo[d] & -todo[d];
        todo[d] ^= v_bit;
        flat[2 * d + 1] = (uint8_t)ctz(v_bit);
        left[d + 1] = left[d] ^ (1ULL << flat[2 * d]) ^ v_bit;
        d++;
        entered = 1;
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

/* ---------------------------------------------------------------------
   perfect matchings of an induced subgraph, capped at 2, memoized */

typedef struct {
    const u64 *rows;
    u64 *keys;        /* 0 marks a free slot: the empty set is never stored */
    uint8_t *counts;
    size_t cap;       /* a power of two, at least twice `used` */
    size_t used;
    int shift;        /* 64 - log2(cap) */
} Memo;

static size_t
memo_slot(const Memo *m, u64 key)
{
    size_t s = (size_t)((key * GOLDEN) >> m->shift);
    while (m->keys[s] != 0 && m->keys[s] != key)
        s = (s + 1) & (m->cap - 1);
    return s;
}

static int
memo_init(Memo *m, const u64 *rows)
{
    m->rows = rows;
    m->cap = 1024;
    m->shift = 64 - 10;
    m->used = 0;
    m->keys = PyMem_Calloc(m->cap, sizeof *m->keys);
    m->counts = PyMem_Malloc(m->cap);
    return m->keys != NULL && m->counts != NULL ? 0 : -1;
}

static void
memo_free(Memo *m)
{
    PyMem_Free(m->keys);
    PyMem_Free(m->counts);
}

static int
memo_grow(Memo *m)
{
    Memo big = *m;
    big.cap = m->cap * 2;
    big.shift = m->shift - 1;
    big.keys = PyMem_Calloc(big.cap, sizeof *big.keys);
    big.counts = PyMem_Malloc(big.cap);
    if (big.keys == NULL || big.counts == NULL) {
        memo_free(&big);
        return -1;
    }
    for (size_t i = 0; i < m->cap; i++) {
        if (m->keys[i] != 0) {
            size_t s = memo_slot(&big, m->keys[i]);
            big.keys[s] = m->keys[i];
            big.counts[s] = m->counts[i];
        }
    }
    memo_free(m);
    *m = big;
    return 0;
}

/* -1 when out of memory, or with the exception set when a signal handler
   raises: pending signals are run every 2^16 new entries, so that Ctrl-C
   stops a long search. */
static int
count2(Memo *m, u64 mask)
{
    if (mask == 0)
        return 1;
    size_t s = memo_slot(m, mask);
    if (m->keys[s] == mask)
        return m->counts[s];
    u64 rest = mask & (mask - 1);
    u64 mates = m->rows[ctz(mask)] & rest;
    int total = 0;
    while (mates) {
        u64 v = mates & -mates;
        mates ^= v;
        int sub = count2(m, rest ^ v);
        if (sub < 0)
            return -1;
        total += sub;
        if (total >= 2) {
            total = 2;
            break;
        }
    }
    if (2 * (m->used + 1) > m->cap && memo_grow(m) < 0)
        return -1;
    s = memo_slot(m, mask);
    m->keys[s] = mask;
    m->counts[s] = (uint8_t)total;
    if (++m->used % 65536 == 0 && PyErr_CheckSignals() < 0)
        return -1;
    return total;
}

/* ---------------------------------------------------------------------
   forcing numbers */

/* A frontier: `count` entries of `width` ascending edge indices each.
   `cap` counts indices, so a spent frontier's storage serves any width. */
typedef struct {
    uint16_t *idx;
    size_t count, cap;
    int width;
} Level;

static int
level_push(Level *l, const uint16_t *entry, uint16_t last)
{
    size_t w = (size_t)l->width;
    if ((l->count + 1) * w > l->cap) {
        size_t cap = 2 * l->cap > 64 * w ? 2 * l->cap : 64 * w;
        uint16_t *idx = PyMem_Realloc(l->idx, cap * sizeof *idx);
        if (idx == NULL)
            return -1;
        l->idx = idx;
        l->cap = cap;
    }
    uint16_t *dst = l->idx + l->count * w;
    if (w > 1)
        memcpy(dst, entry, (w - 1) * sizeof *dst);
    dst[w - 1] = last;
    l->count++;
    return 0;
}

static u64
candidates(const Level *l, int edges)
{
    if (l->width == 0)
        return (u64)l->count * (u64)edges;
    u64 total = 0;
    for (size_t e = 0; e < l->count; e++)
        total += (u64)(edges - 1 - l->idx[(e + 1) * l->width - 1]);
    return total;
}

static void
assign(long *out, const u64 *bits, size_t words, long value)
{
    for (size_t w = 0; w < words; w++)
        for (u64 b = bits[w]; b; b &= b - 1)
            out[w * 64 + ctz(b)] = value;
}

static int
any(const u64 *bits, size_t words)
{
    for (size_t w = 0; w < words; w++)
        if (bits[w])
            return 1;
    return 0;
}

/* The search state shared by both ends. */
typedef struct {
    Memo memo;
    u64 full;
    int edges;            /* distinct edges over all the matchings */
    u64 *masks;           /* their vertex masks, ascending */
    u64 *holders;         /* edges x words: which matchings hold each edge */
    size_t words;
    u64 *unresolved;      /* matchings without a number yet */
    u64 *held;            /* scratch: the holders of one entry */
    u64 *both;            /* scratch: the holders of one extension */
} Search;

/* The vertex mask of an entry, and in s->held its unresolved holders;
   returns whether it has any. */
static int
entry_holders(Search *s, const uint16_t *entry, int width, u64 *union_)
{
    u64 u = 0;
    memcpy(s->held, s->unresolved, s->words * sizeof *s->held);
    for (int i = 0; i < width; i++) {
        const u64 *h = s->holders + entry[i] * s->words;
        u |= s->masks[entry[i]];
        for (size_t w = 0; w < s->words; w++)
            s->held[w] &= h[w];
    }
    *union_ = u;
    return any(s->held, s->words);
}

/* s->both = s->held & the holders of edge j & s->unresolved; returns
   whether it has any. */
static int
extension_holders(Search *s, int j)
{
    const u64 *h = s->holders + (size_t)j * s->words;
    u64 seen = 0;
    for (size_t w = 0; w < s->words; w++) {
        s->both[w] = s->held[w] & h[w] & s->unresolved[w];
        seen |= s->both[w];
    }
    return seen != 0;
}

/* Removed sets one edge larger: a set that forces resolves its
   unresolved holders, and the rest are the next frontier.  -1 when out
   of memory. */
static int
scan_step(Search *s, const Level *scanned, Level *next)
{
    int width = scanned->width;
    for (size_t e = 0; e < scanned->count; e++) {
        const uint16_t *entry = width ? scanned->idx + e * width : NULL;
        u64 union_;
        if (!entry_holders(s, entry, width, &union_))
            continue;
        for (int j = width ? entry[width - 1] + 1 : 0; j < s->edges; j++) {
            if (s->masks[j] & union_ || !extension_holders(s, j))
                continue;
            int c = count2(&s->memo, s->full ^ union_ ^ s->masks[j]);
            if (c < 0)
                return -1;
            if (c <= 1) {
                for (size_t w = 0; w < s->words; w++)
                    s->unresolved[w] &= ~s->both[w];
            }
            else if (level_push(next, entry, (uint16_t)j) < 0)
                return -1;
        }
    }
    return 0;
}

/* Uniquely matchable kept sets one edge larger, as the next frontier, and
   in kept_by the unresolved matchings that hold one.  -1 when out of
   memory. */
static int
grow_step(Search *s, const Level *grown, Level *next, u64 *kept_by)
{
    int width = grown->width;
    memset(kept_by, 0, s->words * sizeof *kept_by);
    for (size_t e = 0; e < grown->count; e++) {
        const uint16_t *entry = grown->idx + e * width;
        u64 union_;
        if (!entry_holders(s, entry, width, &union_))
            continue;
        for (int j = entry[width - 1] + 1; j < s->edges; j++) {
            if (s->masks[j] & union_ || !extension_holders(s, j))
                continue;
            int c = count2(&s->memo, union_ | s->masks[j]);
            if (c < 0)
                return -1;
            if (c == 1) {
                if (level_push(next, entry, (uint16_t)j) < 0)
                    return -1;
                for (size_t w = 0; w < s->words; w++)
                    kept_by[w] |= s->both[w];
            }
        }
    }
    return 0;
}

static int
cmp_u64(const void *a, const void *b)
{
    u64 x = *(const u64 *)a, y = *(const u64 *)b;
    return (x > y) - (x < y);
}

/* The search of pure.Kernel.forcing_numbers over nm matchings of k edges
   each; -1 when out of memory or interrupted, as in count2. */
static int
search(Search *s, const uint16_t *codes, Py_ssize_t nm, int k, long *out)
{
    int16_t index_of[64 * 64];
    int result = -1;
    Level scanned = {0}, grown = {0}, next = {0};
    u64 *scratch = NULL;

    int c = count2(&s->memo, s->full);
    if (c < 0)
        return -1;
    if (c <= 1)
        return 0;  /* out is all zeros */

    /* the distinct matching edges, by ascending vertex mask */
    u64 *masks = PyMem_Malloc(64 * 32 * sizeof *masks);
    if (masks == NULL)
        return -1;
    s->masks = masks;
    s->edges = 0;
    memset(index_of, 0xff, sizeof index_of);
    for (Py_ssize_t i = 0; i < nm * k; i++) {
        if (index_of[codes[i]] < 0) {
            index_of[codes[i]] = 0;
            masks[s->edges++] = code_mask(codes[i]);
        }
    }
    qsort(masks, (size_t)s->edges, sizeof *masks, cmp_u64);
    for (int j = 0; j < s->edges; j++) {
        u64 m = masks[j];
        int u = ctz(m), v = 63 - __builtin_clzll(m);
        index_of[u * 64 + v] = (int16_t)j;
    }

    s->words = ((size_t)nm + 63) / 64;
    s->holders = PyMem_Calloc((size_t)s->edges * s->words, sizeof(u64));
    scratch = PyMem_Calloc(5 * s->words, sizeof(u64));
    if (s->holders == NULL || scratch == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < nm; i++)
        for (int e = 0; e < k; e++)
            s->holders[index_of[codes[i * k + e]] * s->words + i / 64] |=
                1ULL << (i % 64);
    s->unresolved = scratch;
    s->held = scratch + s->words;
    s->both = scratch + 2 * s->words;
    u64 *before = scratch + 3 * s->words;
    u64 *kept_by = scratch + 4 * s->words;
    for (Py_ssize_t i = 0; i < nm; i++)
        s->unresolved[i / 64] |= 1ULL << (i % 64);

    /* an unresolved matching is forced by no removed set of size <= sz
       and holds a uniquely matchable kept set of size t */
    scanned.width = 0;
    scanned.count = 1;  /* the empty set; width 0 entries hold no indices */
    grown.width = 1;
    for (int j = 0; j < s->edges; j++) {
        uint16_t idx = (uint16_t)j;
        if (level_push(&grown, &idx, idx) < 0)
            goto done;
    }
    int sz = 0, t = 1;
    while (any(s->unresolved, s->words) && sz + 1 < k - t) {
        Level *from = candidates(&scanned, s->edges) < candidates(&grown, s->edges)
                          ? &scanned : &grown;
        next.count = 0;
        next.width = from->width + 1;
        if (from == &scanned) {
            memcpy(before, s->unresolved, s->words * sizeof *before);
            if (scan_step(s, &scanned, &next) < 0)
                goto done;
            sz++;
            for (size_t w = 0; w < s->words; w++)
                before[w] &= ~s->unresolved[w];
            assign(out, before, s->words, sz);
        }
        else {
            if (grow_step(s, &grown, &next, kept_by) < 0)
                goto done;
            for (size_t w = 0; w < s->words; w++) {
                before[w] = s->unresolved[w] & ~kept_by[w];
                s->unresolved[w] &= kept_by[w];
            }
            assign(out, before, s->words, k - t);
            t++;
        }
        Level spent = *from;  /* recycle the old frontier's storage */
        *from = next;
        next = spent;
    }
    assign(out, s->unresolved, s->words, sz + 1);
    result = 0;
done:
    PyMem_Free(scanned.idx);
    PyMem_Free(grown.idx);
    PyMem_Free(next.idx);
    PyMem_Free(s->holders);
    PyMem_Free(scratch);
    PyMem_Free(masks);
    return result;
}

static PyObject *
forcing_numbers(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *matchings_obj;
    if (!PyArg_ParseTuple(args, "OO", &rows_obj, &matchings_obj))
        return NULL;
    u64 rows[MAX_ORDER];
    int order;
    if (parse_rows(rows_obj, rows, &order) < 0)
        return NULL;
    Py_ssize_t nm;
    int k;
    uint16_t *codes = parse_matchings(matchings_obj, order, &nm, &k);
    if (codes == NULL)
        return NULL;
    PyObject *result = NULL;
    long *out = PyMem_Calloc((size_t)nm + 1, sizeof *out);
    Search s = {0};
    s.full = full_mask(order);
    if (out == NULL || memo_init(&s.memo, rows) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    if (nm > 0 && search(&s, codes, nm, k, out) < 0) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    result = PyList_New(nm);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < nm; i++) {
        PyObject *f = PyLong_FromLong(out[i]);
        if (f == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, f);
    }
done:
    memo_free(&s.memo);
    PyMem_Free(out);
    PyMem_Free(codes);
    return result;
}

/* ---------------------------------------------------------------------
   switch pass and matching facts */

/* The graph, its edges ranked in (u, v) order, and the matchings as edge
   codes and as keys, the sets of their edges' ranks; then what the switch
   pass finds: each switch edge (j, i), j < i, as the key j << 32 | i, so
   that the keys sort as the edges do, and each matching's switched pairs. */
typedef struct {
    u64 rows[MAX_ORDER];
    int order;
    Py_ssize_t nm;
    int k;                        /* edges per matching */
    uint16_t *codes;
    int16_t rank[64 * 64];        /* of u-v at u * 64 + v and v * 64 + u */
    uint16_t edges[64 * 63 / 2];  /* by rank, the codes */
    int count;                    /* edges of the graph */
    size_t words;
    u64 *keys;                    /* nm keys, one after the other */
    u64 *pairs;
    size_t pairs_count, pairs_cap;
    long *switched;
} Switch;

static void
switch_free(Switch *s)
{
    PyMem_Free(s->switched);
    PyMem_Free(s->pairs);
    PyMem_Free(s->keys);
    PyMem_Free(s->codes);
}

/* Parses the rows and matchings into a zeroed Switch, ranks the graph's
   edges and keys the matchings; -1 with an exception set, also for a
   matching edge not in the graph.  switch_free frees it either way. */
static int
switch_input(PyObject *rows_obj, PyObject *matchings_obj, Switch *s)
{
    if (parse_rows(rows_obj, s->rows, &s->order) < 0)
        return -1;
    s->codes = parse_matchings(matchings_obj, s->order, &s->nm, &s->k);
    if (s->codes == NULL)
        return -1;
    memset(s->rank, 0xff, sizeof s->rank);
    for (int u = 0; u < s->order; u++)
        for (u64 later = s->rows[u] >> u >> 1; later; later &= later - 1) {
            int v = u + 1 + ctz(later);
            s->rank[u * 64 + v] = s->rank[v * 64 + u] = (int16_t)s->count;
            s->edges[s->count++] = (uint16_t)(u * 64 + v);
        }
    s->words = ((size_t)s->count + 63) / 64;
    s->keys = PyMem_Calloc((size_t)s->nm * s->words + 1, sizeof *s->keys);
    if (s->keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < s->nm * s->k; i++) {
        int r = s->rank[s->codes[i]];
        if (r < 0) {
            PyErr_SetString(PyExc_ValueError, "matching edge not in the graph");
            return -1;
        }
        s->keys[(size_t)(i / s->k) * s->words + r / 64] |= 1ULL << (r % 64);
    }
    return 0;
}

static void
flip(u64 *key, int rank)
{
    key[rank / 64] ^= 1ULL << (rank % 64);
}

/* In a table of 2^bits matching indices, -1 for a free slot, open-addressed
   by the matchings' keys: the slot that holds the matching with this key,
   or the free slot where it would go. */
static size_t
key_slot(const int32_t *slots, int bits, const u64 *keys, size_t words,
         const u64 *key)
{
    u64 h = 0;
    for (size_t w = 0; w < words; w++)
        h = (h ^ key[w]) * GOLDEN;
    size_t mask = ((size_t)1 << bits) - 1;
    for (size_t slot = (size_t)(h >> (64 - bits));; slot = (slot + 1) & mask) {
        if (slots[slot] < 0)
            return slot;
        const u64 *held = keys + (size_t)slots[slot] * words;
        size_t w = 0;
        while (w < words && held[w] == key[w])
            w++;
        if (w == words)
            return slot;
    }
}

/* The switch pass: the switch edges of the matchings into s->pairs and
   their switched-pair counts into s->switched.  Each matching is keyed
   once in a table of 4 to 8 * nm slots, sparse enough that a lookup
   mostly probes one slot.  For each pair of its edges a-b, c-d, each
   4-cycle a-b-d-c or a-b-c-d whose other two edges the graph has is
   flipped into its key, and the key looked up: a hit is a neighbour, and
   the pair is switched iff either cycle hits.  Two neighbours differ on
   exactly one 4-cycle, so an edge (j, i), j < i, is found once, from i; a
   matching missing from the list is a miss.  -1 with an exception set on
   failure. */
static int
switch_pairs(Switch *s)
{
    if (s->nm > INT32_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "too many matchings");
        return -1;
    }
    const size_t words = s->words;  /* a size_t the stores below may alias */
    int bits = 4;
    while (((size_t)1 << bits) < 4 * (size_t)s->nm)
        bits++;
    int32_t *slots = PyMem_Malloc(((size_t)1 << bits) * sizeof *slots);
    s->switched = PyMem_Calloc((size_t)s->nm + 1, sizeof *s->switched);
    if (slots == NULL || s->switched == NULL) {
        PyMem_Free(slots);
        PyErr_NoMemory();
        return -1;
    }
    memset(slots, 0xff, ((size_t)1 << bits) * sizeof *slots);
    for (int32_t i = 0; i < s->nm; i++) {
        size_t slot = key_slot(slots, bits, s->keys, words,
                               s->keys + (size_t)i * words);
        if (slots[slot] < 0)
            slots[slot] = i;
    }

    u64 probe[64 * 63 / 2 / 64 + 1];
    for (int32_t i = 0; i < s->nm; i++) {
        /* room for an edge from each 4-cycle of each pair of edges */
        size_t room = s->pairs_count + (size_t)s->k * s->k;
        if (room > s->pairs_cap) {
            u64 *more = PyMem_Realloc(s->pairs, 2 * room * sizeof *more);
            if (more == NULL) {
                PyMem_Free(slots);
                PyErr_NoMemory();
                return -1;
            }
            s->pairs = more;
            s->pairs_cap = 2 * room;
        }
        u64 *found = s->pairs;
        size_t count = s->pairs_count;
        long pairs_hit = 0;
        const uint16_t *own = s->codes + (size_t)i * s->k;
        memcpy(probe, s->keys + (size_t)i * words, words * sizeof *probe);
        for (int x = 0; x < s->k; x++) {
            int a = own[x] >> 6, b = own[x] & 63;
            flip(probe, s->rank[own[x]]);
            for (int y = x + 1; y < s->k; y++) {
                int c = own[y] >> 6, d = own[y] & 63;
                int hit = 0;
                flip(probe, s->rank[own[y]]);
                for (int cycle = 0; cycle < 2; cycle++) {
                    int p = s->rank[a * 64 + (cycle ? d : c)];
                    int q = s->rank[b * 64 + (cycle ? c : d)];
                    if (p < 0 || q < 0)
                        continue;
                    flip(probe, p);
                    flip(probe, q);
                    size_t slot = key_slot(slots, bits, s->keys, words, probe);
                    int32_t j = slots[slot];
                    flip(probe, p);
                    flip(probe, q);
                    hit |= j >= 0;
                    found[count] = (u64)j << 32 | (u64)i;
                    count += j >= 0 && j < i;
                }
                flip(probe, s->rank[own[y]]);
                pairs_hit += hit;
            }
            flip(probe, s->rank[own[x]]);
        }
        s->pairs_count = count;
        s->switched[i] = pairs_hit;
    }
    PyMem_Free(slots);
    return 0;
}

/* The switch edges (j, i), j < i, sorted by their keys, as one list of
   2-tuples that share one int object per index. */
static PyObject *
switch_pass(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *matchings_obj;
    if (!PyArg_ParseTuple(args, "OO", &rows_obj, &matchings_obj))
        return NULL;
    Switch s = {0};
    PyObject *edges = NULL;
    PyObject **ints = NULL;
    if (switch_input(rows_obj, matchings_obj, &s) < 0 || switch_pairs(&s) < 0)
        goto done;
    if (s.pairs_count > 0)  /* qsort takes no NULL array */
        qsort(s.pairs, s.pairs_count, sizeof *s.pairs, cmp_u64);
    ints = PyMem_Calloc((size_t)s.nm + 1, sizeof *ints);
    if (ints == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < s.nm; i++)
        if ((ints[i] = PyLong_FromSsize_t(i)) == NULL)
            goto done;

    edges = PyList_New((Py_ssize_t)s.pairs_count);
    if (edges == NULL)
        goto done;
    for (size_t p = 0; p < s.pairs_count; p++) {
        u64 key = s.pairs[p];
        PyObject *edge = PyTuple_Pack(2, ints[key >> 32], ints[(uint32_t)key]);
        if (edge == NULL) {
            Py_CLEAR(edges);
            goto done;
        }
        PyList_SET_ITEM(edges, (Py_ssize_t)p, edge);
    }
done:
    if (ints != NULL)
        for (Py_ssize_t i = 0; i < s.nm; i++)
            Py_XDECREF(ints[i]);
    PyMem_Free(ints);
    switch_free(&s);
    return edges;
}

/* forcing numbers, one per matching; -1 with an exception set */
static int
parse_forcing(PyObject *obj, Py_ssize_t nm, long *forcing)
{
    PyObject *seq = PySequence_Fast(obj, "forcing must be a sequence");
    if (seq == NULL)
        return -1;
    int result = -1;
    if (PySequence_Fast_GET_SIZE(seq) != nm) {
        PyErr_SetString(PyExc_ValueError, "one forcing number per matching");
        goto done;
    }
    for (Py_ssize_t i = 0; i < nm; i++) {
        forcing[i] = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (forcing[i] == -1 && PyErr_Occurred())
            goto done;
    }
    result = 0;
done:
    Py_DECREF(seq);
    return result;
}

static int32_t
root(int32_t *parent, int32_t i)
{
    while (parent[i] != i)
        i = parent[i] = parent[parent[i]];
    return i;
}

/* pure.Kernel.matching_facts, whose docstring says what is computed. */
static PyObject *
matching_facts(PyObject *self, PyObject *args)
{
    PyObject *rows_obj, *matchings_obj, *forcing_obj;
    if (!PyArg_ParseTuple(args, "OOO", &rows_obj, &matchings_obj, &forcing_obj))
        return NULL;
    Switch s = {0};
    PyObject *result = NULL;
    long *forcing = NULL;
    int32_t *parent = NULL;
    uint8_t *top_root = NULL;
    u64 *holders = NULL, *touching = NULL, *common = NULL;
    if (switch_input(rows_obj, matchings_obj, &s) < 0)
        goto done;
    Py_ssize_t nm = s.nm;
    size_t words = s.words;
    forcing = PyMem_Malloc(((size_t)nm + 1) * sizeof *forcing);
    parent = PyMem_Malloc(((size_t)nm + 1) * sizeof *parent);
    top_root = PyMem_Calloc((size_t)nm + 1, 1);
    /* per edge, the edges of the matchings that hold it; per vertex, the
       edges at it; the edges common to all matchings */
    holders = PyMem_Calloc((size_t)s.count * words + 1, sizeof *holders);
    touching = PyMem_Calloc((size_t)s.order * words + 1, sizeof *touching);
    common = PyMem_Malloc((words + 1) * sizeof *common);
    if (forcing == NULL || parent == NULL || top_root == NULL
        || holders == NULL || touching == NULL || common == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (parse_forcing(forcing_obj, nm, forcing) < 0 || switch_pairs(&s) < 0)
        goto done;

    /* the first switch edge, in key order, that jumps more than 1 */
    u64 jump = UINT64_MAX;
    for (size_t p = 0; p < s.pairs_count; p++) {
        u64 key = s.pairs[p];
        long fj = forcing[key >> 32], fi = forcing[(uint32_t)key];
        unsigned long gap = fj > fi ? (unsigned long)fj - (unsigned long)fi
                                    : (unsigned long)fi - (unsigned long)fj;
        if (gap > 1 && key < jump)
            jump = key;
    }

    /* switch components by union-find, and which hold a top matching */
    for (Py_ssize_t i = 0; i < nm; i++)
        parent[i] = (int32_t)i;
    for (size_t p = 0; p < s.pairs_count; p++)
        parent[root(parent, (int32_t)(uint32_t)s.pairs[p])] =
            root(parent, (int32_t)(s.pairs[p] >> 32));
    for (Py_ssize_t i = 0; i < nm; i++)
        if (forcing[i] == s.k - 1)
            top_root[root(parent, (int32_t)i)] = 1;
    int reach = 1;
    for (Py_ssize_t i = 0; i < nm && reach; i++)
        reach = top_root[root(parent, (int32_t)i)];

    /* pair cover and fixed bond */
    for (size_t w = 0; w < words; w++)
        common[w] = nm > 0 ? ~0ULL : 0;
    for (Py_ssize_t i = 0; i < nm; i++) {
        const uint16_t *own = s.codes + (size_t)i * s.k;
        const u64 *key = s.keys + (size_t)i * words;
        for (size_t w = 0; w < words; w++)
            common[w] &= key[w];
        for (int e = 0; e < s.k; e++) {
            u64 *h = holders + (size_t)s.rank[own[e]] * words;
            for (size_t w = 0; w < words; w++)
                h[w] |= key[w];
        }
    }
    for (int r = 0; r < s.count; r++) {
        int u = s.edges[r] >> 6, v = s.edges[r] & 63;
        touching[(size_t)u * words + r / 64] |= 1ULL << (r % 64);
        touching[(size_t)v * words + r / 64] |= 1ULL << (r % 64);
    }
    int covered = 1;
    for (int r = 0; r < s.count && covered; r++) {
        const u64 *h = holders + (size_t)r * words;
        const u64 *tu = touching + (size_t)(s.edges[r] >> 6) * words;
        const u64 *tv = touching + (size_t)(s.edges[r] & 63) * words;
        for (size_t w = 0; w < words && covered; w++) {
            u64 every = w + 1 < words || s.count % 64 == 0
                            ? ~0ULL : (1ULL << (s.count % 64)) - 1;
            covered = !(every & ~(tu[w] | tv[w] | h[w]));
        }
    }
    int bond = -1;
    for (size_t w = 0; w < words && bond < 0; w++)
        if (common[w])
            bond = (int)(w * 64) + ctz(common[w]);

    PyObject *counts = PyTuple_New(nm);
    if (counts == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < nm; i++) {
        PyObject *c = PyLong_FromLong(s.switched[i]);
        if (c == NULL) {
            Py_DECREF(counts);
            goto done;
        }
        PyTuple_SET_ITEM(counts, i, c);
    }
    PyObject *bond_obj = bond < 0 ? Py_NewRef(Py_None)
                                  : Py_BuildValue("(ii)", s.edges[bond] >> 6,
                                                  s.edges[bond] & 63);
    PyObject *jump_obj = jump == UINT64_MAX
                             ? Py_NewRef(Py_None)
                             : Py_BuildValue("(ii)", (int)(jump >> 32), (int)(uint32_t)jump);
    if (bond_obj != NULL && jump_obj != NULL)
        result = Py_BuildValue("(OOOOO)", counts, covered ? Py_True : Py_False,
                               bond_obj, jump_obj, reach ? Py_True : Py_False);
    Py_DECREF(counts);
    Py_XDECREF(bond_obj);
    Py_XDECREF(jump_obj);
done:
    PyMem_Free(common);
    PyMem_Free(touching);
    PyMem_Free(holders);
    PyMem_Free(top_root);
    PyMem_Free(parent);
    PyMem_Free(forcing);
    switch_free(&s);
    return result;
}

/* ---------------------------------------------------------------------
   vertex connectivity and bicriticality */

typedef unsigned __int128 u128;

static int
ctz128(u128 x)
{
    u64 low = (u64)x;
    return low ? ctz(low) : 64 + ctz((u64)(x >> 64));
}

/* pure._disjoint_paths on the split network `net` of `nodes` nodes: unit
   flow from source to sink in a copy of it, stopped at limit. */
static int
disjoint_paths(const u128 *net, int nodes, int source, int sink, int limit)
{
    u128 res[2 * MAX_ORDER], levels[2 * MAX_ORDER];
    memcpy(res, net, (size_t)nodes * sizeof *res);
    int flow = 0;
    while (flow < limit) {
        int depth = 0;
        u128 seen = levels[0] = (u128)1 << source;
        while (!(seen >> sink & 1)) {
            u128 reach = 0;
            for (u128 level = levels[depth]; level; level &= level - 1)
                reach |= res[ctz128(level)];
            u128 frontier = reach & ~seen;
            if (!frontier)
                return flow;
            seen |= frontier;
            levels[++depth] = frontier;
        }
        int y = sink;
        for (int d = depth - 1; d >= 0; d--) {
            u128 level = levels[d];
            int x = ctz128(level);
            while (!(res[x] >> y & 1)) {
                level &= level - 1;
                x = ctz128(level);
            }
            res[x] ^= (u128)1 << y;
            res[y] |= (u128)1 << x;
            y = x;
        }
        flow++;
    }
    return flow;
}

static PyObject *
vertex_connectivity(PyObject *self, PyObject *args)
{
    PyObject *rows_obj;
    if (!PyArg_ParseTuple(args, "O", &rows_obj))
        return NULL;
    u64 rows[MAX_ORDER];
    int order;
    if (parse_rows(rows_obj, rows, &order) < 0)
        return NULL;
    if (order <= 1)
        return PyLong_FromLong(0);
    u128 net[2 * MAX_ORDER];
    for (int v = 0; v < order; v++) {
        net[2 * v] = (u128)1 << (2 * v + 1);
        net[2 * v + 1] = 0;
        for (u64 row = rows[v]; row; row &= row - 1)
            net[2 * v + 1] |= (u128)1 << (2 * ctz(row));
    }
    u64 full = full_mask(order);
    int best = order - 1;
    for (int s = 0; s < order && best > 0; s++)
        for (u64 later = full & ~rows[s] & ~((2ULL << s) - 1); later && best > 0;
             later &= later - 1)
            best = disjoint_paths(net, 2 * order, 2 * s + 1, 2 * ctz(later), best);
    return PyLong_FromLong(best);
}

static PyObject *
bicritical(PyObject *self, PyObject *args)
{
    PyObject *rows_obj;
    if (!PyArg_ParseTuple(args, "O", &rows_obj))
        return NULL;
    u64 rows[MAX_ORDER];
    int order;
    if (parse_rows(rows_obj, rows, &order) < 0)
        return NULL;
    Memo memo;
    if (memo_init(&memo, rows) < 0) {
        memo_free(&memo);
        return PyErr_NoMemory();
    }
    u64 full = full_mask(order);
    int every = 1;  /* an odd set has no perfect matching, as in count2 */
    for (int u = 0; u < order && every > 0; u++)
        for (int v = u + 1; v < order && every > 0; v++)
            every = order & 1 ? 0 : count2(&memo, full ^ (1ULL << u) ^ (1ULL << v));
    memo_free(&memo);
    if (every < 0)
        return PyErr_Occurred() ? NULL : PyErr_NoMemory();
    return PyBool_FromLong(every > 0);
}

static PyMethodDef methods[] = {
    {"enumerate_pms", enumerate_pms, METH_VARARGS,
     "enumerate_pms(rows, cap) -> list of flat matchings, or None past cap"},
    {"forcing_numbers", forcing_numbers, METH_VARARGS,
     "forcing_numbers(rows, matchings) -> list of forcing numbers"},
    {"switch_pass", switch_pass, METH_VARARGS,
     "switch_pass(rows, matchings) -> sorted list of switch edges (i, j), i < j"},
    {"matching_facts", matching_facts, METH_VARARGS,
     "matching_facts(rows, matchings, forcing) -> "
     "(switched, covered, bond, jump, reach)"},
    {"vertex_connectivity", vertex_connectivity, METH_VARARGS,
     "vertex_connectivity(rows) -> vertex connectivity"},
    {"bicritical", bicritical, METH_VARARGS,
     "bicritical(rows) -> whether every two-vertex deletion leaves a "
     "perfect matching"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "native", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit_native(void)
{
    return PyModule_Create(&module);
}
