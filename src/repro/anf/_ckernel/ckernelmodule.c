/* Cache-resident C kernels for the packed term-matrix hot paths.
 *
 * Every function reads contiguous slabs of native-endian uint64 rows
 * through the buffer protocol (the read-only numpy ``uint64`` row vectors
 * of ``TermMatrix``), writes row results into fresh ``bytearray`` buffers,
 * and releases the GIL around its hot loop.  The Python-facing contracts —
 * what the inputs mean, when a kernel declines, and the exact result
 * semantics — live in ``repro.anf.sortkernel``,
 * whose kernels call this module when it is built (``repro.anf.cnative``
 * holds the import guard) and run their numpy bodies otherwise.
 *
 * Three primitives live here, the ones whose numpy bodies cost a whole job
 * measurable time: ``split_radix``, ``xor_merge`` and
 * ``shared_literal_count``.  Every other kernel has only its numpy body; a
 * C body of the tag scatter, the popcount or the overlapping product's
 * parity sort was within the noise of whole jobs, or slower.
 *
 * The headline kernel is ``split_radix``: the fused key-compress + bincount
 * + gather radix split that serves both ``split_runs_by_group`` and (via
 * its ``or_mask`` tag argument) the fused ``split_build_by_group``.  Where
 * the numpy path materialises a key vector, bincounts it, and then either
 * argsorts the keys or runs two whole-slab passes per bucket, this kernel
 * makes exactly two passes over the slab: one histogram pass and one gather
 * pass that recomputes the tiny compressed key in registers and writes each
 * row — group part stripped and tag planted by a single XOR — straight into
 * its bucket's output buffer.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) ((int)__builtin_popcountll(x))
#define CTZ64(x) ((int)__builtin_ctzll(x))
#else
static int
fallback_popcount64(uint64_t x)
{
    int count = 0;
    while (x) {
        x &= x - 1;
        ++count;
    }
    return count;
}

static int
fallback_ctz64(uint64_t x)
{
    int count = 0;
    while (!(x & 1)) {
        x >>= 1;
        ++count;
    }
    return count;
}

#define POPCOUNT64(x) fallback_popcount64(x)
#define CTZ64(x) fallback_ctz64(x)
#endif

/* Widest compressed key served by split_radix: 2^16 buckets keeps the
 * histogram and offset tables cache-resident.  Python enforces the much
 * smaller RADIX_MAX_GROUP_BITS before calling; this is the hard cap. */
#define MAX_KEY_BITS 16

static int
u64_view(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_SIMPLE) != 0)
        return -1;
    if (view->len % 8 != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_ValueError, "buffer length is not a multiple of 8 bytes");
        return -1;
    }
    return 0;
}

/* ----------------------------------------------------------------------
 * split_radix(rows, group_mask, or_mask, max_bits)
 *   -> (parts: list[int], buckets: list[bytearray], remainder: bytearray)
 *   or None when the mask is empty or wider than max_bits (caller falls
 *   back to the argsort path).
 *
 * Each row r lands in bucket r & group_mask as r ^ ((r & group_mask) |
 * or_mask); rows with no group bit form the remainder (with or_mask ORed
 * in — or_mask is a fresh tag bit disjoint from every row, so XOR == OR).
 * Buckets come out in ascending group-part order and, because the gather
 * is a stable sequential scan, every bucket preserves the input order —
 * ascending input slabs produce born-canonical ascending buckets.
 * ---------------------------------------------------------------------- */

typedef struct {
    int shift;     /* right-shift taking this run of mask bits to its key position */
    uint64_t mask; /* the run's bits, already positioned in key space */
} keyrun;

/* Decompose the group mask into maximal runs of consecutive bits; the
 * compression (one shift-and-mask per run) is monotone, so ascending
 * compressed keys enumerate ascending group parts. */
static int
build_runs(uint64_t group_mask, keyrun *runs)
{
    int nruns = 0;
    int out_bits = 0;
    uint64_t m = group_mask;
    while (m) {
        int start = CTZ64(m);
        int length = 1;
        while (((m >> start) >> length) & 1ULL)
            ++length;
        runs[nruns].shift = start - out_bits;
        runs[nruns].mask = ((1ULL << length) - 1ULL) << out_bits;
        ++nruns;
        out_bits += length;
        m &= ~(((1ULL << length) - 1ULL) << start);
    }
    return nruns;
}

static inline uint32_t
compress_key(uint64_t row, const keyrun *runs, int nruns)
{
    uint32_t key = 0;
    int r;
    for (r = 0; r < nruns; ++r)
        key |= (uint32_t)((row >> runs[r].shift) & runs[r].mask);
    return key;
}

static inline uint64_t
expand_key(uint32_t key, const keyrun *runs, int nruns)
{
    uint64_t part = 0;
    int r;
    for (r = 0; r < nruns; ++r)
        part |= ((uint64_t)key & runs[r].mask) << runs[r].shift;
    return part;
}

static PyObject *
py_split_radix(PyObject *self, PyObject *args)
{
    PyObject *rows_obj;
    unsigned long long group_mask_arg, or_mask_arg;
    int max_bits;
    Py_buffer view;
    keyrun runs[MAX_KEY_BITS];
    PyObject *parts = NULL, *buckets = NULL, *remainder = NULL, *result = NULL;
    Py_ssize_t *counts = NULL;
    uint64_t **dest = NULL;
    uint64_t *strips = NULL;

    if (!PyArg_ParseTuple(args, "OKKi", &rows_obj, &group_mask_arg, &or_mask_arg, &max_bits))
        return NULL;
    {
        uint64_t group_mask = (uint64_t)group_mask_arg;
        uint64_t or_mask = (uint64_t)or_mask_arg;
        int nbits = POPCOUNT64(group_mask);
        int nruns;
        const uint64_t *rows;
        Py_ssize_t n, i;
        size_t nbuckets, key;

        if (nbits == 0 || nbits > max_bits || nbits > MAX_KEY_BITS)
            Py_RETURN_NONE;
        if (u64_view(rows_obj, &view) < 0)
            return NULL;
        rows = (const uint64_t *)view.buf;
        n = view.len / 8;
        nruns = build_runs(group_mask, runs);
        nbuckets = (size_t)1 << nbits;

        counts = (Py_ssize_t *)calloc(nbuckets, sizeof(Py_ssize_t));
        dest = (uint64_t **)calloc(nbuckets, sizeof(uint64_t *));
        strips = (uint64_t *)calloc(nbuckets, sizeof(uint64_t));
        if (!counts || !dest || !strips) {
            PyErr_NoMemory();
            goto fail;
        }

        /* Pass 1: histogram (key recomputed in registers, nothing stored). */
        Py_BEGIN_ALLOW_THREADS
        for (i = 0; i < n; ++i)
            counts[compress_key(rows[i], runs, nruns)]++;
        Py_END_ALLOW_THREADS

        parts = PyList_New(0);
        buckets = PyList_New(0);
        if (!parts || !buckets)
            goto fail;
        for (key = 0; key < nbuckets; ++key) {
            PyObject *bucket;
            uint64_t part;
            if (!counts[key])
                continue;
            bucket = PyByteArray_FromStringAndSize(NULL, counts[key] * 8);
            if (!bucket)
                goto fail;
            dest[key] = (uint64_t *)PyByteArray_AS_STRING(bucket);
            part = expand_key((uint32_t)key, runs, nruns);
            strips[key] = part | or_mask;
            if (key == 0) {
                remainder = bucket;
            }
            else {
                PyObject *part_obj = PyLong_FromUnsignedLongLong(part);
                int failed = (part_obj == NULL || PyList_Append(parts, part_obj) < 0 ||
                              PyList_Append(buckets, bucket) < 0);
                Py_XDECREF(part_obj);
                Py_DECREF(bucket);
                if (failed)
                    goto fail;
            }
        }
        if (!remainder) {
            remainder = PyByteArray_FromStringAndSize(NULL, 0);
            if (!remainder)
                goto fail;
        }

        /* Pass 2: gather.  Within a bucket the sequential scan is stable, and
         * every bucket row contains all of its group part and none of the
         * (fresh) tag, so one XOR both strips the part and plants the tag. */
        Py_BEGIN_ALLOW_THREADS
        for (i = 0; i < n; ++i) {
            uint64_t row = rows[i];
            uint32_t k = compress_key(row, runs, nruns);
            *dest[k]++ = row ^ strips[k];
        }
        Py_END_ALLOW_THREADS

        result = PyTuple_Pack(3, parts, buckets, remainder);
    }
fail:
    free(counts);
    free(dest);
    free(strips);
    Py_XDECREF(parts);
    Py_XDECREF(buckets);
    Py_XDECREF(remainder);
    PyBuffer_Release(&view);
    return result;
}

/* ----------------------------------------------------------------------
 * xor_merge(a, b) -> bytearray
 * Symmetric difference of two ascending slabs of distinct rows: one
 * two-pointer pass, equal rows cancel in place of numpy's concatenate +
 * sort + duplicate-mask sweeps.
 * ---------------------------------------------------------------------- */
static PyObject *
py_xor_merge(PyObject *self, PyObject *args)
{
    PyObject *a_obj, *b_obj, *out;
    Py_buffer av, bv;
    const uint64_t *a, *b;
    uint64_t *dst;
    Py_ssize_t na, nb, i = 0, j = 0, k = 0;

    if (!PyArg_ParseTuple(args, "OO", &a_obj, &b_obj))
        return NULL;
    if (u64_view(a_obj, &av) < 0)
        return NULL;
    if (u64_view(b_obj, &bv) < 0) {
        PyBuffer_Release(&av);
        return NULL;
    }
    na = av.len / 8;
    nb = bv.len / 8;
    out = PyByteArray_FromStringAndSize(NULL, (na + nb) * 8);
    if (!out) {
        PyBuffer_Release(&av);
        PyBuffer_Release(&bv);
        return NULL;
    }
    a = (const uint64_t *)av.buf;
    b = (const uint64_t *)bv.buf;
    dst = (uint64_t *)PyByteArray_AS_STRING(out);
    Py_BEGIN_ALLOW_THREADS
    while (i < na && j < nb) {
        if (a[i] < b[j])
            dst[k++] = a[i++];
        else if (b[j] < a[i])
            dst[k++] = b[j++];
        else {
            ++i; /* shared row: occurs exactly twice, cancels */
            ++j;
        }
    }
    while (i < na)
        dst[k++] = a[i++];
    while (j < nb)
        dst[k++] = b[j++];
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&av);
    PyBuffer_Release(&bv);
    if (PyByteArray_Resize(out, k * 8) < 0) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

/* ----------------------------------------------------------------------
 * shared_literal_count(a, b) -> int
 * Total set bits over the rows present in both ascending slabs: one
 * two-pointer intersection with popcounts, no allocations.
 * ---------------------------------------------------------------------- */
static PyObject *
py_shared_literal_count(PyObject *self, PyObject *args)
{
    PyObject *a_obj, *b_obj;
    Py_buffer av, bv;
    const uint64_t *a, *b;
    Py_ssize_t na, nb, i = 0, j = 0;
    unsigned long long total = 0;

    if (!PyArg_ParseTuple(args, "OO", &a_obj, &b_obj))
        return NULL;
    if (u64_view(a_obj, &av) < 0)
        return NULL;
    if (u64_view(b_obj, &bv) < 0) {
        PyBuffer_Release(&av);
        return NULL;
    }
    na = av.len / 8;
    nb = bv.len / 8;
    a = (const uint64_t *)av.buf;
    b = (const uint64_t *)bv.buf;
    Py_BEGIN_ALLOW_THREADS
    while (i < na && j < nb) {
        if (a[i] < b[j])
            ++i;
        else if (b[j] < a[i])
            ++j;
        else {
            total += (unsigned long long)POPCOUNT64(a[i]);
            ++i;
            ++j;
        }
    }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&av);
    PyBuffer_Release(&bv);
    return PyLong_FromUnsignedLongLong(total);
}

static PyMethodDef ckernel_methods[] = {
    {"split_radix", py_split_radix, METH_VARARGS,
     "split_radix(rows, group_mask, or_mask, max_bits) -> (parts, buckets, remainder) | None"},
    {"xor_merge", py_xor_merge, METH_VARARGS,
     "xor_merge(a, b) -> bytearray: symmetric difference of two ascending distinct-row slabs"},
    {"shared_literal_count", py_shared_literal_count, METH_VARARGS,
     "shared_literal_count(a, b) -> int: popcount of the rows present in both ascending slabs"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.anf._ckernel._impl",
    "Cache-resident C kernels over contiguous uint64 row slabs (see repro.anf.sortkernel).",
    -1,
    ckernel_methods,
};

PyMODINIT_FUNC
PyInit__impl(void)
{
    return PyModule_Create(&ckernel_module);
}
