/* Compiled selection kernels.
 *
 * Return values and counters equal those of ordstat._pykernels, the
 * reference, bit for bit. Each entry point takes a sequence of floats and
 * a 1-based rank in 1..N (positional arguments only) and raises ValueError
 * for a rank outside that range.
 *
 * The memoized kernels keep the levels of the elimination recursion in
 * dense double arrays. A level's states are the k-subsets of a prefix
 * range(p) of positions, and a subset {c_0 < ... < c_{k-1}} sits at its
 * colex rank C(c_0, 1) + C(c_1, 2) + ... + C(c_{k-1}, k) (the combinatorial
 * number system, Knuth TAOCP 4A, 7.2.1.3). The k-subsets of range(p) are
 * exactly the first C(p, k) in colex order, so every level is a prefix of
 * one index space: no hash map, no bitmask, no limit on N. Every size is
 * computed with overflow checks before anything is allocated.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef unsigned long long u64;

/* Binomial table in diagonal coordinates: entry [i * cols + d] is
 * C(i + d, i) for i < rows and d < cols, saturated at SIZE_MAX. */
typedef struct {
    size_t *t;
    size_t cols;
} Pascal;

static int
pascal_init(Pascal *b, size_t rows, size_t cols)
{
    size_t i, d, s;
    if (cols != 0 && rows > PY_SSIZE_T_MAX / sizeof(size_t) / cols) {
        PyErr_NoMemory();
        return -1;
    }
    b->t = PyMem_Malloc(rows * cols * sizeof(size_t));
    b->cols = cols;
    if (b->t == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < rows; i++) {
        for (d = 0; d < cols; d++) {
            if (i == 0 || d == 0) {
                b->t[i * cols + d] = 1;
                continue;
            }
            s = b->t[(i - 1) * cols + d] + b->t[i * cols + d - 1];
            b->t[i * cols + d] = s < b->t[i * cols + d - 1] ? SIZE_MAX : s;
        }
    }
    return 0;
}

/* C(x, k); the caller keeps k < rows and x - k < cols. */
static inline size_t
binom(const Pascal *b, size_t x, size_t k)
{
    return x < k ? 0 : b->t[k * b->cols + (x - k)];
}

/* Refuses a level of `size` doubles that cannot be addressed, before any
 * allocation; a saturated binomial lands here too. */
static int
check_level(size_t size, const char *kernel, size_t n, size_t rank)
{
    if (size >= SIZE_MAX || size > PY_SSIZE_T_MAX / sizeof(double)) {
        PyErr_Format(PyExc_OverflowError,
                     "%s of rank %zu from %zu elements: a level of the fill "
                     "has too many states to address", kernel, rank, n);
        return -1;
    }
    return 0;
}

/* Advances c[0..k) to the next k-subset in colex order. */
static void
next_colex(size_t *c, size_t k)
{
    size_t i, j = 0;
    if (k == 0)
        return;
    while (j + 1 < k && c[j] + 1 == c[j + 1])
        j++;
    c[j]++;
    for (i = 0; i < j; i++)
        c[i] = i;
}

static void
first_colex(size_t *c, size_t k)
{
    size_t i;
    for (i = 0; i < k; i++)
        c[i] = i;
}


/* ---- select_naive: the plain recursion ------------------------------- */

static double
naive(const double *cur, size_t len, size_t m, double *scratch, size_t cap,
      u64 *recursive, u64 *base)
{
    size_t i, j, hi;
    double best, v;
    (*recursive)++;
    if (m == 1) {
        (*base)++;
        best = cur[0];
        for (i = 1; i < len; i++)
            if (cur[i] < best)
                best = cur[i];
        return best;
    }
    hi = len - m + 2;
    best = 0.0;
    for (j = 0; j < hi; j++) {
        for (i = 0; i < j; i++)
            scratch[i] = cur[i];
        for (i = j + 1; i < len; i++)
            scratch[i - 1] = cur[i];
        v = naive(scratch, len - 1, m - 1, scratch + cap, cap, recursive, base);
        if (j == 0 || v > best)
            best = v;
    }
    return best;
}


/* ---- select_memo: the level fill of _pykernels._fill_levels ---------- */

/* With K = n - rank + 1 kept positions, the level with prefix p holds the
 * K-subsets S of range(p), p from n down to K. The deepest level (p = n)
 * maps S to the first minimum of xs over S. Every other level maps S to
 * the first maximum over its children S - {c_j} + {p} for j ascending,
 * then S itself. A child that takes p ranks at or above C(p, K), and S
 * keeps its rank r < C(p, K) one level down, so level p overwrites
 * level p + 1 in place: slot r is read only by S, just before S writes it.
 * Counters follow _pykernels.select_memo's closed form. */
static int
memo_fill(const double *xs, size_t n, size_t rank, double *value, u64 counts[3])
{
    size_t keep = n - rank + 1, i, j, p, r, size, top, tail, suf;
    size_t *c = NULL, *kid = NULL;
    double *level = NULL, best, v;
    u64 states = 0, above, recursive;
    Pascal b = {NULL, 0};
    int rc = -1;

    if (pascal_init(&b, keep + 1, rank) < 0)
        return -1;
    top = binom(&b, n, keep);
    if (check_level(top, "memoized selection", n, rank) < 0)
        goto done;
    level = PyMem_Malloc(top * sizeof(double));
    c = PyMem_Malloc(keep * sizeof(size_t));
    kid = PyMem_Malloc(keep * sizeof(size_t));
    if (level == NULL || c == NULL || kid == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    first_colex(c, keep);
    for (r = 0; r < top; r++) {
        best = xs[c[0]];
        for (i = 1; i < keep; i++)
            if (xs[c[i]] < best)
                best = xs[c[i]];
        level[r] = best;
        next_colex(c, keep);
    }
    states = top;

    for (p = n - 1; p >= keep; p--) {
        size = binom(&b, p, keep);
        states += size;
        first_colex(c, keep);
        for (r = 0; r < size; r++) {
            /* rank of S - {c_j} + {p}: size + sum_{i<j} C(c_i, i + 1)
             * + sum_{i>j} C(c_i, i); tail = sum_{i>=j} C(c_i, i + 1). */
            tail = 0;
            suf = 0;
            for (j = keep; j-- > 0;) {
                tail += binom(&b, c[j], j + 1);
                kid[j] = size + (r - tail) + suf;
                suf += binom(&b, c[j], j);
            }
            best = level[kid[0]];
            for (j = 1; j < keep; j++) {
                v = level[kid[j]];
                if (v > best)
                    best = v;
            }
            if (level[r] > best)
                best = level[r];
            level[r] = best;
            next_colex(c, keep);
        }
    }

    above = states - top;
    if (above != 0 && (u64)(keep + 1) > (ULLONG_MAX - 1) / above) {
        PyErr_Format(PyExc_OverflowError,
                     "memoized selection of rank %zu from %zu elements: "
                     "call count overflows 64 bits", rank, n);
        goto done;
    }
    recursive = 1 + (u64)(keep + 1) * above;
    *value = level[0];
    counts[0] = recursive;
    counts[1] = top;
    counts[2] = recursive - states;
    rc = 0;
done:
    PyMem_Free(b.t);
    PyMem_Free(level);
    PyMem_Free(c);
    PyMem_Free(kid);
    return rc;
}


/* ---- select_fullrange: its own fill over removed sets ---------------- */

/* The level with t removals holds the t-subsets D of range(n), t from
 * rank - 1 down to 0. The deepest level maps D to the first minimum of xs
 * outside D in position order; every other level maps D to the first
 * maximum over D + {j} for every j outside D, ascending. Two levels are
 * kept, since a child can sit anywhere in the level below. */
static int
fullrange_fill(const double *xs, size_t n, size_t rank, double *value)
{
    size_t t, i, j, k, r, size, widest = 1, pre;
    size_t *c = NULL, *suf = NULL;
    double *cur = NULL, *below = NULL, *swap, best, v;
    int rc = -1, leaf, first;
    Pascal b = {NULL, 0};

    if (pascal_init(&b, rank + 1, n + 1) < 0)
        return -1;
    for (t = 0; t < rank; t++)
        if (binom(&b, n, t) > widest)
            widest = binom(&b, n, t);
    if (check_level(widest, "full-range selection", n, rank) < 0)
        goto done;
    cur = PyMem_Malloc(widest * sizeof(double));
    below = PyMem_Malloc(widest * sizeof(double));
    c = PyMem_Malloc(rank * sizeof(size_t));
    suf = PyMem_Malloc(rank * sizeof(size_t));
    if (cur == NULL || below == NULL || c == NULL || suf == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    for (t = rank; t-- > 0;) {
        size = binom(&b, n, t);
        leaf = t == rank - 1;
        first_colex(c, t);
        for (r = 0; r < size; r++) {
            /* rank of D + {j} with k members of D below j:
             * sum_{i<k} C(c_i, i + 1) + C(j, k + 1) + sum_{i>=k} C(c_i, i + 2) */
            suf[t] = 0;
            for (i = t; i-- > 0;)
                suf[i] = suf[i + 1] + binom(&b, c[i], i + 2);
            best = 0.0;
            first = 1;
            pre = 0;
            for (j = 0, k = 0; j < n; j++) {
                if (k < t && c[k] == j) {
                    pre += binom(&b, j, k + 1);
                    k++;
                    continue;
                }
                v = leaf ? xs[j] : below[pre + binom(&b, j, k + 1) + suf[k]];
                if (first || (leaf ? v < best : v > best))
                    best = v;
                first = 0;
            }
            cur[r] = best;
            next_colex(c, t);
        }
        swap = cur;
        cur = below;
        below = swap;
    }
    *value = below[0];
    rc = 0;
done:
    PyMem_Free(b.t);
    PyMem_Free(cur);
    PyMem_Free(below);
    PyMem_Free(c);
    PyMem_Free(suf);
    return rc;
}


/* ---- Python entry points --------------------------------------------- */

/* Parses (values, rank) into a fresh array of n doubles; the caller frees
 * *xs with PyMem_Free. */
static int
parse_args(PyObject *const *args, Py_ssize_t nargs, const char *name,
           double **xs, size_t *n, size_t *rank)
{
    PyObject *seq;
    Py_ssize_t len, i;
    long r;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 positional arguments "
                     "(values, rank) but %zd were given", name, nargs);
        return -1;
    }
    r = PyLong_AsLong(args[1]);
    if (r == -1 && PyErr_Occurred())
        return -1;
    seq = PySequence_Tuple(args[0]);
    if (seq == NULL)
        return -1;
    len = PyTuple_GET_SIZE(seq);
    if (r < 1 || r > len) {
        PyErr_Format(PyExc_ValueError, "rank %ld out of range 1..%zd", r, len);
        Py_DECREF(seq);
        return -1;
    }
    *xs = PyMem_Malloc((size_t)len * sizeof(double));
    if (*xs == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < len; i++) {
        (*xs)[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(seq, i));
        if ((*xs)[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            PyMem_Free(*xs);
            return -1;
        }
    }
    Py_DECREF(seq);
    *n = (size_t)len;
    *rank = (size_t)r;
    return 0;
}

static PyObject *
select_naive(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double *xs, *scratch, value;
    size_t n, rank;
    u64 recursive = 0, base = 0;

    if (parse_args(args, nargs, "select_naive", &xs, &n, &rank) < 0)
        return NULL;
    /* one copy of the shrinking sequence per recursion depth */
    scratch = rank > PY_SSIZE_T_MAX / sizeof(double) / n ? NULL
              : PyMem_Malloc(rank * n * sizeof(double));
    if (scratch == NULL) {
        PyMem_Free(xs);
        return PyErr_NoMemory();
    }
    value = naive(xs, n, rank, scratch, n, &recursive, &base);
    PyMem_Free(scratch);
    PyMem_Free(xs);
    return Py_BuildValue("(dKK)", value, recursive, base);
}

static PyObject *
select_memo(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double *xs, value;
    size_t n, rank;
    u64 counts[3];
    int rc;

    if (parse_args(args, nargs, "select_memo", &xs, &n, &rank) < 0)
        return NULL;
    rc = memo_fill(xs, n, rank, &value, counts);
    PyMem_Free(xs);
    if (rc < 0)
        return NULL;
    return Py_BuildValue("(dKKK)", value, counts[0], counts[1], counts[2]);
}

static PyObject *
select_fullrange(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double *xs, value;
    size_t n, rank;
    int rc;

    if (parse_args(args, nargs, "select_fullrange", &xs, &n, &rank) < 0)
        return NULL;
    rc = fullrange_fill(xs, n, rank, &value);
    PyMem_Free(xs);
    if (rc < 0)
        return NULL;
    return PyFloat_FromDouble(value);
}

static PyMethodDef methods[] = {
    {"select_naive", (PyCFunction)(void (*)(void))select_naive, METH_FASTCALL,
     "select_naive(values, rank) -> (value, recursive_calls, base_case_calls)\n\n"
     "Plain elimination recursion."},
    {"select_memo", (PyCFunction)(void (*)(void))select_memo, METH_FASTCALL,
     "select_memo(values, rank) -> (value, recursive_calls, base_case_calls, "
     "memo_hits)\n\nThe recursion filled level by level over dense survivor "
     "levels; counters are those of the memoized recursion."},
    {"select_fullrange", (PyCFunction)(void (*)(void))select_fullrange,
     METH_FASTCALL,
     "select_fullrange(values, rank) -> value\n\n"
     "Elimination over every position, filled over removed sets."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ordstat._ckernels",
    .m_doc = "Compiled selection kernels; ordstat._pykernels is the reference.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    return PyModuleDef_Init(&moduledef);
}
