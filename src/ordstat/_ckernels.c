/* Compiled selection kernels and compiled formulas.
 *
 * Return values and counters equal those of ordstat._pykernels, the
 * reference, bit for bit. Each select_* entry point takes a sequence of
 * floats and a 1-based rank in 1..N (positional arguments only) and raises
 * ValueError for a rank outside that range.
 *
 * The normal-form kernels keep one level of the elimination recursion in
 * a dense double array. A level's states are the k-subsets of a prefix
 * range(p) of positions, and a subset {c_0 < ... < c_{k-1}} sits at its
 * colex rank C(c_0, 1) + C(c_1, 2) + ... + C(c_{k-1}, k) (the combinatorial
 * number system, Knuth TAOCP 4A, 7.2.1.3). The k-subsets of range(p) are
 * exactly the first C(p, k) in colex order, so every level is a prefix of
 * one index space: no hash map, no bitmask, no limit on N. Every size is
 * computed with overflow checks before anything is allocated.
 *
 * select_memo and select_fullrange share one body, normal_form: both
 * recursions have the same max-min normal form, since every level above
 * the deepest takes a maximum, so the value is the first maximum of the
 * deepest level's minima. leaf_max builds that one level, in place, each
 * minimum one comparison away from that of its set without the largest
 * member. select_memo adds the counters the memoized recursion would
 * count (memo_counts); select_fullrange has none.
 *
 * compile_slp turns a packed straight-line program (see
 * _pykernels.compile_slp, which defines it) into a callable that runs
 * each op on a double register file: no Python source is generated or
 * executed. The program is checked once, before it is kept: every opcode
 * must be known and every operand must name a register below the one its
 * instruction writes, so no program can read outside the register file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdarg.h>
#include <stdint.h>
#include <string.h>

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


/* ---- the max-min normal form: select_memo and select_fullrange ------ */

/* With K = n - rank + 1 kept positions, the memoized recursion's deepest
 * level maps each K-subset S of range(n) to the first minimum of xs over
 * S, and every level above it takes a first maximum over its children.
 * A maximum of maxima is the first maximum over the deepest level in the
 * order the recursion first visits it, which is descending lexicographic
 * order of the subsets. The full-range recursion deletes at every position
 * instead of the first n - rank + 2, but its leaves are the same K-subsets
 * and it first reaches them in the same order (ascending lexicographic in
 * the removed positions), so it has the same normal form. leaf_max builds
 * only that level and scans it.
 *
 * The level is built in colex order over ys, xs reversed (ys[q] =
 * xs[n - 1 - q]): ascending colex order in q is descending lexicographic
 * order in the original positions, so the first maximum in array order is
 * the recursion's. Each minimum keeps the later of two equal ys, which is
 * the earlier of the two xs, as the recursion's first minimum does. That
 * keeps the sign the recursion returns when -0.0 and 0.0 tie.
 *
 * The level is built up from prefixes, one member per pass. The minimum
 * over {c_0 < ... < c_{k-1}} is one comparison with ys[c_{k-1}] away from
 * the minimum over {c_0, ..., c_{k-2}}, whose rank is C(c_{k-1}, k) lower.
 * Pass k holds every k-subset of range(rank - 1 + k), the k-member
 * prefixes of the deepest states, in the array that holds pass k - 1:
 * with t = c_{k-1} running down, and the rank below t running down too,
 * each write lands at or above its source and above every source still to
 * be read. That is about C(n + 1, K) comparisons, where one minimum per
 * state takes C(n, K) * (K - 1).
 *
 * `b` holds C(x, k) for k <= K and x - k < rank; `kernel` names the
 * caller in the error for a level too large to address. */
static int
leaf_max(const Pascal *b, const double *xs, size_t n, size_t rank,
         const char *kernel, double *value)
{
    size_t keep = n - rank + 1, top = binom(b, n, keep), k, t, r;
    double *level, *with_t, best, x;

    /* Refused before any allocation; a saturated binomial lands here too. */
    if (top >= SIZE_MAX || top > PY_SSIZE_T_MAX / sizeof(double)) {
        PyErr_Format(PyExc_OverflowError,
                     "%s of rank %zu from %zu elements: a level of the fill "
                     "has too many states to address", kernel, rank, n);
        return -1;
    }
    level = PyMem_Malloc(top * sizeof(double));
    if (level == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (r = 0; r < rank; r++)
        level[r] = xs[n - 1 - r];
    for (k = 2; k <= keep; k++) {
        for (t = rank + k - 2; t + 1 >= k; t--) {
            with_t = level + binom(b, t, k);
            x = xs[n - 1 - t];
            for (r = binom(b, t, k - 1); r-- > 0;)
                with_t[r] = x <= level[r] ? x : level[r];
        }
    }
    best = level[0];
    for (r = 1; r < top; r++)
        if (level[r] > best)
            best = level[r];
    PyMem_Free(level);
    *value = best;
    return 0;
}

/* The counters the memoized recursion would count, in
 * _pykernels.select_memo's closed form over the level sizes C(p, K) for
 * p from n down to K. */
static int
memo_counts(const Pascal *b, size_t n, size_t rank, u64 counts[3])
{
    size_t keep = n - rank + 1, p;
    u64 top = binom(b, n, keep), states = 0, above;

    for (p = keep; p <= n; p++)
        states += binom(b, p, keep);
    above = states - top;
    if (above != 0 && (u64)(keep + 1) > (ULLONG_MAX - 1) / above) {
        PyErr_Format(PyExc_OverflowError,
                     "memoized selection of rank %zu from %zu elements: "
                     "call count overflows 64 bits", rank, n);
        return -1;
    }
    counts[0] = 1 + (u64)(keep + 1) * above;
    counts[1] = top;
    counts[2] = counts[0] - states;
    return 0;
}


/* ---- compile_slp: packed straight-line programs ---------------------- */

/* Opcodes in the order of _pykernels.SLP_OPS. */
enum { OP_ADD, OP_SUB, OP_ABS, OP_HALVE, OP_MIN, OP_MAX, N_OPS };

/* Registers below this many live on the C stack during a call. */
#define SLP_STACK_REGS 512

static const char SLP_CAPSULE[] = "ordstat._ckernels.slp";

/* One allocation: the header, then the constant pool, then the code. */
typedef struct {
    Py_ssize_t n_vars, n_consts, n_ins, result;
    double *pool;
    int *code;
} Slp;

static void
slp_free(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, SLP_CAPSULE));
}

/* Raises ordstat.errors.ExprError, looked up only when it is needed: the
 * package imports this module before it is fully initialised. */
static void
expr_error(const char *format, ...)
{
    PyObject *errors, *cls;
    va_list va;

    errors = PyImport_ImportModule("ordstat.errors");
    if (errors == NULL)
        return;
    cls = PyObject_GetAttrString(errors, "ExprError");
    Py_DECREF(errors);
    if (cls == NULL)
        return;
    va_start(va, format);
    PyErr_FormatV(cls, format, va);
    va_end(va);
    Py_DECREF(cls);
}

static PyObject *
run_slp(PyObject *self, PyObject *values)
{
    const Slp *p = PyCapsule_GetPointer(self, SLP_CAPSULE);
    PyObject *seq, *item, *f, *out = NULL;
    double stack[SLP_STACK_REGS], *r = stack, *t, a, b, v;
    Py_ssize_t i, k, n_regs;
    const int *c;

    if (p == NULL)
        return NULL;
    seq = PySequence_Tuple(values);
    if (seq == NULL)
        return NULL;
    if (PyTuple_GET_SIZE(seq) < p->n_vars) {
        expr_error("formula needs %zd values, got %zd", p->n_vars,
                   PyTuple_GET_SIZE(seq));
        goto done;
    }
    n_regs = p->n_vars + p->n_consts + p->n_ins;
    if (n_regs > SLP_STACK_REGS) {
        r = PyMem_Malloc((size_t)n_regs * sizeof(double));
        if (r == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (i = 0; i < p->n_vars; i++) {
        item = PyTuple_GET_ITEM(seq, i);
        if (PyFloat_CheckExact(item)) {
            v = PyFloat_AS_DOUBLE(item);
        } else {
            f = PyNumber_Float(item);
            if (f == NULL)
                goto done;
            v = PyFloat_AS_DOUBLE(f);
            Py_DECREF(f);
        }
        if (!isfinite(v)) {
            f = PyFloat_FromDouble(v);
            if (f != NULL) {
                expr_error("input x%zd is not finite: %R", i + 1, f);
                Py_DECREF(f);
            }
            goto done;
        }
        r[i] = v;
    }
    if (p->n_consts)
        memcpy(r + p->n_vars, p->pool, (size_t)p->n_consts * sizeof(double));
    t = r + p->n_vars + p->n_consts;
    for (k = 0, c = p->code; k < p->n_ins; k++, c += 3) {
        a = r[c[1]];
        b = r[c[2]];
        switch (c[0]) {
        case OP_ADD: v = a + b; break;
        case OP_SUB: v = a - b; break;
        case OP_ABS: v = fabs(a); break;
        case OP_HALVE: v = a / 2; break;
        case OP_MIN: v = a <= b ? a : b; break;
        default: v = a >= b ? a : b; break;  /* OP_MAX */
        }
        if (!isfinite(v)) {
            f = PyFloat_FromDouble(v);
            if (f != NULL) {
                expr_error("non-finite intermediate %R at t%zd", f, k);
                Py_DECREF(f);
            }
            goto done;
        }
        t[k] = v;
    }
    out = PyFloat_FromDouble(r[p->result]);
done:
    if (r != stack)
        PyMem_Free(r);
    Py_DECREF(seq);
    return out;
}

static PyMethodDef run_slp_def = {
    "formula", (PyCFunction)run_slp, METH_O,
    "formula(values) -> float\n\n"
    "Runs the compiled program on float(values[0..N)); a missing or "
    "non-finite input, or a non-finite intermediate, raises ExprError.",
};

/* Copies and checks (n_vars, consts, code, result). Instruction k writes
 * register n_vars + n_consts + k and may read only registers below it, so
 * a program that passes never reads outside its register file. */
static Slp *
slp_new(PyObject *const *args)
{
    Py_ssize_t n_vars, n_consts, n_ins, base, result, k, dest;
    PyObject *pool;
    Py_buffer view;
    Slp *p = NULL;
    const int *c;
    double v;

    n_vars = PyNumber_AsSsize_t(args[0], PyExc_OverflowError);
    if (n_vars == -1 && PyErr_Occurred())
        return NULL;
    result = PyNumber_AsSsize_t(args[3], PyExc_OverflowError);
    if (result == -1 && PyErr_Occurred())
        return NULL;
    pool = PySequence_Tuple(args[1]);
    if (pool == NULL)
        return NULL;
    if (PyObject_GetBuffer(args[2], &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        Py_DECREF(pool);
        return NULL;
    }
    n_consts = PyTuple_GET_SIZE(pool);
    if (view.itemsize != sizeof(int) || view.format == NULL
            || strcmp(view.format, "i") != 0) {
        PyErr_SetString(PyExc_ValueError, "code must be an array('i')");
        goto fail;
    }
    if (view.len % (3 * sizeof(int)) != 0) {
        PyErr_SetString(PyExc_ValueError, "code must hold (op, a, b) triples");
        goto fail;
    }
    n_ins = view.len / (Py_ssize_t)(3 * sizeof(int));
    if (n_vars < 0) {
        PyErr_Format(PyExc_ValueError, "n_vars must not be negative, got %zd", n_vars);
        goto fail;
    }
    if (n_vars > INT_MAX || n_consts > INT_MAX - n_vars
            || n_ins > INT_MAX - n_vars - n_consts) {
        PyErr_SetString(PyExc_ValueError, "too many registers");
        goto fail;
    }
    base = n_vars + n_consts;
    if (result < 0 || result >= base + n_ins) {
        PyErr_Format(PyExc_ValueError, "result register %zd out of range 0..%zd",
                     result, base + n_ins - 1);
        goto fail;
    }
    p = PyMem_Malloc(sizeof(Slp) + (size_t)n_consts * sizeof(double) + (size_t)view.len);
    if (p == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    p->n_vars = n_vars;
    p->n_consts = n_consts;
    p->n_ins = n_ins;
    p->result = result;
    p->pool = (double *)(p + 1);
    p->code = (int *)(p->pool + n_consts);
    for (k = 0; k < n_consts; k++) {
        v = PyFloat_AsDouble(PyTuple_GET_ITEM(pool, k));
        if (v == -1.0 && PyErr_Occurred())
            goto fail;
        if (!isfinite(v)) {
            PyErr_Format(PyExc_ValueError, "constant %zd is not finite", k);
            goto fail;
        }
        p->pool[k] = v;
    }
    memcpy(p->code, view.buf, (size_t)view.len);
    for (k = 0, c = p->code; k < n_ins; k++, c += 3) {
        dest = base + k;
        if (c[0] < 0 || c[0] >= N_OPS) {
            PyErr_Format(PyExc_ValueError, "instruction %zd: unknown op %d", k, c[0]);
            goto fail;
        }
        if (c[1] < 0 || c[1] >= dest || c[2] < 0 || c[2] >= dest) {
            PyErr_Format(PyExc_ValueError, "instruction %zd: operands (%d, %d) "
                         "must lie below its register %zd", k, c[1], c[2], dest);
            goto fail;
        }
    }
    PyBuffer_Release(&view);
    Py_DECREF(pool);
    return p;
fail:
    PyMem_Free(p);
    PyBuffer_Release(&view);
    Py_DECREF(pool);
    return NULL;
}

static PyObject *
compile_slp(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *capsule, *fn;
    Slp *p;

    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "compile_slp() takes 4 positional arguments "
                     "(n_vars, consts, code, result) but %zd were given", nargs);
        return NULL;
    }
    p = slp_new(args);
    if (p == NULL)
        return NULL;
    capsule = PyCapsule_New(p, SLP_CAPSULE, slp_free);
    if (capsule == NULL) {
        PyMem_Free(p);
        return NULL;
    }
    fn = PyCFunction_New(&run_slp_def, capsule);
    Py_DECREF(capsule);
    return fn;
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

/* Both entries take the first maximum of the leaf minima from one binomial
 * table with rows 0..K and columns 0..rank - 1; `kernel` labels a level too
 * large to address. Only select_memo counts, and returns its counters too. */
static PyObject *
normal_form(PyObject *const *args, Py_ssize_t nargs, const char *name,
            const char *kernel, int count)
{
    double *xs, value;
    size_t n, rank;
    u64 counts[3];
    Pascal b = {NULL, 0};
    PyObject *out = NULL;

    if (parse_args(args, nargs, name, &xs, &n, &rank) < 0)
        return NULL;
    if (pascal_init(&b, n - rank + 2, rank) == 0
            && leaf_max(&b, xs, n, rank, kernel, &value) == 0) {
        if (!count)
            out = PyFloat_FromDouble(value);
        else if (memo_counts(&b, n, rank, counts) == 0)
            out = Py_BuildValue("(dKKK)", value, counts[0], counts[1], counts[2]);
    }
    PyMem_Free(b.t);
    PyMem_Free(xs);
    return out;
}

static PyObject *
select_memo(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return normal_form(args, nargs, "select_memo", "memoized selection", 1);
}

static PyObject *
select_fullrange(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return normal_form(args, nargs, "select_fullrange", "full-range selection", 0);
}

static PyMethodDef methods[] = {
    {"select_naive", (PyCFunction)(void (*)(void))select_naive, METH_FASTCALL,
     "select_naive(values, rank) -> (value, recursive_calls, base_case_calls)\n\n"
     "Plain elimination recursion."},
    {"select_memo", (PyCFunction)(void (*)(void))select_memo, METH_FASTCALL,
     "select_memo(values, rank) -> (value, recursive_calls, base_case_calls, "
     "memo_hits)\n\nThe first maximum of the leaf minima, the memoized "
     "recursion's max-min normal form; counters are those the memoized "
     "recursion would count."},
    {"select_fullrange", (PyCFunction)(void (*)(void))select_fullrange,
     METH_FASTCALL,
     "select_fullrange(values, rank) -> value\n\n"
     "Elimination over every position: the same first maximum of the leaf "
     "minima as select_memo, without counters."},
    {"compile_slp", (PyCFunction)(void (*)(void))compile_slp, METH_FASTCALL,
     "compile_slp(n_vars, consts, code, result) -> formula(values)\n\n"
     "Checks a packed straight-line program and returns a callable that "
     "runs it; see ordstat._pykernels.compile_slp."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ordstat._ckernels",
    .m_doc = "Compiled selection kernels and formulas; ordstat._pykernels is the reference.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    return PyModuleDef_Init(&moduledef);
}
