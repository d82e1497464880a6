/* Compiled selection kernels and compiled formulas.
 *
 * Return values and counters equal those of ordstat._pykernels, the
 * reference, bit for bit. Each select_* entry point takes a sequence of
 * floats and a 1-based rank in 1..N (positional arguments only) and raises
 * ValueError for a rank outside that range.
 *
 * select_memo and select_fullrange share one body, normal_form: both
 * recursions have the same max-min normal form, since every level above
 * the deepest takes a maximum, so the value is the first maximum of the
 * deepest level's minima. min distributes over that maximum, so leaf_max
 * folds it in one pass over the reversed values, with one running first
 * maximum per subset size: n * min(K, rank) comparisons and K + 1 doubles,
 * K = n - rank + 1, for any n. select_memo adds the counters the memoized
 * recursion would count (memo_counts), from two binomials checked against
 * 64-bit overflow; select_fullrange has none.
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
#include <string.h>

typedef unsigned long long u64;

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
 * the removed positions), so it has the same normal form.
 *
 * Over ys, xs reversed (ys[q] = xs[n - 1 - q]), that order is ascending
 * colex order, and each minimum keeps the later of two equal ys, which is
 * the earlier of the two xs, as the recursion's first minimum does. That
 * keeps the sign the recursion returns when -0.0 and 0.0 tie.
 *
 * leaf_max never builds the C(n, K) leaves. After it has read ys[0..c],
 * g[j] is the first maximum, in colex order, of the first minima of the
 * j-subsets of range(c + 1). In colex order the j-subsets holding c follow
 * those of range(c), and each is a (j - 1)-subset of range(c) with c
 * added, whose minimum is min(ys[c], its own). min(y, .) is monotone, so
 * the first maximum of those minima is min(y, g[j - 1]) with the same tie
 * rule: y itself when g[j - 1] >= y, else g[j - 1]. The new g[j] is the
 * first maximum of the two runs: the old g[j] unless that is smaller.
 * j runs downward, so g[j - 1] is still the old one, and only over the j
 * that can still grow into a K-subset, at most min(K, rank) of them, so
 * the pass takes n * min(K, rank) steps and K + 1 doubles. No comparison
 * reads a g[j] before it is first written: j == 1 and j == c + 1 are
 * decided before g[j - 1] or g[j] is read. */
static double
leaf_max(const double *xs, size_t n, size_t rank, double *g)
{
    size_t keep = n - rank + 1, c, j, lo;
    double y, h;

    for (c = 0; c < n; c++) {
        y = xs[n - 1 - c];
        lo = keep + c + 1 > n ? keep + c + 1 - n : 1;
        for (j = c + 1 < keep ? c + 1 : keep; j >= lo; j--) {
            h = j == 1 || g[j - 1] >= y ? y : g[j - 1];
            if (j == c + 1 || !(g[j] >= h))
                g[j] = h;
        }
    }
    return g[keep];
}

/* *r = *r * x / d, when d divides *r * x; -1 when the result does not fit
 * in 64 bits. *r and d shed their common factor first, which leaves d
 * dividing x, so nothing overflows that the result would not. */
static int
mul_div(u64 *r, u64 x, u64 d)
{
    u64 a = *r, b = d, t;

    while (b != 0) {
        t = a % b;
        a = b;
        b = t;
    }
    x /= d / a;
    if (*r / a > ULLONG_MAX / x)
        return -1;
    *r = *r / a * x;
    return 0;
}

/* The counters the memoized recursion would count, in
 * _pykernels.select_memo's closed form over C(n, K) leaves and
 * C(n + 1, K + 1) states (the level sizes C(p, K), p = K..n, summed).
 * C(n, K) is built up as C(n - K + i, i), i = 1..min(K, n - K), each step
 * exact; any count past 64 bits raises OverflowError. */
static int
memo_counts(size_t n, size_t rank, u64 counts[3])
{
    size_t keep = n - rank + 1, low = keep < rank - 1 ? keep : rank - 1, i;
    u64 top = 1, states, above;

    for (i = 1; i <= low; i++)
        if (mul_div(&top, n - low + i, i) < 0)
            goto overflow;
    states = top;
    if (mul_div(&states, (u64)n + 1, (u64)keep + 1) < 0)
        goto overflow;
    above = states - top;
    if (above != 0 && (u64)(keep + 1) > (ULLONG_MAX - 1) / above)
        goto overflow;
    counts[0] = 1 + (u64)(keep + 1) * above;
    counts[1] = top;
    counts[2] = counts[0] - states;
    return 0;
overflow:
    PyErr_Format(PyExc_OverflowError,
                 "memoized selection of rank %zu from %zu elements: "
                 "a count overflows 64 bits", rank, n);
    return -1;
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

/* Copies and checks (n_vars, consts, code, result), in _check_slp's order,
 * so a program with several faults gets the error _pykernels.compile_slp
 * raises. Instruction k writes register n_vars + n_consts + k and may read
 * only registers below it, so a program that passes never reads outside
 * its register file. */
static Slp *
slp_new(PyObject *const *args)
{
    Py_ssize_t n_vars, n_consts, n_ins, base, result, k, dest;
    PyObject *view_obj, *n_obj = NULL, *result_obj = NULL, *pool = NULL;
    Py_buffer *view;
    Slp *p = NULL;
    const int *c;

    view_obj = PyMemoryView_FromObject(args[2]);
    if (view_obj == NULL)
        return NULL;
    view = PyMemoryView_GET_BUFFER(view_obj);
    if (view->ndim != 1 || view->itemsize != sizeof(int)
            || strcmp(view->format, "i") != 0) {
        PyErr_SetString(PyExc_ValueError, "code must be an array('i')");
        goto done;
    }
    /* Past Py_ssize_t, n_vars and result clamp to its bounds, and the
     * checks below refuse them by value, however large, as _check_slp
     * does; only an n_vars past PY_SSIZE_T_MAX overflows. */
    n_obj = PyNumber_Index(args[0]);
    if (n_obj == NULL)
        goto done;
    n_vars = PyNumber_AsSsize_t(n_obj, NULL);
    if (n_vars == PY_SSIZE_T_MAX)
        n_vars = PyNumber_AsSsize_t(n_obj, PyExc_OverflowError);
    if (n_vars == -1 && PyErr_Occurred())
        goto done;
    result_obj = PyNumber_Index(args[3]);
    if (result_obj == NULL)
        goto done;
    result = PyNumber_AsSsize_t(result_obj, NULL);
    pool = PySequence_Tuple(args[1]);
    if (pool == NULL)
        goto done;
    n_consts = PyTuple_GET_SIZE(pool);
    p = PyMem_Malloc(sizeof(Slp) + (size_t)n_consts * sizeof(double) + (size_t)view->len);
    if (p == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    p->pool = (double *)(p + 1);
    p->code = (int *)(p->pool + n_consts);
    for (k = 0; k < n_consts; k++) {
        p->pool[k] = PyFloat_AsDouble(PyTuple_GET_ITEM(pool, k));
        if (p->pool[k] == -1.0 && PyErr_Occurred())
            goto fail;
    }
    /* Read after the constants, as _check_slp reads it; a sliced
     * memoryview is strided, and this copies any layout in order. */
    if (PyBuffer_ToContiguous(p->code, view, view->len, 'C') < 0)
        goto fail;
    if (view->shape[0] % 3 != 0) {
        PyErr_SetString(PyExc_ValueError, "code must hold (op, a, b) triples");
        goto fail;
    }
    n_ins = view->shape[0] / 3;
    if (n_vars < 0) {
        PyErr_Format(PyExc_ValueError, "n_vars must not be negative, got %S", n_obj);
        goto fail;
    }
    for (k = 0; k < n_consts; k++) {
        if (!isfinite(p->pool[k])) {
            PyErr_Format(PyExc_ValueError, "constant %zd is not finite", k);
            goto fail;
        }
    }
    if (n_vars > INT_MAX || n_consts > INT_MAX - n_vars
            || n_ins > INT_MAX - n_vars - n_consts) {
        PyErr_SetString(PyExc_ValueError, "too many registers");
        goto fail;
    }
    base = n_vars + n_consts;
    if (result < 0 || result >= base + n_ins) {
        PyErr_Format(PyExc_ValueError, "result register %S out of range 0..%zd",
                     result_obj, base + n_ins - 1);
        goto fail;
    }
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
    p->n_vars = n_vars;
    p->n_consts = n_consts;
    p->n_ins = n_ins;
    p->result = result;
    goto done;
fail:
    PyMem_Free(p);
    p = NULL;
done:
    Py_DECREF(view_obj);
    Py_XDECREF(n_obj);
    Py_XDECREF(result_obj);
    Py_XDECREF(pool);
    return p;
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
    PyObject *seq, *index;
    Py_ssize_t len, i;
    long r;
    int overflow;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 positional arguments "
                     "(values, rank) but %zd were given", name, nargs);
        return -1;
    }
    index = PyNumber_Index(args[1]);
    if (index == NULL)
        return -1;
    /* An int past a C long is out of range too, as it is in Python. */
    r = PyLong_AsLongAndOverflow(index, &overflow);
    seq = PySequence_Tuple(args[0]);
    if (seq == NULL) {
        Py_DECREF(index);
        return -1;
    }
    len = PyTuple_GET_SIZE(seq);
    if (overflow || r < 1 || r > len) {
        PyErr_Format(PyExc_ValueError, "rank %S out of range 1..%zd", index, len);
        Py_DECREF(index);
        Py_DECREF(seq);
        return -1;
    }
    Py_DECREF(index);
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

/* Both entries take the first maximum of the leaf minima, on K + 1
 * doubles of scratch. Only select_memo counts, and returns its counters
 * too. */
static PyObject *
normal_form(PyObject *const *args, Py_ssize_t nargs, const char *name, int count)
{
    double *xs, *g, value;
    size_t n, rank;
    u64 counts[3];
    PyObject *out = NULL;

    if (parse_args(args, nargs, name, &xs, &n, &rank) < 0)
        return NULL;
    g = PyMem_Malloc((n - rank + 2) * sizeof(double));
    if (g == NULL) {
        PyMem_Free(xs);
        return PyErr_NoMemory();
    }
    value = leaf_max(xs, n, rank, g);
    if (!count)
        out = PyFloat_FromDouble(value);
    else if (memo_counts(n, rank, counts) == 0)
        out = Py_BuildValue("(dKKK)", value, counts[0], counts[1], counts[2]);
    PyMem_Free(g);
    PyMem_Free(xs);
    return out;
}

static PyObject *
select_memo(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return normal_form(args, nargs, "select_memo", 1);
}

static PyObject *
select_fullrange(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return normal_form(args, nargs, "select_fullrange", 0);
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
