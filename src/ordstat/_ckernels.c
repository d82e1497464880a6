/* Compiled selection kernels and compiled formulas.
 *
 * Return values and counters equal those of ordstat._pykernels, the
 * reference, bit for bit. Each select_* entry point takes a sequence of
 * floats and a 1-based rank in 1..N (positional arguments only) and raises
 * ValueError for a rank outside that range. normal_forms and naive_ranks
 * take an iterable of such ranks instead, in any order and with
 * duplicates, and answer every rank in one call; one parser, parse, reads
 * the ranks of all five entries and raises the same errors for each.
 *
 * select_memo and select_fullrange share one body, normal_form: both
 * recursions have the same max-min normal form, since every level above
 * the deepest takes a maximum, so the value is the first maximum of the
 * deepest level's minima. min distributes over that maximum, so leaf_max
 * folds it in one pass over the reversed values, with one running first
 * maximum per subset size: n * min(K, rank) comparisons and K + 1 doubles,
 * K = n - rank + 1, for any n. The running maxima do not depend on K, so
 * the same pass over a window kmin..kmax of sizes leaves every rank of the
 * window final: normal_forms reads all its ranks off one pass, n(n + 1)/2
 * steps for every rank. select_memo adds the counters the memoized
 * recursion would count (memo_counts), from two binomials checked against
 * 64-bit overflow; select_fullrange and normal_forms have none.
 * naive_ranks runs the plain recursion once per rank and sums its
 * counters.
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
 * j runs downward, so g[j - 1] is still the old one.
 *
 * No g[j] depends on K, so one pass serves a window kmin..kmax of subset
 * sizes: j starts at min(c + 1, kmax) and stops at the least size that can
 * still grow into a kmin-subset over the ys left, and g[K] is final for
 * every K in the window; rank r reads g[n - r + 1]. One size, kmin = kmax
 * = K, takes at most min(K, rank) steps per value, n * min(K, rank) in
 * all, on K + 1 doubles; the window 1..n, every rank, takes n(n + 1)/2.
 * No comparison reads a g[j] before it is first written: j == 1 and
 * j == c + 1 are decided before g[j - 1] or g[j] is read. */
static void
leaf_max(const double *xs, size_t n, size_t kmin, size_t kmax, double *g)
{
    size_t c, j, lo;
    double y, h;

    for (c = 0; c < n; c++) {
        y = xs[n - 1 - c];
        lo = kmin + c + 1 > n ? kmin + c + 1 - n : 1;
        for (j = c + 1 < kmax ? c + 1 : kmax; j >= lo; j--) {
            h = j == 1 || g[j - 1] >= y ? y : g[j - 1];
            if (j == c + 1 || !(g[j] >= h))
                g[j] = h;
        }
    }
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

/* Reads the m rank arguments ranks[0..m), each through __index__, and then
 * values, in _pykernels._checked's order: out[0..m) gets the ranks, each
 * checked against 1..n, and *xs a fresh array of the *n values as doubles,
 * which the caller frees with PyMem_Free. On the first fault (a rank that
 * is no integer, values that are no sequence, a rank out of range, a value
 * that is no number) returns -1 with nothing to free. */
static int
parse(PyObject *values, PyObject *const *ranks, Py_ssize_t m,
      double **xs, size_t *n, size_t *out)
{
    PyObject *one, **index, *seq = NULL;
    Py_ssize_t len, i, got;
    long r;
    int overflow, status = -1;

    index = m > 1 ? PyMem_Calloc((size_t)m, sizeof(PyObject *)) : &one;
    if (index == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (got = 0; got < m; got++) {
        index[got] = PyNumber_Index(ranks[got]);
        if (index[got] == NULL)
            goto done;
    }
    seq = PySequence_Tuple(values);
    if (seq == NULL)
        goto done;
    len = PyTuple_GET_SIZE(seq);
    for (i = 0; i < m; i++) {
        /* An int past a C long is out of range too, as it is in Python. */
        r = PyLong_AsLongAndOverflow(index[i], &overflow);
        if (overflow || r < 1 || r > len) {
            PyErr_Format(PyExc_ValueError, "rank %S out of range 1..%zd", index[i], len);
            goto done;
        }
        out[i] = (size_t)r;
    }
    *xs = PyMem_Malloc((size_t)len * sizeof(double));
    if (*xs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < len; i++) {
        (*xs)[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(seq, i));
        if ((*xs)[i] == -1.0 && PyErr_Occurred()) {
            PyMem_Free(*xs);
            goto done;
        }
    }
    *n = (size_t)len;
    status = 0;
done:
    for (i = 0; i < got; i++)
        Py_DECREF(index[i]);
    if (index != &one)
        PyMem_Free(index);
    Py_XDECREF(seq);
    return status;
}

static int
two_args(Py_ssize_t nargs, const char *name, const char *second)
{
    if (nargs == 2)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes 2 positional arguments "
                 "(values, %s) but %zd were given", name, second, nargs);
    return -1;
}

/* (values, rank) of a single entry. */
static int
parse_args(PyObject *const *args, Py_ssize_t nargs, const char *name,
           double **xs, size_t *n, size_t *rank)
{
    if (two_args(nargs, name, "rank") < 0)
        return -1;
    return parse(args[0], args + 1, 1, xs, n, rank);
}

/* (values, ranks) of normal_forms and naive_ranks: any iterable of ranks,
 * read into a fresh array *ranks of *m, which the caller frees as it frees
 * *xs. */
static int
parse_ranks(PyObject *const *args, Py_ssize_t nargs, const char *name,
            double **xs, size_t *n, size_t **ranks, Py_ssize_t *m)
{
    PyObject *items;
    int status = -1;

    if (two_args(nargs, name, "ranks") < 0)
        return -1;
    items = PySequence_Tuple(args[1]);
    if (items == NULL)
        return -1;
    *m = PyTuple_GET_SIZE(items);
    *ranks = PyMem_Malloc((size_t)*m * sizeof(size_t));
    if (*ranks == NULL)
        PyErr_NoMemory();
    else if (parse(args[0], PySequence_Fast_ITEMS(items), *m, xs, n, *ranks) == 0)
        status = 0;
    else
        PyMem_Free(*ranks);
    Py_DECREF(items);
    return status;
}

/* The tuple of the m floats v[0..m), or NULL with an exception set. */
static PyObject *
float_tuple(const double *v, Py_ssize_t m)
{
    PyObject *out = PyTuple_New(m), *f;
    Py_ssize_t i;

    for (i = 0; out != NULL && i < m; i++) {
        f = PyFloat_FromDouble(v[i]);
        if (f == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, f);
    }
    return out;
}

/* Scratch for the naive recursion down to `rank`, one copy of the shrinking
 * sequence per depth, and `extra` doubles after it. */
static double *
naive_scratch(size_t n, size_t rank, size_t extra)
{
    double *scratch = NULL;

    if (n == 0 || rank <= (PY_SSIZE_T_MAX / sizeof(double) - extra) / n)
        scratch = PyMem_Malloc((rank * n + extra) * sizeof(double));
    if (scratch == NULL)
        PyErr_NoMemory();
    return scratch;
}

static PyObject *
select_naive(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double *xs, *scratch, value;
    size_t n, rank;
    u64 recursive = 0, base = 0;

    if (parse_args(args, nargs, "select_naive", &xs, &n, &rank) < 0)
        return NULL;
    scratch = naive_scratch(n, rank, 0);
    if (scratch == NULL) {
        PyMem_Free(xs);
        return NULL;
    }
    value = naive(xs, n, rank, scratch, n, &recursive, &base);
    PyMem_Free(scratch);
    PyMem_Free(xs);
    return Py_BuildValue("(dKK)", value, recursive, base);
}

/* The plain recursion once per rank, on scratch for the deepest; the
 * counters are the sums of the single calls'. */
static PyObject *
naive_ranks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double *xs, *scratch, *found;
    size_t n, *ranks, deepest = 0;
    Py_ssize_t m, i;
    u64 recursive = 0, base = 0;
    PyObject *values, *out = NULL;

    if (parse_ranks(args, nargs, "naive_ranks", &xs, &n, &ranks, &m) < 0)
        return NULL;
    for (i = 0; i < m; i++)
        if (ranks[i] > deepest)
            deepest = ranks[i];
    scratch = naive_scratch(n, deepest, (size_t)m);
    if (scratch != NULL) {
        found = scratch + deepest * n;
        for (i = 0; i < m; i++)
            found[i] = naive(xs, n, ranks[i], scratch, n, &recursive, &base);
        values = float_tuple(found, m);
        if (values != NULL)
            out = Py_BuildValue("(NKK)", values, recursive, base);
        PyMem_Free(scratch);
    }
    PyMem_Free(ranks);
    PyMem_Free(xs);
    return out;
}

/* Both entries take the first maximum of the leaf minima, on K + 1
 * doubles of scratch. Only select_memo counts, and returns its counters
 * too. */
static PyObject *
normal_form(PyObject *const *args, Py_ssize_t nargs, const char *name, int count)
{
    double *xs, *g, value;
    size_t n, rank, keep;
    u64 counts[3];
    PyObject *out = NULL;

    if (parse_args(args, nargs, name, &xs, &n, &rank) < 0)
        return NULL;
    keep = n - rank + 1;
    g = PyMem_Malloc((keep + 1) * sizeof(double));
    if (g == NULL) {
        PyMem_Free(xs);
        return PyErr_NoMemory();
    }
    leaf_max(xs, n, keep, keep, g);
    value = g[keep];
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

/* Every rank from one fold over the window of their subset sizes, on
 * K + 1 doubles for the largest K, and one double per rank. */
static PyObject *
normal_forms(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double *xs, *g, *found;
    size_t n, *ranks, keep, kmin, kmax = 0;
    Py_ssize_t m, i;
    PyObject *out = NULL;

    if (parse_ranks(args, nargs, "normal_forms", &xs, &n, &ranks, &m) < 0)
        return NULL;
    kmin = n;
    for (i = 0; i < m; i++) {
        keep = n - ranks[i] + 1;
        if (keep < kmin)
            kmin = keep;
        if (keep > kmax)
            kmax = keep;
    }
    g = PyMem_Malloc((kmax + 1 + (size_t)m) * sizeof(double));
    if (g == NULL) {
        PyErr_NoMemory();
    } else {
        leaf_max(xs, n, kmin, kmax, g);
        found = g + kmax + 1;
        for (i = 0; i < m; i++)
            found[i] = g[n - ranks[i] + 1];
        out = float_tuple(found, m);
        PyMem_Free(g);
    }
    PyMem_Free(ranks);
    PyMem_Free(xs);
    return out;
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
    {"normal_forms", (PyCFunction)(void (*)(void))normal_forms, METH_FASTCALL,
     "normal_forms(values, ranks) -> tuple of values\n\n"
     "select_fullrange's value at each rank, in the order given, from one "
     "fold over the window of their subset sizes."},
    {"naive_ranks", (PyCFunction)(void (*)(void))naive_ranks, METH_FASTCALL,
     "naive_ranks(values, ranks) -> (values, recursive_calls, base_case_calls)"
     "\n\nselect_naive at each rank, in the order given; the counters are "
     "the sums of the single calls'."},
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
