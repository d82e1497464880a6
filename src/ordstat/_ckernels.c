/* Compiled selection kernels and compiled formulas.
 *
 * Return values and counters equal those of ordstat._pykernels, the
 * reference, bit for bit. Each select_* entry point takes a sequence of
 * floats and a 1-based rank in 1..N (positional arguments only) and raises
 * ValueError for a rank outside that range. normal_forms and naive_ranks
 * take an iterable of such ranks instead, in any order and with
 * duplicates, and answer every rank in one call. One reader, read_args,
 * reads the arguments of all five entries and raises the same errors for
 * each.
 *
 * Each algorithm has one body, and the single entries are its one-rank
 * case. naive_body runs the plain recursion once per rank and sums its
 * counters (naive_ranks, select_naive). normal_body evaluates the max-min
 * normal form that the memoized and the full-range recursion share, the
 * first maximum of the leaf minima, in one pass of leaf_max over a window
 * of subset sizes: n * min(K, rank) steps on K + 1 doubles for one rank,
 * K = n - rank + 1, and n(n + 1)/2 for every rank (normal_forms,
 * select_fullrange).
 *
 * No kernel counts the memoized recursion. Its counters are a closed form
 * of (n, rank), kept once, in Python ints, as _pykernels._memo_counts, so
 * they never overflow; ordstat.selection adds them only when asked.
 * select_memo, which nothing in the package calls, returns
 * select_fullrange's value and those counters.
 *
 * real_values validates a sequence for ordstat.selection.RealSequence:
 * a list or tuple of finite floats in one pass here, any other input in
 * _pykernels.real_values, the one copy of the checks and messages.
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

/* The attribute `name` of the package module `module`, looked up only
 * when it is needed: the package imports this module before it is fully
 * initialised. A module already in sys.modules is taken from there, which
 * costs far less than an import statement. */
static PyObject *
package_attr(const char *module, const char *name)
{
    PyObject *mod_name, *mod, *attr;

    mod_name = PyUnicode_FromString(module);
    if (mod_name == NULL)
        return NULL;
    mod = PyImport_GetModule(mod_name);
    if (mod == NULL && !PyErr_Occurred())
        mod = PyImport_Import(mod_name);
    Py_DECREF(mod_name);
    if (mod == NULL)
        return NULL;
    attr = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return attr;
}

/* Raises ordstat.errors.ExprError. */
static void
expr_error(const char *format, ...)
{
    PyObject *cls;
    va_list va;

    cls = package_attr("ordstat.errors", "ExprError");
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
    int positive;

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
            if (f != NULL) {
                v = PyFloat_AS_DOUBLE(f);
                Py_DECREF(f);
            } else {
                /* A number past the float range is the infinity of its
                   sign, refused below, as _pykernels._to_float gives it. */
                if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                    goto done;
                PyErr_Clear();
                f = PyLong_FromLong(0);
                if (f == NULL)
                    goto done;
                positive = PyObject_RichCompareBool(item, f, Py_GT);
                Py_DECREF(f);
                if (positive < 0)
                    goto done;
                v = positive ? Py_HUGE_VAL : -Py_HUGE_VAL;
            }
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


/* ---- real_values: a sequence validated ------------------------------ */

/* A list or tuple, of exact types, whose items are all exact finite floats
 * comes back as a tuple in one pass, a tuple as itself: float() returns an
 * exact float unchanged, so that is the tuple _pykernels.real_values
 * builds from it. Any other input, an empty or non-finite one included,
 * goes to that function, which converts it or raises its SequenceError.
 * No Python code runs during the pass, so the list cannot change under
 * it. */
static PyObject *
real_values(PyObject *module, PyObject *values)
{
    PyObject **items, *fn, *out;
    Py_ssize_t n, i;

    if (PyTuple_CheckExact(values) || PyList_CheckExact(values)) {
        n = PySequence_Fast_GET_SIZE(values);
        items = PySequence_Fast_ITEMS(values);
        for (i = 0; i < n; i++)
            if (!PyFloat_CheckExact(items[i]) || !isfinite(PyFloat_AS_DOUBLE(items[i])))
                break;
        if (n > 0 && i == n)
            return PyTuple_CheckExact(values) ? Py_NewRef(values) : PyList_AsTuple(values);
    }
    fn = package_attr("ordstat._pykernels", "real_values");
    if (fn == NULL)
        return NULL;
    out = PyObject_CallOneArg(fn, values);
    Py_DECREF(fn);
    return out;
}


/* ---- Python entry points --------------------------------------------- */

/* An entry's arguments, in one block at xs that the entry frees: the n
 * values as doubles, then room for one result per rank (found), then the
 * m ranks. */
typedef struct {
    double *xs, *found;
    size_t n, *ranks;
    Py_ssize_t m;
} Args;

/* Reads the m rank arguments given[0..m), each through __index__, and then
 * values, in _pykernels._checked's order, into *a, each rank checked
 * against 1..n. On the first fault (a rank that is no integer, values that
 * are no sequence, a rank out of range, a value that is no number) returns
 * -1 with nothing to free. */
static int
parse(PyObject *values, PyObject *const *given, Py_ssize_t m, Args *a)
{
    PyObject *one, **index, *seq = NULL;
    Py_ssize_t len, i, got;
    long r;
    int overflow, status = -1;

    a->xs = NULL;
    index = m > 1 ? PyMem_Calloc((size_t)m, sizeof(PyObject *)) : &one;
    if (index == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (got = 0; got < m; got++) {
        index[got] = PyNumber_Index(given[got]);
        if (index[got] == NULL)
            goto done;
    }
    seq = PySequence_Tuple(values);
    if (seq == NULL)
        goto done;
    len = PyTuple_GET_SIZE(seq);
    a->xs = PyMem_Malloc((size_t)(len + m) * sizeof(double) + (size_t)m * sizeof(size_t));
    if (a->xs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    a->found = a->xs + len;
    a->ranks = (size_t *)(a->found + m);
    for (i = 0; i < m; i++) {
        /* An int past a C long is out of range too, as it is in Python. */
        r = PyLong_AsLongAndOverflow(index[i], &overflow);
        if (overflow || r < 1 || r > len) {
            PyErr_Format(PyExc_ValueError, "rank %S out of range 1..%zd", index[i], len);
            goto done;
        }
        a->ranks[i] = (size_t)r;
    }
    for (i = 0; i < len; i++) {
        a->xs[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(seq, i));
        if (a->xs[i] == -1.0 && PyErr_Occurred())
            goto done;
    }
    a->n = (size_t)len;
    a->m = m;
    status = 0;
done:
    if (status < 0)
        PyMem_Free(a->xs);
    for (i = 0; i < got; i++)
        Py_DECREF(index[i]);
    if (index != &one)
        PyMem_Free(index);
    Py_XDECREF(seq);
    return status;
}

/* Reads an entry's (values, rank), or its (values, ranks) when many is
 * set: any iterable of ranks. */
static int
read_args(PyObject *const *args, Py_ssize_t nargs, const char *name, int many, Args *a)
{
    PyObject *items;
    int status;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 positional arguments (values, %s) "
                     "but %zd were given", name, many ? "ranks" : "rank", nargs);
        return -1;
    }
    if (!many)
        return parse(args[0], args + 1, 1, a);
    items = PySequence_Tuple(args[1]);
    if (items == NULL)
        return -1;
    status = parse(args[0], PySequence_Fast_ITEMS(items), PyTuple_GET_SIZE(items), a);
    Py_DECREF(items);
    return status;
}

/* The plain recursion at each rank, into found, on scratch for the
 * deepest: one copy of the shrinking sequence per depth. The counters are
 * the sums over the ranks. */
static int
naive_body(Args *a, u64 *recursive, u64 *base)
{
    double *scratch = NULL;
    size_t deepest = 0;
    Py_ssize_t i;

    for (i = 0; i < a->m; i++)
        if (a->ranks[i] > deepest)
            deepest = a->ranks[i];
    if (a->n == 0 || deepest <= PY_SSIZE_T_MAX / sizeof(double) / a->n)
        scratch = PyMem_Malloc(deepest * a->n * sizeof(double));
    if (scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < a->m; i++)
        a->found[i] = naive(a->xs, a->n, a->ranks[i], scratch, a->n, recursive, base);
    PyMem_Free(scratch);
    return 0;
}

/* The normal form at each rank, into found, from one fold over the window
 * of their subset sizes, on K + 1 doubles for the largest K. */
static int
normal_body(Args *a)
{
    double *g;
    size_t keep, kmin = a->n, kmax = 0;
    Py_ssize_t i;

    for (i = 0; i < a->m; i++) {
        keep = a->n - a->ranks[i] + 1;
        if (keep < kmin)
            kmin = keep;
        if (keep > kmax)
            kmax = keep;
    }
    g = PyMem_Malloc((kmax + 1) * sizeof(double));
    if (g == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    leaf_max(a->xs, a->n, kmin, kmax, g);
    for (i = 0; i < a->m; i++)
        a->found[i] = g[a->n - a->ranks[i] + 1];
    PyMem_Free(g);
    return 0;
}

/* The value found at the one rank, or the tuple of those at many. */
static PyObject *
found_values(const Args *a, int many)
{
    PyObject *out, *f;
    Py_ssize_t i;

    if (!many)
        return PyFloat_FromDouble(a->found[0]);
    out = PyTuple_New(a->m);
    for (i = 0; out != NULL && i < a->m; i++) {
        f = PyFloat_FromDouble(a->found[i]);
        if (f == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, f);
    }
    return out;
}

static PyObject *
naive_entry(PyObject *const *args, Py_ssize_t nargs, const char *name, int many)
{
    Args a;
    u64 recursive = 0, base = 0;
    PyObject *values, *out = NULL;

    if (read_args(args, nargs, name, many, &a) < 0)
        return NULL;
    if (naive_body(&a, &recursive, &base) == 0) {
        values = found_values(&a, many);
        if (values != NULL)
            out = Py_BuildValue("(NKK)", values, recursive, base);
    }
    PyMem_Free(a.xs);
    return out;
}

static PyObject *
normal_entry(PyObject *const *args, Py_ssize_t nargs, const char *name, int many)
{
    Args a;
    PyObject *out = NULL;

    if (read_args(args, nargs, name, many, &a) < 0)
        return NULL;
    if (normal_body(&a) == 0)
        out = found_values(&a, many);
    PyMem_Free(a.xs);
    return out;
}

static PyObject *
select_naive(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return naive_entry(args, nargs, "select_naive", 0);
}

static PyObject *
naive_ranks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return naive_entry(args, nargs, "naive_ranks", 1);
}

static PyObject *
select_fullrange(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return normal_entry(args, nargs, "select_fullrange", 0);
}

static PyObject *
normal_forms(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return normal_entry(args, nargs, "normal_forms", 1);
}

/* select_fullrange's value, then the three counters of
 * ordstat._pykernels._memo_counts(n, rank). */
static PyObject *
select_memo(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Args a;
    PyObject *fn, *counts = NULL, *out = NULL, *recursive, *base, *hits;

    if (read_args(args, nargs, "select_memo", 0, &a) < 0)
        return NULL;
    if (normal_body(&a) == 0
            && (fn = package_attr("ordstat._pykernels", "_memo_counts")) != NULL) {
        counts = PyObject_CallFunction(fn, "nn", (Py_ssize_t)a.n, (Py_ssize_t)a.ranks[0]);
        Py_DECREF(fn);
    }
    if (counts != NULL && PyArg_ParseTuple(counts, "OOO", &recursive, &base, &hits))
        out = Py_BuildValue("(dOOO)", a.found[0], recursive, base, hits);
    Py_XDECREF(counts);
    PyMem_Free(a.xs);
    return out;
}

static PyMethodDef methods[] = {
    {"select_naive", (PyCFunction)(void (*)(void))select_naive, METH_FASTCALL,
     "select_naive(values, rank) -> (value, recursive_calls, base_case_calls)\n\n"
     "Plain elimination recursion."},
    {"select_memo", (PyCFunction)(void (*)(void))select_memo, METH_FASTCALL,
     "select_memo(values, rank) -> (value, recursive_calls, base_case_calls, "
     "memo_hits)\n\nselect_fullrange's value, which is the memoized "
     "recursion's, and the counters it would count, from "
     "ordstat._pykernels._memo_counts."},
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
    {"real_values", real_values, METH_O,
     "real_values(values) -> tuple of floats\n\n"
     "A list or tuple of finite floats as a tuple, a tuple as itself; any "
     "other input as ordstat._pykernels.real_values reads or refuses it."},
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
