/* Compiled selection kernels and compiled formulas.
 *
 * Return values and counters equal those of ordstat._pykernels, the
 * reference, bit for bit. The package calls four entries: naive_ranks and
 * normal_forms, which take a sequence of floats and an iterable of 1-based
 * ranks in 1..N, in any order and with duplicates, and answer every rank
 * in one call; real_values; and compile_slp. Arguments are positional only.
 *
 * An entry answers a call itself only when its input is exact: values a
 * tuple or list of exact floats and ranks exact ints in range, in a tuple
 * or list (read_exact), or a non-empty tuple or list of exact finite
 * floats (real_values). Every other call, a wrong number of arguments
 * included, goes as given to the entry of the same name in _pykernels
 * (forward), which answers it or raises its error: that module is the one
 * definition of what every entry accepts. No Python code runs in C's
 * checks, so __index__ and __float__ run once, in the reference's order.
 * A compiled formula must run here, so compile_slp and the formula it
 * returns read back what _packed and _inputs return for a program or
 * inputs that slp_read and read_floats do not take; a result they cannot
 * read raises SystemError.
 *
 * Each algorithm has one body. naive_body runs the plain recursion once
 * per rank and sums its counters (naive_ranks). normal_body evaluates the
 * max-min normal form that the memoized and the full-range recursion
 * share, the first maximum of the leaf minima, in one pass of leaf_max
 * over a window of subset sizes: n * min(K, rank) steps on K + 1 doubles
 * for one rank, K = n - rank + 1, and n(n + 1)/2 for every rank
 * (normal_forms).
 *
 * No kernel counts the memoized recursion. Its counters are a closed form
 * of (n, rank), kept once, in Python ints, as _pykernels._memo_counts, so
 * they never overflow; ordstat.selection adds them only when asked.
 *
 * The single-rank entries select_naive, select_fullrange and select_memo
 * stay for perfbench's tracer and the twin tests; nothing in the package
 * calls them, and each forwards every call to its _pykernels twin, which
 * is naive_ranks or normal_forms at one rank (select_memo adds the memo
 * counters).
 *
 * real_values validates a sequence for ordstat.selection.RealSequence.
 * compile_slp turns a packed straight-line program (see
 * _pykernels.compile_slp, which defines it) into a callable that runs
 * each op on a double register file: no Python source is generated or
 * executed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <string.h>

typedef unsigned long long u64;

/* ---- naive_ranks: the plain recursion -------------------------------- */

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


/* ---- normal_forms: the max-min normal form --------------------------- */

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

/* ordstat._pykernels.<name>(*args): the reference, which answers every
 * call that C does not answer itself. It is looked up on each call. */
static PyObject *
forward(const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fn, *out;

    fn = package_attr("ordstat._pykernels", name);
    if (fn == NULL)
        return NULL;
    out = PyObject_Vectorcall(fn, args, (size_t)nargs, NULL);
    Py_DECREF(fn);
    return out;
}

/* 1 when values is a tuple or list, of exact type, whose first n items are
 * exact floats, finite ones if `finite` is set, copied into out unless it
 * is NULL; else 0. No Python code runs, so a list cannot change. */
static int
read_floats(PyObject *values, Py_ssize_t n, int finite, double *out)
{
    PyObject **items;
    Py_ssize_t i;
    double v;

    if (!(PyTuple_CheckExact(values) || PyList_CheckExact(values))
            || PySequence_Fast_GET_SIZE(values) < n)
        return 0;
    items = PySequence_Fast_ITEMS(values);
    for (i = 0; i < n; i++) {
        if (!PyFloat_CheckExact(items[i]))
            return 0;
        v = PyFloat_AS_DOUBLE(items[i]);
        if (finite && !isfinite(v))
            return 0;
        if (out != NULL)
            out[i] = v;
    }
    return 1;
}

/* The op loop's speed depends on where it falls in a 32-byte fetch block,
 * and the compiler may emit other functions ahead of this one in any
 * order, so its start is pinned to a 32-byte boundary. */
#if defined(__GNUC__)
__attribute__((aligned(32)))
#endif
static PyObject *
run_slp(PyObject *self, PyObject *values)
{
    const Slp *p = PyCapsule_GetPointer(self, SLP_CAPSULE);
    PyObject *call[2], *inputs, *f, *cls, *out = NULL;
    double stack[SLP_STACK_REGS], *r = stack, *t, a, b, v;
    Py_ssize_t k, n_regs;
    const int *c;
    int read;

    if (p == NULL)
        return NULL;
    n_regs = p->n_vars + p->n_consts + p->n_ins;
    if (n_regs > SLP_STACK_REGS) {
        r = PyMem_Malloc((size_t)n_regs * sizeof(double));
        if (r == NULL)
            return PyErr_NoMemory();
    }
    if (!read_floats(values, p->n_vars, 1, r)) {
        /* _inputs returns the first n_vars values as finite floats. */
        call[0] = values;
        call[1] = PyLong_FromSsize_t(p->n_vars);
        inputs = call[1] == NULL ? NULL : forward("_inputs", call, 2);
        Py_XDECREF(call[1]);
        if (inputs == NULL)
            goto done;
        read = read_floats(inputs, p->n_vars, 1, r);
        Py_DECREF(inputs);
        if (!read) {
            PyErr_BadInternalCall();
            goto done;
        }
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
            /* ordstat.errors.ExprError, as _pykernels._run_slp raises it. */
            f = PyFloat_FromDouble(v);
            if (f != NULL && (cls = package_attr("ordstat.errors", "ExprError")) != NULL) {
                PyErr_Format(cls, "non-finite intermediate %R at t%zd", f, k);
                Py_DECREF(cls);
            }
            Py_XDECREF(f);
            goto done;
        }
        t[k] = v;
    }
    out = PyFloat_FromDouble(r[p->result]);
done:
    if (r != stack)
        PyMem_Free(r);
    return out;
}

static PyMethodDef run_slp_def = {
    "formula", (PyCFunction)run_slp, METH_O,
    "formula(values) -> float\n\n"
    "Runs the compiled program on float(values[0..N)); a missing or "
    "non-finite input, or a non-finite intermediate, raises ExprError.",
};

/* Copies the program (n_vars, consts, code, result) at args[0..4) to *out
 * when it comes as expr._compile_program packs it: exact ints, a tuple of
 * exact finite floats, a C-contiguous array('i') of (op, a, b) triples
 * with known ops, at most INT_MAX registers. Instruction k writes register
 * n_vars + n_consts + k and may read only registers below it, so no
 * program kept reads outside its register file. Returns 1 when read, 0
 * when not in that form, and -1 on MemoryError. Only an immutable type,
 * such as array.array, is asked for a buffer: it is a C type, so that
 * runs no Python code. The code is copied before it is checked, so no
 * int is read unaligned. */
static int
slp_read(PyObject *const *args, Slp **out)
{
    Py_buffer view;
    long n_vars, result;
    Py_ssize_t n_consts, n_ins, base, k;
    int ints, big_n, big_r;
    const int *c;
    Slp *p = NULL;

    if (!PyLong_CheckExact(args[0]) || !PyTuple_CheckExact(args[1]) || !PyLong_CheckExact(args[3])
            || !PyType_HasFeature(Py_TYPE(args[2]), Py_TPFLAGS_IMMUTABLETYPE))
        return 0;
    if (PyObject_GetBuffer(args[2], &view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0) {
        PyErr_Clear();
        return 0;
    }
    n_consts = PyTuple_GET_SIZE(args[1]);
    n_ins = view.len / (3 * (Py_ssize_t)sizeof(int));
    ints = view.ndim == 1 && view.itemsize == sizeof(int) && strcmp(view.format, "i") == 0
           && view.len % (3 * sizeof(int)) == 0;
    if (ints) {
        p = PyMem_Malloc(sizeof(Slp) + (size_t)n_consts * sizeof(double) + (size_t)view.len);
        if (p != NULL) {
            p->pool = (double *)(p + 1);
            p->code = (int *)(p->pool + n_consts);
            memcpy(p->code, view.buf, (size_t)view.len);
        }
    }
    PyBuffer_Release(&view);
    if (!ints)
        return 0;
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    n_vars = PyLong_AsLongAndOverflow(args[0], &big_n);
    result = PyLong_AsLongAndOverflow(args[3], &big_r);
    if (big_n || big_r || n_vars < 0 || n_vars > INT_MAX || n_consts > INT_MAX - n_vars)
        goto inexact;
    base = n_vars + n_consts;
    if (n_ins > INT_MAX - base || result < 0 || result >= base + n_ins
            || !read_floats(args[1], n_consts, 1, p->pool))
        goto inexact;
    for (k = 0, c = p->code; k < n_ins; k++, c += 3)
        if (c[0] < 0 || c[0] >= N_OPS || c[1] < 0 || c[1] >= base + k
                || c[2] < 0 || c[2] >= base + k)
            goto inexact;
    p->n_vars = n_vars;
    p->n_consts = n_consts;
    p->n_ins = n_ins;
    p->result = result;
    *out = p;
    return 1;
inexact:
    PyMem_Free(p);
    return 0;
}

static PyObject *
compile_slp(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *packed, *capsule, *fn;
    Slp *p = NULL;
    int status;

    if (nargs != 4)
        return forward("compile_slp", args, nargs);
    status = slp_read(args, &p);
    if (status == 0) {
        /* _packed raises the program's error or returns it packed. */
        packed = forward("_packed", args, 4);
        if (packed == NULL)
            return NULL;
        if (PyTuple_CheckExact(packed) && PyTuple_GET_SIZE(packed) == 4)
            status = slp_read(PySequence_Fast_ITEMS(packed), &p);
        Py_DECREF(packed);
        if (status == 0)
            PyErr_BadInternalCall();
    }
    if (status <= 0)
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
 * builds from it. Any other call, an empty or non-finite input or a wrong
 * number of arguments included, is forwarded to that function. */
static PyObject *
real_values(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *values = nargs == 1 ? args[0] : NULL;
    Py_ssize_t n;

    n = values != NULL && (PyTuple_CheckExact(values) || PyList_CheckExact(values))
        ? PySequence_Fast_GET_SIZE(values) : 0;
    if (n > 0 && read_floats(values, n, 1, NULL))
        return PyTuple_CheckExact(values) ? Py_NewRef(values) : PyList_AsTuple(values);
    return forward("real_values", args, nargs);
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

/* Reads an entry's two arguments into *a when they are exact: values a
 * tuple or list of exact floats, then a tuple or list of ranks, each an
 * exact int in 1..n. Returns 1 when read, 0 when they are not exact, with
 * nothing to free, and -1 on MemoryError. */
static int
read_exact(PyObject *const *args, Py_ssize_t nargs, Args *a)
{
    PyObject **rank;
    Py_ssize_t n, m, i;
    long r;
    int overflow;

    if (nargs != 2 || !(PyTuple_CheckExact(args[0]) || PyList_CheckExact(args[0]))
            || !(PyTuple_CheckExact(args[1]) || PyList_CheckExact(args[1])))
        return 0;
    n = PySequence_Fast_GET_SIZE(args[0]);
    m = PySequence_Fast_GET_SIZE(args[1]);
    rank = PySequence_Fast_ITEMS(args[1]);
    a->xs = PyMem_Malloc((size_t)(n + m) * sizeof(double) + (size_t)m * sizeof(size_t));
    if (a->xs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    a->found = a->xs + n;
    a->ranks = (size_t *)(a->found + m);
    a->n = (size_t)n;
    a->m = m;
    for (i = 0; i < m && PyLong_CheckExact(rank[i]); i++) {
        r = PyLong_AsLongAndOverflow(rank[i], &overflow);
        if (overflow || r < 1 || r > n)
            break;
        a->ranks[i] = (size_t)r;
    }
    if (i == m && read_floats(args[0], n, 0, a->xs))
        return 1;
    PyMem_Free(a->xs);
    return 0;
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

/* The tuple of the values found, one per rank. */
static PyObject *
found_values(const Args *a)
{
    PyObject *out, *f;
    Py_ssize_t i;

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
naive_ranks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Args a;
    u64 recursive = 0, base = 0;
    PyObject *values, *out = NULL;
    int status = read_exact(args, nargs, &a);

    if (status <= 0)
        return status == 0 ? forward("naive_ranks", args, nargs) : NULL;
    if (naive_body(&a, &recursive, &base) == 0) {
        values = found_values(&a);
        if (values != NULL)
            out = Py_BuildValue("(NKK)", values, recursive, base);
    }
    PyMem_Free(a.xs);
    return out;
}

static PyObject *
normal_forms(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Args a;
    PyObject *out = NULL;
    int status = read_exact(args, nargs, &a);

    if (status <= 0)
        return status == 0 ? forward("normal_forms", args, nargs) : NULL;
    if (normal_body(&a) == 0)
        out = found_values(&a);
    PyMem_Free(a.xs);
    return out;
}

/* The single-rank entries: nothing in the package calls them, so every
 * call is the reference's, which is the many-rank entry at one rank. */
static PyObject *
select_naive(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return forward("select_naive", args, nargs);
}

static PyObject *
select_fullrange(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return forward("select_fullrange", args, nargs);
}

static PyObject *
select_memo(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return forward("select_memo", args, nargs);
}

static PyMethodDef methods[] = {
    {"select_naive", (PyCFunction)(void (*)(void))select_naive, METH_FASTCALL,
     "select_naive(values, rank) -> (value, recursive_calls, base_case_calls)\n\n"
     "ordstat._pykernels.select_naive: naive_ranks at one rank."},
    {"select_memo", (PyCFunction)(void (*)(void))select_memo, METH_FASTCALL,
     "select_memo(values, rank) -> (value, recursive_calls, base_case_calls, "
     "memo_hits)\n\nordstat._pykernels.select_memo: select_fullrange's "
     "value, which is the memoized recursion's, and the counters it would "
     "count."},
    {"select_fullrange", (PyCFunction)(void (*)(void))select_fullrange,
     METH_FASTCALL,
     "select_fullrange(values, rank) -> value\n\n"
     "ordstat._pykernels.select_fullrange: normal_forms at one rank."},
    {"normal_forms", (PyCFunction)(void (*)(void))normal_forms, METH_FASTCALL,
     "normal_forms(values, ranks) -> tuple of values\n\n"
     "The max-min normal form, which the memoized and the full-range "
     "recursion share, at each rank, in the order given, from one fold over "
     "the window of their subset sizes."},
    {"naive_ranks", (PyCFunction)(void (*)(void))naive_ranks, METH_FASTCALL,
     "naive_ranks(values, ranks) -> (values, recursive_calls, base_case_calls)"
     "\n\nThe plain recursion at each rank, in the order given; the "
     "counters are summed over the ranks."},
    {"real_values", (PyCFunction)(void (*)(void))real_values, METH_FASTCALL,
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
