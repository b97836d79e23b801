/* Compiled token alignment kernel.
 *
 * A port of gecedit._align_py.align_ops, which stays the reference: the same
 * substitution costs, DP recurrence, tie-breaking and backtrace, so both
 * return the same edit script (the tests compare them).  The pure kernel
 * fills a band of the DP table that provably holds the backtrace; this one
 * fills the whole table, which gives the same script.  Tokens are interned,
 * and each distinct (source, target) token pair is costed once: 0.0 when
 * equal, 1.0 when 4 * min(la, lb) < la + lb, else 1.0 - sim / 2.0 when
 * sim = 2 * LCS / (la + lb) reaches 0.5, with LCS the exact code-point LCS.
 * The pure kernel's character-bag bound only skips LCS runs whose cost is
 * 1.0 either way, so leaving it out changes no cost.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round the costs
 * differently from the pure kernel.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { OP_KEEP = 0, OP_SUB = 1, OP_DEL = 2, OP_INS = 3 };

/* A distinct token: its code points in the shared pool, and its row (as a
 * source token) and column (as a target token) in the cost table, -1 where it
 * does not occur on that side. */
typedef struct {
    Py_ssize_t start, len, row, col;
} Token;

/* LCS length of a and b; row is scratch for lb + 1 entries. */
static Py_ssize_t
lcs_len(const Py_UCS4 *a, Py_ssize_t la, const Py_UCS4 *b, Py_ssize_t lb, Py_ssize_t *row)
{
    for (Py_ssize_t j = 0; j <= lb; j++)
        row[j] = 0;
    for (Py_ssize_t i = 0; i < la; i++) {
        Py_ssize_t diag = 0;
        for (Py_ssize_t j = 1; j <= lb; j++) {
            Py_ssize_t up = row[j];
            if (a[i] == b[j - 1])
                row[j] = diag + 1;
            else if (row[j - 1] > up)
                row[j] = row[j - 1];
            diag = up;
        }
    }
    return row[lb];
}

/* Id of tok in ids, adding it to ids, toks and pool if new.  Returns -1 with
 * an exception set on failure. */
static Py_ssize_t
intern(PyObject *ids, PyObject *tok, Token *toks, Py_UCS4 *pool, Py_ssize_t *used)
{
    PyObject *found = PyDict_GetItemWithError(ids, tok);
    if (found != NULL)
        return PyLong_AsSsize_t(found);
    if (PyErr_Occurred())
        return -1;
    Py_ssize_t id = PyDict_GET_SIZE(ids), len = PyUnicode_GetLength(tok);
    if (len < 0 || (len && PyUnicode_AsUCS4(tok, pool + *used, len, 0) == NULL))
        return -1;
    PyObject *value = PyLong_FromSsize_t(id);
    if (value == NULL)
        return -1;
    int rc = PyDict_SetItem(ids, tok, value);
    Py_DECREF(value);
    if (rc < 0)
        return -1;
    toks[id] = (Token){*used, len, -1, -1};
    *used += len;
    return id;
}

static PyObject *
align_ops(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *src_arg, *tgt_arg, *src = NULL, *tgt = NULL, *ids = NULL, *out = NULL;
    Token *toks = NULL;
    Py_UCS4 *pool = NULL;
    Py_ssize_t *srow = NULL, *tcol = NULL, *rowtok = NULL, *coltok = NULL, *scratch = NULL;
    double *cost = NULL, *prev = NULL, *cur = NULL;
    unsigned char *opmat = NULL;

    if (!PyArg_UnpackTuple(args, "align_ops", 2, 2, &src_arg, &tgt_arg))
        return NULL;
    /* Tuples, so that no callback from hashing a token can resize them. */
    src = PySequence_Tuple(src_arg);
    tgt = src ? PySequence_Tuple(tgt_arg) : NULL;
    if (tgt == NULL)
        goto done;
    Py_ssize_t n = PyTuple_GET_SIZE(src), m = PyTuple_GET_SIZE(tgt), width = m + 1;
    if (width > PY_SSIZE_T_MAX / (n + 1)) {
        PyErr_NoMemory();
        goto done;
    }

    Py_ssize_t total_len = 0, max_len = 0;
    for (Py_ssize_t k = 0; k < n + m; k++) {
        PyObject *tok = k < n ? PyTuple_GET_ITEM(src, k) : PyTuple_GET_ITEM(tgt, k - n);
        if (!PyUnicode_Check(tok)) {
            PyErr_Format(PyExc_TypeError, "align_ops: tokens must be str, not %.200s",
                         Py_TYPE(tok)->tp_name);
            goto done;
        }
        Py_ssize_t len = PyUnicode_GetLength(tok);
        if (len < 0)
            goto done;
        total_len += len;
        if (len > max_len)
            max_len = len;
    }

    ids = PyDict_New();
    toks = PyMem_New(Token, n + m);
    pool = PyMem_New(Py_UCS4, total_len);
    srow = PyMem_New(Py_ssize_t, n);
    tcol = PyMem_New(Py_ssize_t, m);
    rowtok = PyMem_New(Py_ssize_t, n);
    coltok = PyMem_New(Py_ssize_t, m);
    scratch = PyMem_New(Py_ssize_t, max_len + 1);
    prev = PyMem_New(double, width);
    cur = PyMem_New(double, width);
    opmat = PyMem_New(unsigned char, (n + 1) * width);
    if (!ids || !toks || !pool || !srow || !tcol || !rowtok || !coltok || !scratch || !prev
        || !cur || !opmat) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }

    /* Rows and columns of the cost table, in order of first occurrence. */
    Py_ssize_t used = 0, rows = 0, cols = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t id = intern(ids, PyTuple_GET_ITEM(src, i), toks, pool, &used);
        if (id < 0)
            goto done;
        if (toks[id].row < 0) {
            toks[id].row = rows;
            rowtok[rows++] = id;
        }
        srow[i] = toks[id].row;
    }
    for (Py_ssize_t j = 0; j < m; j++) {
        Py_ssize_t id = intern(ids, PyTuple_GET_ITEM(tgt, j), toks, pool, &used);
        if (id < 0)
            goto done;
        if (toks[id].col < 0) {
            toks[id].col = cols;
            coltok[cols++] = id;
        }
        tcol[j] = toks[id].col;
    }

    cost = PyMem_New(double, rows * cols);
    if (cost == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        const Token *a = &toks[rowtok[r]];
        for (Py_ssize_t c = 0; c < cols; c++) {
            const Token *b = &toks[coltok[c]];
            Py_ssize_t total = a->len + b->len;
            double sub = 1.0;
            if (a == b)
                sub = 0.0;
            else if (4 * (a->len < b->len ? a->len : b->len) >= total) {
                Py_ssize_t lcs = lcs_len(pool + a->start, a->len, pool + b->start, b->len, scratch);
                double sim = 2.0 * (double)lcs / (double)total;
                if (sim >= 0.5)
                    sub = 1.0 - sim / 2.0;
            }
            cost[r * cols + c] = sub;
        }
    }

    for (Py_ssize_t j = 0; j < width; j++) {
        prev[j] = (double)j;
        opmat[j] = OP_INS;
    }
    for (Py_ssize_t i = 1; i <= n; i++) {
        const double *row = cost + srow[i - 1] * cols;
        unsigned char *ops = opmat + i * width;
        cur[0] = (double)i;
        ops[0] = OP_DEL;
        for (Py_ssize_t j = 1; j < width; j++) {
            double c = row[tcol[j - 1]];
            double best = prev[j - 1] + c, t;
            unsigned char op = c == 0.0 ? OP_KEEP : OP_SUB;
            t = prev[j] + 1.0;
            if (t < best) {
                best = t;
                op = OP_DEL;
            }
            t = cur[j - 1] + 1.0;
            if (t < best) {
                best = t;
                op = OP_INS;
            }
            cur[j] = best;
            ops[j] = op;
        }
        double *swap = prev;
        prev = cur;
        cur = swap;
    }

    out = PyList_New(0);
    if (out == NULL)
        goto done;
    for (Py_ssize_t i = n, j = m; i > 0 || j > 0;) {
        int op = opmat[i * width + j];
        PyObject *t;
        if (op == OP_INS)
            t = Py_BuildValue("(inn)", op, (Py_ssize_t)-1, --j);
        else if (op == OP_DEL)
            t = Py_BuildValue("(inn)", op, --i, (Py_ssize_t)-1);
        else {
            i--;
            j--;
            t = Py_BuildValue("(inn)", op, i, j);
        }
        if (t == NULL || PyList_Append(out, t) < 0) {
            Py_XDECREF(t);
            Py_CLEAR(out);
            goto done;
        }
        Py_DECREF(t);
    }
    if (PyList_Reverse(out) < 0)
        Py_CLEAR(out);

done:
    Py_XDECREF(src);
    Py_XDECREF(tgt);
    Py_XDECREF(ids);
    PyMem_Free(toks);
    PyMem_Free(pool);
    PyMem_Free(srow);
    PyMem_Free(tcol);
    PyMem_Free(rowtok);
    PyMem_Free(coltok);
    PyMem_Free(scratch);
    PyMem_Free(cost);
    PyMem_Free(prev);
    PyMem_Free(cur);
    PyMem_Free(opmat);
    return out;
}

static PyMethodDef methods[] = {
    {"align_ops", align_ops, METH_VARARGS,
     "align_ops(src, tgt)\n--\n\n"
     "Minimal-cost monotone edit script; see gecedit._align_py.align_ops."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_align_fast", "Compiled token alignment kernel.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__align_fast(void)
{
    return PyModule_Create(&module);
}
