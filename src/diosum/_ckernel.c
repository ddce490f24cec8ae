/* Compiled term kernel for the 128-bit working representation.

   One entry, block_128, runs sums and counts through one loop, run(), as
   _pykernel.block does.  Arithmetic mirrors it exactly: unsigned 128-bit
   wraparound is the fractional-part circle, reciprocal bounds use the same
   error-free directed conversion and the same guard constants, and terms
   accumulate in the same order, so results are bit-identical to the
   fallback at 128 bits.

   Indices n, the interval widths n*aw + bw and the cut or threshold band
   must fit the integer types below; diosum.kernel sends other blocks to the
   pure-Python kernel.  The loop runs without the GIL and holds flagged
   indices in a fixed buffer, re-taking the GIL only to hand a full buffer
   over to the result list.

   disc_profile is the discrepancy profile of counting.discrepancy_profile:
   the same float64 operations as the numpy loop in _pykernel, in the same
   order, with one sorted scratch array and no allocation per N.

   Needs unsigned __int128 (gcc or clang), and doubles that round to double
   precision with no fused multiply-add (setup.py passes -ffp-contract=off). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must be evaluated in double precision"
#endif

typedef unsigned __int128 u128;
typedef uint64_t u64;

/* as _pykernel: covers the roundings in 1/x and the weight division */
#define GUARD_UP (1.0 + 0x1p-48)
#define GUARD_DN (1.0 - 0x1p-48)

#define FLAGBUF 256

/* POW2[s] = 2**(s - 128); exact, normal doubles */
static double POW2[128 - 53 + 1];

typedef struct {
    u128 a, b;
    u128 band_lo, band_hi; /* cut band (sums) or threshold band (counts) */
    u64 aw, bw, n, n1, exclude;
    int variant, weight, has_cut, has_exclude;
    int done;
    double s_lo, s_hi;
    u64 hits; /* terms included (sums) or members counted (counts) */
} job;

static inline int bitlen(u128 x)
{
    u64 hi = (u64)(x >> 64);
    return hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((u64)x);
}

/* Evaluates j->n, j->n + 1, ... until j->n1 is done or FLAGBUF indices
   are flagged; returns how many were.  `counting` is a constant at each
   call site, so the compiler emits one specialised loop per mode. */
static inline int run(job *j, u64 *buf, const int counting)
{
    const u128 half = (u128)1 << 127;
    u64 n = j->n;
    int nb = 0;
    double s_lo = j->s_lo, s_hi = j->s_hi;
    u64 hits = j->hits;

    for (;;) {
        if (counting || !j->has_exclude || n != j->exclude) {
            u128 r = (u128)n * j->a + j->b;
            u128 top = r + (n * j->aw + j->bw);
            u128 d_lo, d_hi;
            if (top < r) /* the interval wraps through 0 */
                goto flag;
            if (j->variant == 0) { /* distance to nearest integer */
                if (top <= half) {
                    d_lo = r;
                    d_hi = top;
                } else if (r >= half) {
                    d_lo = -top;
                    d_hi = -r;
                } else {
                    u128 m_top = -top;
                    d_lo = r < m_top ? r : m_top;
                    d_hi = half;
                }
            } else if (j->variant == 1) { /* fractional part */
                d_lo = r;
                d_hi = top;
            } else { /* complement 1 - {x} */
                if (r == 0) /* d_hi would be the full modulus */
                    goto flag;
                d_lo = -top;
                d_hi = -r;
            }
            if (counting) {
                if (d_hi <= j->band_lo)
                    hits++;
                else if (d_lo < j->band_hi)
                    goto flag;
            } else {
                if (d_lo == 0)
                    goto flag;
                if (j->has_cut) {
                    if (d_hi <= j->band_lo)
                        goto next;
                    if (d_lo < j->band_hi)
                        goto flag;
                }
                int sh = bitlen(d_hi) - 53;
                if (sh < 0)
                    sh = 0;
                u64 mh = (u64)(d_hi >> sh);
                if (((u128)mh << sh) != d_hi)
                    mh++;
                double x_hi = (double)mh * POW2[sh];
                double x_lo = (double)(u64)(d_lo >> sh) * POW2[sh];
                double q_hi = 1.0 / x_lo;
                double q_lo = 1.0 / x_hi;
                if (j->weight) {
                    q_hi = q_hi / (double)n;
                    q_lo = q_lo / (double)n;
                }
                s_hi += q_hi * GUARD_UP;
                s_lo += q_lo * GUARD_DN;
                hits++;
            }
            goto next;
        flag:
            buf[nb++] = n;
        }
    next:
        if (n == j->n1) {
            j->done = 1;
            break;
        }
        n++;
        if (nb == FLAGBUF)
            break;
    }
    j->n = n;
    j->s_lo = s_lo;
    j->s_hi = s_hi;
    j->hits = hits;
    return nb;
}

/* Runs the job over [n0, n1]; returns the list of flagged indices. */
static PyObject *drive(job *j, u64 n0, u64 n1, const int counting)
{
    PyObject *flags = PyList_New(0);
    u64 buf[FLAGBUF];

    if (flags == NULL)
        return NULL;
    j->n = n0;
    j->n1 = n1;
    j->done = n0 > n1;
    while (!j->done) {
        int nb;
        Py_BEGIN_ALLOW_THREADS
        nb = counting ? run(j, buf, 1) : run(j, buf, 0);
        Py_END_ALLOW_THREADS
        for (int i = 0; i < nb; i++) {
            PyObject *v = PyLong_FromUnsignedLongLong(buf[i]);
            if (v == NULL || PyList_Append(flags, v) < 0) {
                Py_XDECREF(v);
                Py_DECREF(flags);
                return NULL;
            }
            Py_DECREF(v);
        }
    }
    return flags;
}

static int to_u64(PyObject *o, void *out)
{
    u64 v = PyLong_AsUnsignedLongLong(o);
    if (v == (u64)-1 && PyErr_Occurred())
        return 0;
    *(u64 *)out = v;
    return 1;
}

/* o mod 2**128 if wrap, else o itself, which must lie in [0, 2**128) */
static int to_u128(PyObject *o, u128 *out, int wrap)
{
    PyObject *shift = PyLong_FromLong(64), *hi_obj;
    u64 hi, lo;

    if (shift == NULL)
        return 0;
    hi_obj = PyNumber_Rshift(o, shift);
    Py_DECREF(shift);
    if (hi_obj == NULL)
        return 0;
    hi = wrap ? PyLong_AsUnsignedLongLongMask(hi_obj) : PyLong_AsUnsignedLongLong(hi_obj);
    Py_DECREF(hi_obj);
    if (hi == (u64)-1 && PyErr_Occurred())
        return 0;
    lo = PyLong_AsUnsignedLongLongMask(o);
    if (lo == (u64)-1 && PyErr_Occurred())
        return 0;
    *out = (u128)hi << 64 | lo;
    return 1;
}

/* block_128(a, aw, b, bw, n0, n1, variant, weight, band_lo, band_hi, exclude,
   counting): _pykernel.block at bits = 128.  A sum takes None for no cut
   band; a count needs its threshold band. */
static PyObject *block_128(PyObject *self, PyObject *args)
{
    job j = {0};
    PyObject *a, *b, *band_lo, *band_hi, *exclude, *flags;
    u64 n0, n1;
    int counting;

    if (!PyArg_ParseTuple(args, "OO&OO&O&O&ipOOOp:block_128", &a, to_u64, &j.aw, &b,
                          to_u64, &j.bw, to_u64, &n0, to_u64, &n1, &j.variant, &j.weight,
                          &band_lo, &band_hi, &exclude, &counting))
        return NULL;
    if (!to_u128(a, &j.a, 1) || !to_u128(b, &j.b, 1))
        return NULL;
    j.has_cut = band_lo != Py_None;
    if (counting && !j.has_cut) {
        PyErr_SetString(PyExc_ValueError, "a count needs a threshold band");
        return NULL;
    }
    if (j.has_cut && (!to_u128(band_lo, &j.band_lo, 0) || !to_u128(band_hi, &j.band_hi, 0)))
        return NULL;
    /* an exclude index outside u64 equals no n here */
    j.exclude = PyLong_AsUnsignedLongLong(exclude);
    j.has_exclude = !(j.exclude == (u64)-1 && PyErr_Occurred());
    if (!j.has_exclude) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return NULL;
        PyErr_Clear();
    }
    flags = drive(&j, n0, n1, counting);
    if (flags == NULL)
        return NULL;
    return Py_BuildValue("ddKN", j.s_lo, j.s_hi, (unsigned long long)j.hits, flags);
}

/* D_N of x_1..x_N for every N: x_N goes into the sorted scratch array at
   its left insertion point, then one pass evaluates exactly the float64
   operations of _pykernel.disc_from_sorted in the same order, so every
   output double is bit-identical to the numpy loop. */
static void profile(const double *xs, double *out, double *cur, Py_ssize_t n_max)
{
    for (Py_ssize_t N = 1; N <= n_max; N++) {
        double x = xs[N - 1];
        Py_ssize_t lo = 0, hi = N - 1;
        while (lo < hi) { /* first position with cur >= x */
            Py_ssize_t mid = lo + (hi - lo) / 2;
            if (cur[mid] < x)
                lo = mid + 1;
            else
                hi = mid;
        }
        memmove(cur + lo + 1, cur + lo, (size_t)(N - 1 - lo) * sizeof(double));
        cur[lo] = x;

        const double Nd = (double)N;
        double m = INFINITY, best_plus = -INFINITY;  /* u running min, max(u - m) */
        double pm = 0.0, best_minus = -INFINITY;     /* v prefix min from v_0 = 0 */
        for (Py_ssize_t j = 1; j <= N; j++) {
            double u = (double)j - Nd * cur[j - 1];
            if (u < m)
                m = u;
            double dp = u - m;
            if (dp > best_plus)
                best_plus = dp;
            double v = -u;
            double dm = v - pm;
            if (dm > best_minus)
                best_minus = dm;
            if (v < pm)
                pm = v;
        }
        double dm = -1.0 - pm; /* v_{N+1} = -1 */
        if (dm > best_minus)
            best_minus = dm;
        double e_plus = best_plus + 1.0, e_minus = best_minus + 1.0;
        out[N - 1] = e_minus > e_plus ? e_minus : e_plus;
    }
}

static PyObject *disc_profile(PyObject *self, PyObject *args)
{
    Py_buffer xb, ob;
    double *cur = NULL;
    PyObject *res = NULL;

    if (!PyArg_ParseTuple(args, "y*w*:disc_profile", &xb, &ob))
        return NULL;
    if (xb.len % (Py_ssize_t)sizeof(double) || ob.len != xb.len ||
        (uintptr_t)xb.buf % _Alignof(double) || (uintptr_t)ob.buf % _Alignof(double)) {
        PyErr_SetString(PyExc_ValueError, "need two aligned float64 buffers of one length");
        goto done;
    }
    Py_ssize_t n = xb.len / (Py_ssize_t)sizeof(double);
    cur = PyMem_RawMalloc(n ? (size_t)xb.len : 1);
    if (cur == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    profile(xb.buf, ob.buf, cur, n);
    Py_END_ALLOW_THREADS
    res = Py_None;
    Py_INCREF(res);
done:
    PyMem_RawFree(cur);
    PyBuffer_Release(&xb);
    PyBuffer_Release(&ob);
    return res;
}

static PyMethodDef methods[] = {
    {"block_128", block_128, METH_VARARGS,
     "block_128(a, aw, b, bw, n0, n1, variant, weight, band_lo, band_hi, exclude, counting)\n"
     "-> (s_lo, s_hi, hits, flagged); _pykernel.block at bits=128."},
    {"disc_profile", disc_profile, METH_VARARGS,
     "disc_profile(xs, out)\n"
     "out[N-1] = D_N of xs[:N] for every N, as _pykernel.disc_profile; float64 buffers."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "diosum._ckernel",
    "Compiled 128-bit term kernel and discrepancy profile, bit-identical to\n"
    "diosum._pykernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    for (int s = 0; s <= 128 - 53; s++)
        POW2[s] = ldexp(1.0, s - 128);
    return PyModule_Create(&module);
}
