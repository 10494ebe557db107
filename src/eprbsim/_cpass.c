/* One chunk of the certified streaming pass of eprbsim.experiment.
 *
 * This is experiment._chunk_counts (CFD) and experiment._noncfd_chunk
 * (non-CFD) transliterated, operation for operation: the counter hash of
 * kernels.fill_uniforms, the table trig of experiment._trig, the
 * angle-addition decision values and the certification tests of
 * experiment._station_flags, and the binary powering of
 * experiment._abs_power.  Built with -ffp-contract=off and without
 * -ffast-math, every + - * rounds once, as numpy's does, so every value
 * and every certified flag is the numpy pass's, bit for bit.  Only a d
 * that is not an integer in [1, 32] calls libm pow where numpy calls
 * its own power; the bounds of experiment._flag_bounds cover either.
 *
 * A chunk runs in blocks of BLOCK trials, each stage over the whole
 * block, as numpy runs each stage over the whole chunk; a block's arrays
 * stay in the L1 cache.  A (trial, station) evaluation that the bounds
 * cannot certify is handed back: the trial goes to the pending arrays
 * with its uniforms, its state as computed and a mask of its uncertain
 * stations, and stays out of the histogram.  Python settles it with the
 * exact station law.
 *
 * Python computes every input (origins, turns, bounds, table, chunk
 * length); see experiment._Compiled.
 *
 * cpass_format writes the trial dump's CSV records: str of each integer
 * and '%.17g' of each double, byte for byte as Python prints them.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define M1 0xBF58476D1CE4E5B9ULL
#define M2 0x94D049BB133111EBULL
#define BLOCK 128

/* Mirrored field for field by kernels.CPassPoint. */
struct cpass_point {
    const uint64_t *origins;    /* stream origins, in the pass's order */
    const double *cos_table;    /* experiment._COS_TABLE */
    const double *sin_table;    /* experiment._SIN_TABLE */
    const double *turns;        /* ca, sa, ca / 2, sa / 2 per station */
    double scale;               /* 2**(_TABLE_BITS + 1) */
    double step, cos_4, sin_3, sin_5;
    double x_lo, x_hi, q_lo, q_hi;
    double d;
    int64_t power;              /* d, if an integer in [1, 32]; else 0 */
    int64_t capacity;           /* trials per chunk, at most */
    int64_t *hist;              /* states of the chunk's certain trials */
    uint8_t *codes;             /* non-CFD: each trial's state */
    int64_t *pending;           /* trial of each pending trial */
    double *pending_u;          /* its uniforms, row s at s * capacity */
    uint8_t *pending_state;     /* its state, uncertain bits as computed */
    uint8_t *pending_unsure;    /* bit c: station c is uncertain */
};

/* One block of a chunk: the uniforms of each stream, and cos 2phi1 and
 * sin 2phi1. */
struct block {
    double u[9][BLOCK];
    double c[BLOCK], s[BLOCK];
};

/* Each trial's state and uncertain stations over a block, as int64
 * lanes of the doubles they come from. */
struct flags {
    int64_t state[BLOCK], unsure[BLOCK];
};

/* Two doubles, or two int64: the stations run two trials at a time in
 * these vector types, because compilers do not vectorize their
 * comparisons on their own.  A comparison of two v2d gives a v2i of -1
 * (true) or 0. */
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));

static inline v2d broadcast(double x)
{
    v2d v = {x, x};
    return v;
}

static inline v2d load(const double *a)
{
    v2d v;
    memcpy(&v, a, sizeof v);
    return v;
}

static inline v2i load_i(const int64_t *a)
{
    v2i v;
    memcpy(&v, a, sizeof v);
    return v;
}

static inline void store(double *a, v2d v)
{
    memcpy(a, &v, sizeof v);
}

static inline void store_i(int64_t *a, v2i v)
{
    memcpy(a, &v, sizeof v);
}

/* a where mask is -1, b where it is 0 */
static inline v2d blend(v2i mask, v2d a, v2d b)
{
    return (v2d)((mask & (v2i)a) | (~mask & (v2i)b));
}

/* Entry k of each trial's turn: turn0[k], or turn1[k] where its coin is
 * primed (below 0.5); no coin, turn0[k]. */
static inline v2d turn_of(const double *coin, int i, const double *turn0,
                          const double *turn1, int k)
{
    if (!coin)
        return broadcast(turn0[k]);
    return blend(load(coin + i) < 0.5, broadcast(turn1[k]),
                  broadcast(turn0[k]));
}

/* Draw k of the stream at origin, for z = origin + GOLDEN * k. */
static inline double uniform(uint64_t z)
{
    z ^= z >> 30;
    z *= M1;
    z ^= z >> 27;
    z *= M2;
    z ^= z >> 31;
    return (double)(int64_t)(z >> 11) * 0x1p-53;
}

/* Draws first..first+BLOCK-1 of the stream at origin. */
static void fill(uint64_t origin, uint64_t first, double *restrict out)
{
    for (int i = 0; i < BLOCK; i++)
        out[i] = uniform(origin + (first + (uint64_t)i + 1) * GOLDEN);
}

/* cos 2phi1 and sin 2phi1 of phi1 = 2 pi u: experiment._trig. */
static void trig(const struct cpass_point *p, struct block *b)
{
    double scale = p->scale, step = p->step;
    double cos_4 = p->cos_4, sin_3 = p->sin_3, sin_5 = p->sin_5;
    int32_t j[BLOCK];
    double cm1[BLOCK], sx[BLOCK];
    for (int i = 0; i < BLOCK; i++) {
        double v = b->u[0][i] * scale;
        j[i] = (int32_t)v;  /* floor, since v >= 0 */
        double x = (v - (double)j[i]) * step;
        double z = x * x;
        cm1[i] = (z * cos_4 - 0.5) * z;
        sx[i] = (z * sin_5 + sin_3) * z * x + x;
    }
    for (int i = 0; i < BLOCK; i++) {
        double tc = p->cos_table[j[i]], ts = p->sin_table[j[i]];
        b->c[i] = (tc * cm1[i] - ts * sx[i]) + tc;
        b->s[i] = (ts * cm1[i] + tc * sx[i]) + ts;
    }
}

/* q = |q|**d in place: experiment._abs_power. */
static void abs_power(const struct cpass_point *p, double *restrict q)
{
    int64_t k = p->power;
    double s[BLOCK];
    if (k == 0) {
        for (int i = 0; i < BLOCK; i++)
            q[i] = pow(fabs(q[i]), p->d);
        return;
    }
    if (k & 1)
        for (int i = 0; i < BLOCK; i++)
            q[i] = fabs(q[i]);
    for (int i = 0; i < BLOCK; i++)
        s[i] = q[i];
    /* the binary digits of k after the leading one */
    for (int bit = 62 - __builtin_clzll((unsigned long long)k); bit >= 0;
         bit--) {
        if (k >> bit & 1)
            for (int i = 0; i < BLOCK; i++)
                q[i] = q[i] * q[i] * s[i];
        else
            for (int i = 0; i < BLOCK; i++)
                q[i] = q[i] * q[i];
    }
}

/* One station of experiment._station_flags over a block: x sets bit
 * xbit of state, w bit wbit, and an uncertain evaluation bit ubit of
 * unsure.  Its turn (ca, sa, ca / 2, sa / 2) is turn0, or turn1 where a
 * trial's coin is primed (coin NULL: turn0 throughout); r and rhat are
 * its uniforms.  Always inlined, so that a NULL coin is a constant. */
static inline __attribute__((always_inline)) void
station(const struct cpass_point *p, const struct block *b,
        struct flags *f, const double *coin, const double *turn0,
        const double *turn1, const double *r, const double *rhat, int xbit,
        int wbit, int ubit)
{
    double q[BLOCK];
    for (int i = 0; i < BLOCK; i += 2) {
        v2d ca = turn_of(coin, i, turn0, turn1, 0);
        v2d sa = turn_of(coin, i, turn0, turn1, 1);
        store(q + i, load(b->c + i) * sa - load(b->s + i) * ca);
    }
    abs_power(p, q);
    v2d x_lo = broadcast(p->x_lo), x_hi = broadcast(p->x_hi);
    v2d q_lo = broadcast(p->q_lo), q_hi = broadcast(p->q_hi);
    v2i bx = {(int64_t)1 << xbit, (int64_t)1 << xbit};
    v2i bw = {(int64_t)1 << wbit, (int64_t)1 << wbit};
    v2i bu = {(int64_t)1 << ubit, (int64_t)1 << ubit};
    for (int i = 0; i < BLOCK; i += 2) {
        v2d hca = turn_of(coin, i, turn0, turn1, 2);
        v2d hsa = turn_of(coin, i, turn0, turn1, 3);
        v2d dx = (load(b->c + i) * hca + load(b->s + i) * hsa) - load(r + i);
        v2d qr = load(q + i) * load(rhat + i);
        v2i x = dx > x_hi, w = qr < q_lo;
        /* unsure: x_lo <= dx <= x_hi, or not (qr < q_lo or qr > q_hi),
         * so that a nan qr is uncertain */
        v2i unsure = ((dx >= x_lo) ^ x) | ~(w | (qr > q_hi));
        store_i(f->state + i, load_i(f->state + i) | (x & bx) | (w & bw));
        store_i(f->unsure + i, load_i(f->unsure + i) | (unsure & bu));
    }
}

/* Counts the block's first n trials, from trial i0 of the chunk, into
 * hist, or hands them to the pending arrays from pending trial m.
 * Returns the new number of pending trials. */
static int64_t count(const struct cpass_point *p, const struct block *b,
                     const struct flags *f, int streams, int64_t i0,
                     int64_t n, int64_t m)
{
    for (int64_t i = 0; i < n; i++) {
        if (!f->unsure[i]) {
            p->hist[f->state[i]]++;
            continue;
        }
        p->pending[m] = i0 + i;
        for (int st = 0; st < streams; st++)
            p->pending_u[st * p->capacity + m] = b->u[st][i];
        p->pending_state[m] = (uint8_t)f->state[i];
        p->pending_unsure[m] = (uint8_t)f->unsure[i];
        m++;
    }
    return m;
}

static int64_t block_length(int64_t i0, int64_t n)
{
    return n - i0 < BLOCK ? n - i0 : BLOCK;
}

/* Trials start..start+n-1 of a CFD point: hist gets the 256 state counts
 * of its certain trials (experiment._CFD_WEIGHTS).  Streams: the source,
 * then r of each station, then rhat of each.  Returns the number of
 * pending trials. */
int64_t cpass_cfd(const struct cpass_point *p, uint64_t start, int64_t n)
{
    struct block b;
    struct flags f;
    int64_t m = 0;
    for (int i = 0; i < 256; i++)
        p->hist[i] = 0;
    for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
        for (int st = 0; st < 9; st++)
            fill(p->origins[st], start + (uint64_t)i0, b.u[st]);
        trig(p, &b);
        for (int i = 0; i < BLOCK; i++)
            f.state[i] = f.unsure[i] = 0;
        for (int st = 0; st < 4; st++)
            station(p, &b, &f, 0, p->turns + 4 * st, 0, b.u[1 + st],
                    b.u[5 + st], st, 4 + st, st);
        m = count(p, &b, &f, 9, i0, block_length(i0, n), m);
    }
    return m;
}

/* Trials start..start+n-1 of a non-CFD point: codes gets every trial's
 * 16 * pair + state (experiment._NONCFD_WEIGHTS) and hist the 64 counts
 * of the certain trials.  Streams: the source, each side's coin, then r
 * of each side, then rhat of each.  Returns the number of pending
 * trials. */
int64_t cpass_noncfd(const struct cpass_point *p, uint64_t start, int64_t n)
{
    struct block b;
    struct flags f;
    int64_t m = 0, primed1 = 32, primed2 = 16;
    for (int i = 0; i < 64; i++)
        p->hist[i] = 0;
    for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
        for (int st = 0; st < 7; st++)
            fill(p->origins[st], start + (uint64_t)i0, b.u[st]);
        trig(p, &b);
        for (int i = 0; i < BLOCK; i++) {
            f.state[i] = (b.u[1][i] < 0.5 ? primed1 : 0)
                         | (b.u[2][i] < 0.5 ? primed2 : 0);
            f.unsure[i] = 0;
        }
        for (int side = 0; side < 2; side++) {
            const double *turn0 = p->turns + 8 * side;
            station(p, &b, &f, b.u[1 + side], turn0, turn0 + 4,
                    b.u[3 + side], b.u[5 + side], side, 2 + side, side);
        }
        int64_t len = block_length(i0, n);
        for (int64_t i = 0; i < len; i++)
            p->codes[i0 + i] = (uint8_t)f.state[i];
        m = count(p, &b, &f, 7, i0, len, m);
    }
    return m;
}

/* Draws start..start+n-1 of the stream at origin: kernels.fill_uniforms,
 * for the known-answer check at load. */
void cpass_uniforms(uint64_t origin, uint64_t start, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = uniform(origin + (start + (uint64_t)i + 1) * GOLDEN);
}

/* A column of cpass_format.  Mirrored field for field by
 * kernels.CPassColumn. */
enum { COLUMN_TEXT, COLUMN_INT64, COLUMN_FLOAT64 };

struct cpass_column {
    int64_t kind;
    const void *data;   /* the text, or the column's value in row 0 */
    int64_t stride;     /* bytes from one row's value to the next */
    int64_t length;     /* bytes of the text */
};

/* The decimal digits of m at p; returns their end. */
static char *put_digits(char *p, uint64_t m)
{
    char digits[20];
    int k = 0;
    do {
        digits[k++] = (char)('0' + m % 10);
        m /= 10;
    } while (m);
    while (k)
        *p++ = digits[--k];
    return p;
}

/* str(v) */
static char *put_int(char *p, int64_t v)
{
    uint64_t m = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        m = 0 - m;  /* -2**63 too */
    }
    return put_digits(p, m);
}

#if LDBL_MANT_DIG >= 64
/* The eight decimal digits of m < 10**8 at p, zero padded. */
static void put_8_digits(char *p, uint32_t m)
{
    static const char pairs[] =
        "00010203040506070809101112131415161718192021222324"
        "25262728293031323334353637383940414243444546474849"
        "50515253545556575859606162636465666768697071727374"
        "75767778798081828384858687888990919293949596979899";
    uint32_t a = m / 10000, b = m % 10000;
    memcpy(p, pairs + 2 * (a / 100), 2);
    memcpy(p + 2, pairs + 2 * (a % 100), 2);
    memcpy(p + 4, pairs + 2 * (b / 100), 2);
    memcpy(p + 6, pairs + 2 * (b % 100), 2);
}

/* 10**k for 0 <= k <= 20, exact in a 64-bit significand. */
static const long double POW10_LD[21] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L,
    1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L,
};
/* 10**k for -4 <= k <= 17, as doubles: exact for k >= 0, and rounded up
 * for k < 0, so that an e10 judged from them is never too high. */
static const double POW10[22] = {
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
    1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
};

/* '%.17g' of a v that prints in fixed notation, with decimal exponent
 * e10 in [-4, 16], taken from D = rint(|v| * 10**(16 - e10)) in long
 * double.  The product lies below 10**17 < 2**57 and 10**(16 - e10) is
 * exact, so the product's one rounding error is at most 2**-8, and D is
 * the correctly rounded 17-digit significand that '%.17g' prints unless
 * the product lies within 2**-7 of a .5 tie or D falls outside
 * [10**16, 10**17) (rounding carried into an 18th digit, or e10 judged
 * one too low).  Returns the end of the text, or NULL for those values
 * and for any v outside [1e-4, 1e17) in magnitude, nan included. */
static char *put_fixed(char *p, double v)
{
    double a = fabs(v);
    if (!(a >= POW10[0] && a < POW10[21]))
        return NULL;
    int i = 0;  /* the largest i with POW10[i] <= a */
    for (int step = 16; step; step >>= 1)
        if (i + step <= 20 && a >= POW10[i + step])
            i += step;
    int e10 = i - 4;
    long double scaled = (long double)a * POW10_LD[16 - e10];
    long double d = rintl(scaled);
    if (!(fabsl(scaled - d) < 0.5L - 0x1p-7L && d >= POW10_LD[16]
          && d < POW10_LD[17]))
        return NULL;
    uint64_t sig = (uint64_t)d;
    /* The 17 digits: one, then four pairs of the high nine, then four
     * pairs of the low eight. */
    char dg[40];
    uint32_t hi = (uint32_t)(sig / 100000000), lo = (uint32_t)(sig % 100000000);
    dg[0] = (char)('0' + hi / 100000000);
    put_8_digits(dg + 1, hi % 100000000);
    put_8_digits(dg + 9, lo);
    int last = 16;  /* the last nonzero digit; the first is never zero */
    while (dg[last] == '0')
        last--;
    /* e10 >= 0 prints e10 + 1 integer digits, then '.' and the rest;
     * e10 < 0 prints '0.', -e10 - 1 zeros and the digits.  Trailing
     * zeros, and a '.' they leave bare, are dropped.  The text is laid
     * out in 24 bytes (copies of constant length, past its end too) and
     * copied whole: the caller's buffer holds 24 bytes per double. */
    char text[48];
    char *q = text + (v < 0);
    int length;
    text[0] = '-';
    if (e10 >= 0) {
        memcpy(q, dg, 17);
        q[e10 + 1] = '.';
        memcpy(q + e10 + 2, dg + e10 + 1, 16);
        length = e10 + 1 + (last > e10 ? 1 + last - e10 : 0);
    } else {
        memcpy(q, "0.000", 5);
        memcpy(q + 1 - e10, dg, 17);
        length = 2 - e10 + last;
    }
    memcpy(p, text, 24);
    p += (v < 0) + length;
    return p;
}
#endif

/* '%.17g' % v as Python prints it: "nan" whatever its sign, where the C
 * library prints "-nan" for a nan with its sign bit set. */
static char *put_float(char *p, double v)
{
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
#if LDBL_MANT_DIG >= 64
    char *end = put_fixed(p, v);
    if (end)
        return end;
#endif
    char text[32];
    int k = snprintf(text, sizeof text, "%.17g", v);
    memcpy(p, text, (size_t)k);
    return p + k;
}

/* Rows 0..n-1 of the columns into out, each row its fields joined by
 * ',' and ended by '\n': constant text, str of an int64, '%.17g' of a
 * double.  out holds at least n times (1 + the sum over the columns of
 * one more than the text's length, 20 for an int64 and 24 for a
 * double) bytes.  Returns the bytes written. */
int64_t cpass_format(const struct cpass_column *columns, int64_t ncolumns,
                     int64_t n, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t c = 0; c < ncolumns; c++) {
            const struct cpass_column *col = columns + c;
            const char *at = (const char *)col->data + i * col->stride;
            if (c)
                *p++ = ',';
            if (col->kind == COLUMN_TEXT) {
                memcpy(p, col->data, (size_t)col->length);
                p += col->length;
            } else if (col->kind == COLUMN_INT64) {
                int64_t v;
                memcpy(&v, at, sizeof v);
                p = put_int(p, v);
            } else {
                double v;
                memcpy(&v, at, sizeof v);
                p = put_float(p, v);
            }
        }
        *p++ = '\n';
    }
    return p - out;
}
