/* One chunk of the streaming pass of eprbsim: the station law.
 *
 * This is law.numpy_chunk transliterated, operation for operation:
 * the counter hash of law.fill_uniforms, the table trig of
 * law.trig, the angle-addition values, the power of
 * law.abs_power and the flags and voltages of law.station_law.
 * Built with -ffp-contract=off and without -ffast-math, every + - *
 * rounds once, as numpy's does, and rint, frexp and ldexp (the last two
 * written out on the bits here) are exact, so every state and every
 * voltage is numpy's, bit for bit.
 *
 * A chunk runs in blocks of BLOCK trials, each stage over the whole
 * block, as numpy runs each stage over the whole chunk; a block's arrays
 * stay in the L1 cache.  The stations run LANES trials at a time, as many
 * doubles as the build target's vectors hold.  Python computes every
 * input (origins, turns, tables, chunk length); see kernels.Compiled.
 * A pass adds its trials' state counts to the point's, and writes each
 * trial's state and voltages only where the caller gives it arrays for
 * them; a non-CFD pass with a quota cuts its trials at it in trial order,
 * as experiment._quota_cut does, and stops at the trial that fills the
 * last pair.  cpass_trig is the table trig alone, for the settings.
 *
 * cpass_format writes the trial dump's CSV records: str of each integer
 * and '%.17g' of each double, byte for byte as Python prints them.  A
 * double in fixed notation gets its 17 digits exactly, in 128-bit integer
 * arithmetic (put_fixed); any other goes to the C library's snprintf.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define M1 0xBF58476D1CE4E5B9ULL
#define M2 0x94D049BB133111EBULL
#define BLOCK 128
/* The lengths of kernels._LOG_POLY and _EXP_POLY: constants, so that the
 * compiler unrolls the polynomials and vectorizes table_power's loop. */
#define LOG_TERMS 5
#define EXP_TERMS 4

/* Mirrored field for field by kernels.CPassPoint. */
struct cpass_point {
    const uint64_t *origins;    /* stream origins, in the pass's order */
    const double *cos_table;    /* kernels._COS_TABLE */
    const double *sin_table;    /* kernels._SIN_TABLE */
    const double *log_table;    /* kernels._LOG_TABLE */
    const double *inv_table;    /* kernels._INV_TABLE */
    const double *exp_table;    /* kernels._EXP_TABLE */
    const double *log_poly;     /* kernels._LOG_POLY */
    const double *exp_poly;     /* kernels._EXP_POLY */
    const double *turns;        /* ca, sa, ca / 2, sa / 2 per station */
    double scale;               /* 2**(_TABLE_BITS + 1) */
    double step, cos_4, sin_3, sin_5;
    double log_scale;           /* 2**_LOG_BITS */
    double exp_scale;           /* 2**_EXP_BITS */
    double d, span, v_max, threshold;
    int64_t exp_bits;
    int64_t power;              /* d, if an integer in [1, 32]; else 0 */
    int64_t capacity;           /* trials per chunk, at most */
    int64_t quota;              /* non-CFD trials kept per pair, or 0 */
    int64_t *hist;              /* the state counts, added to */
    int64_t *held;              /* with a quota: each pair's kept trials */
    uint8_t *codes;             /* each trial's state, or NULL */
    double *volts;              /* v, station s at s * capacity, or NULL */
};

/* One block of a chunk: the uniforms of each stream, and cos 2phi1 and
 * sin 2phi1. */
struct block {
    double u[9][BLOCK];
    double c[BLOCK], s[BLOCK];
};

/* LANES doubles, or LANES int64: the stations run LANES trials at a time
 * in these vector types, because compilers do not vectorize their
 * comparisons on their own.  LANES fills the build target's vectors (a
 * vector wider than the target's is split, and runs slower than two
 * lanes); each lane rounds as a scalar does.  A comparison of two vd
 * gives a vi of -1 (true) or 0, and a scalar operand of a vi operation
 * stands for itself in every lane. */
#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX__)
#define LANES 4
#else
#define LANES 2
#endif
_Static_assert(BLOCK % LANES == 0, "a block is whole vectors");

typedef double vd __attribute__((vector_size(8 * LANES)));
typedef int64_t vi __attribute__((vector_size(8 * LANES)));

/* LANES, so that a test can tell a build's width from its flags. */
int cpass_lanes(void)
{
    return LANES;
}

/* x in every lane: its bits, as an int64 operand of a vi operation */
static inline vd broadcast(double x)
{
    int64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return (vd)((vi){0} + bits);
}

static inline vd load(const double *a)
{
    vd v;
    memcpy(&v, a, sizeof v);
    return v;
}

static inline vi load_i(const int64_t *a)
{
    vi v;
    memcpy(&v, a, sizeof v);
    return v;
}

static inline void store(double *a, vd v)
{
    memcpy(a, &v, sizeof v);
}

static inline void store_i(int64_t *a, vi v)
{
    memcpy(a, &v, sizeof v);
}

/* a where mask is -1, b where it is 0 */
static inline vd blend(vi mask, vd a, vd b)
{
    return (vd)((mask & (vi)a) | (~mask & (vi)b));
}

/* Entry k of each trial's turn: turn0[k], or turn1[k] where its coin is
 * primed (below 0.5); no coin, turn0[k]. */
static inline vd turn_of(const double *coin, int i, const double *turn0,
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

/* cos 2phi1 and sin 2phi1 of phi1 = 2 pi u: law.trig. */
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

/* x * (c[0] + x * (c[1] + ... + x * c[n - 1])): kernels._horner. */
static inline double horner(const double *c, int64_t n, double x)
{
    double acc = c[n - 1];
    for (int64_t k = n - 2; k >= 0; k--)
        acc = acc * x + c[k];
    return acc * x;
}

/* The double of bits u. */
static inline double from_bits(uint64_t u)
{
    double x;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* frexp(a, e) for a >= 0: m in [1/2, 1) and a = m * 2**e, or m = 0 for
 * a = 0.  A subnormal a is scaled by 2**54 first, exactly. */
static inline double mantissa(double a, int64_t *e)
{
    int small = a < 0x1p-1022;
    double b = small ? a * 0x1p54 : a;
    uint64_t u;
    memcpy(&u, &b, sizeof u);
    *e = (int64_t)(u >> 52) - 1022 - (small ? 54 : 0);
    return a == 0.0 ? 0.0 : from_bits((u & 0xFFFFFFFFFFFFFULL)
                                      | 0x3FE0000000000000ULL);
}

/* ldexp(x, n) for |n| <= 1100: x * 2**(n / 2) is exact, so the product
 * rounds once, as ldexp does. */
static inline double scale_by(double x, int64_t n)
{
    int64_t half = n / 2;
    return x * from_bits((uint64_t)(half + 1023) << 52)
             * from_bits((uint64_t)(n - half + 1023) << 52);
}

/* |s|**d by the tables, for d not an integer in [0, 32]: the last branch
 * of law.abs_power, with frexp and ldexp written out. */
static inline double table_power(const struct cpass_point *p, double s)
{
    int64_t e;
    double scaled = mantissa(fabs(s), &e) * p->log_scale;
    double node = rint(scaled);
    int64_t j = (int64_t)node;
    double r = (scaled - node) * p->inv_table[j];
    double y = p->d * (((double)e + p->log_table[j])
                       + horner(p->log_poly, LOG_TERMS, r));
    y = y < -1100.0 ? -1100.0 : y > 1100.0 ? 1100.0 : y;
    double t = y * p->exp_scale;
    double k = rint(t);
    int64_t i = (int64_t)k;
    double tab = p->exp_table[i & (((int64_t)1 << p->exp_bits) - 1)];
    return scale_by(tab + tab * horner(p->exp_poly, EXP_TERMS, t - k),
                    i >> p->exp_bits);
}

/* q = |q|**d in place: law.abs_power. */
static void abs_power(const struct cpass_point *p, double *restrict q)
{
    int64_t k = p->power;
    double s[BLOCK];
    if (k == 0) {
        if (p->d == 0.0)
            for (int i = 0; i < BLOCK; i++)
                q[i] = 1.0;
        else
            for (int i = 0; i < BLOCK; i++)
                q[i] = table_power(p, q[i]);
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

/* One station of law.station_law over a block: x sets bit xbit of
 * state and w bit wbit; volts, where not NULL, gets the v of the block's
 * first len trials.  Its turn (ca, sa, ca / 2, sa / 2) is turn0, or turn1
 * where a trial's coin is primed (coin NULL: turn0 throughout); r and
 * rhat are its uniforms.  Always inlined, so that a NULL coin is a
 * constant. */
static inline __attribute__((always_inline)) void
station(const struct cpass_point *p, const struct block *b, int64_t *state,
        const double *coin, const double *turn0, const double *turn1,
        const double *r, const double *rhat, int xbit, int wbit,
        double *volts, int64_t len)
{
    double q[BLOCK];
    for (int i = 0; i < BLOCK; i += LANES) {
        vd ca = turn_of(coin, i, turn0, turn1, 0);
        vd sa = turn_of(coin, i, turn0, turn1, 1);
        store(q + i, load(b->c + i) * sa - load(b->s + i) * ca);
    }
    abs_power(p, q);
    vd half = broadcast(-0.5), span = broadcast(p->span);
    vd v_max = broadcast(p->v_max), threshold = broadcast(p->threshold);
    int64_t bx = (int64_t)1 << xbit, bw = (int64_t)1 << wbit;
    for (int i = 0; i < BLOCK; i += LANES) {
        vd hca = turn_of(coin, i, turn0, turn1, 2);
        vd hsa = turn_of(coin, i, turn0, turn1, 3);
        vd dx = (load(b->c + i) * hca + load(b->s + i) * hsa) - load(r + i);
        vd v = (load(q + i) * load(rhat + i)) * span - v_max;
        vi x = dx > half, w = v < threshold;
        store_i(state + i, load_i(state + i) | (x & bx) | (w & bw));
        store(q + i, v);
    }
    if (volts)
        memcpy(volts, q, (size_t)len * sizeof *q);
}

/* Adds the block's first n states, from trial i0 of the chunk, to hist,
 * and writes them to codes where it is not NULL. */
static void count(const struct cpass_point *p, const int64_t *state,
                  int64_t i0, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        p->hist[state[i]]++;
    if (p->codes)
        for (int64_t i = 0; i < n; i++)
            p->codes[i0 + i] = (uint8_t)state[i];
}

/* Whether each of the four pairs holds its quota. */
static int full(const struct cpass_point *p)
{
    for (int k = 0; k < 4; k++)
        if (p->held[k] < p->quota)
            return 0;
    return 1;
}

/* The quota cut over the block's first n non-CFD states, in trial order:
 * a trial's state is added to hist while its pair (state >> 4) holds
 * fewer than quota trials, and held counts them.  Returns the trials
 * walked: n, or fewer where one filled the last pair. */
static int64_t count_quota(const struct cpass_point *p, const int64_t *state,
                           int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t pair = state[i] >> 4;
        if (p->held[pair] < p->quota) {
            p->hist[state[i]]++;
            if (++p->held[pair] == p->quota && full(p))
                return i + 1;
        }
    }
    return n;
}

static int64_t block_length(int64_t i0, int64_t n)
{
    return n - i0 < BLOCK ? n - i0 : BLOCK;
}

/* Station st's voltages of the block from trial i0, or NULL. */
static double *volts_at(const struct cpass_point *p, int st, int64_t i0)
{
    return p->volts ? p->volts + st * p->capacity + i0 : 0;
}

/* Trials start..start+n-1 of a CFD point: their 256 state counts
 * (law._CFD_WEIGHTS) are added to hist, and codes gets every trial's
 * state.  Streams: the source, then r of each station, then rhat of
 * each.  Returns n. */
int64_t cpass_cfd(const struct cpass_point *p, uint64_t start, int64_t n)
{
    struct block b;
    int64_t state[BLOCK];
    for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
        for (int st = 0; st < 9; st++)
            fill(p->origins[st], start + (uint64_t)i0, b.u[st]);
        trig(p, &b);
        int64_t len = block_length(i0, n);
        for (int i = 0; i < BLOCK; i++)
            state[i] = 0;
        for (int st = 0; st < 4; st++)
            station(p, &b, state, 0, p->turns + 4 * st, 0, b.u[1 + st],
                    b.u[5 + st], st, 4 + st, volts_at(p, st, i0), len);
        count(p, state, i0, len);
    }
    return n;
}

/* Trials start..start+n-1 of a non-CFD point: their 64 counts of 16 *
 * pair + state (law._NONCFD_WEIGHTS) are added to hist, and codes
 * gets every trial's.  With a quota, only the trials that the quota cut
 * keeps are counted (count_quota; codes is not written), and the pass
 * ends at the trial that fills the last pair.  Streams: the source, each
 * side's coin, then r of each side, then rhat of each.  Returns the
 * trials walked. */
int64_t cpass_noncfd(const struct cpass_point *p, uint64_t start, int64_t n)
{
    struct block b;
    int64_t state[BLOCK], primed1 = 32, primed2 = 16;
    if (p->quota && full(p))
        return 0;
    for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
        for (int st = 0; st < 7; st++)
            fill(p->origins[st], start + (uint64_t)i0, b.u[st]);
        trig(p, &b);
        for (int i = 0; i < BLOCK; i++)
            state[i] = (b.u[1][i] < 0.5 ? primed1 : 0)
                       | (b.u[2][i] < 0.5 ? primed2 : 0);
        int64_t len = block_length(i0, n);
        for (int side = 0; side < 2; side++) {
            const double *turn0 = p->turns + 8 * side;
            station(p, &b, state, b.u[1 + side], turn0, turn0 + 4,
                    b.u[3 + side], b.u[5 + side], side, 2 + side,
                    volts_at(p, side, i0), len);
        }
        if (!p->quota) {
            count(p, state, i0, len);
        } else {
            int64_t walked = count_quota(p, state, len);
            if (full(p))
                return i0 + walked;
        }
    }
    return n;
}

/* cos 2phi1 and sin 2phi1 of phi1 = 2 pi u for each of the n draws u, into
 * c and s: law.trig. */
void cpass_trig(const struct cpass_point *p, const double *u, int64_t n,
                double *c, double *s)
{
    struct block b;
    for (int64_t i0 = 0; i0 < n; i0 += BLOCK) {
        int64_t len = block_length(i0, n);
        for (int64_t i = 0; i < BLOCK; i++)
            b.u[0][i] = i < len ? u[i0 + i] : 0.0;
        trig(p, &b);
        memcpy(c + i0, b.c, (size_t)len * sizeof *c);
        memcpy(s + i0, b.s, (size_t)len * sizeof *s);
    }
}

/* A column of cpass_format.  Mirrored field for field by
 * kernels.CPassColumn. */
enum { COLUMN_TEXT, COLUMN_INT64, COLUMN_FLOAT64, COLUMN_INT8 };

struct cpass_column {
    int64_t kind;
    const void *data;   /* the text, or the column's value in row 0 */
    int64_t stride;     /* bytes from one row's value to the next */
    int64_t length;     /* bytes of the text */
};

/* The eight decimal digits of m < 10**8, zero padded, one a byte (0 to
 * 9, not yet text), the first in the lowest byte: m splits into two
 * halves of four digits, each half into two pairs, each pair into two
 * digits, all lanes of a word at once.  Each lane's product stays
 * inside the lane, and (y * 5243) >> 19 = y / 100 for y < 10**4, (y *
 * 103) >> 10 = y / 10 for y < 100. */
static inline uint64_t digits_8(uint32_t m)
{
    uint64_t x = (uint64_t)(m / 10000) | (uint64_t)(m % 10000) << 32;
    uint64_t high = (x * 5243 >> 19) & 0x0000007F0000007FULL;
    x = high | (x - high * 100) << 16;
    high = (x * 103 >> 10) & 0x000F000F000F000FULL;
    return high | (x - high * 10) << 8;
}

static inline void store_text(char *p, uint64_t digits)
{
    digits |= 0x3030303030303030ULL;  /* '0' in every byte */
    memcpy(p, &digits, sizeof digits);
}

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

/* str(v), digit by digit past the first: an int8 column's writer, whose
 * fields hold 4 bytes.  The sign is written without a branch: the dump's
 * outcomes are -1 and +1 at random.  Always inlined, so that an int8
 * field takes no call. */
static inline __attribute__((always_inline)) char *
put_small(char *p, int64_t v)
{
    uint64_t m = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;  /* -2**63 too */
    *p = '-';
    p += v < 0;
    if (m < 10) {
        *p = (char)('0' + m);
        return p + 1;
    }
    return put_digits(p, m);
}

/* str(v) of an int64, whose field holds 20 bytes.  A value of 2 to 8
 * digits (the dump's trial index) is one word of digits_8 without its
 * leading zeros, stored whole: the store stays inside the field. */
static char *put_int(char *p, int64_t v)
{
    uint64_t m = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    if (m < 10 || m >= 100000000)
        return put_small(p, v);
    uint64_t digits = digits_8((uint32_t)m);
    int zeros = __builtin_ctzll(digits) >> 3;  /* m >= 10: at most 6 */
    *p = '-';
    p += v < 0;
    store_text(p, digits >> 8 * zeros);
    return p + 8 - zeros;
}

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

/* 10**k for -4 <= k <= 17, as doubles: exact for k >= 0, and rounded up
 * for k < 0, yet no double lies in [10**k, POW10[k + 4]), so a double a
 * >= POW10[k + 4] exactly where a >= 10**k. */
static const double POW10[22] = {
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
    1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
};
/* 10**k for 0 <= k <= 20, exact. */
static const u128 POW10_INT[21] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL, (u128)10000000000000000000ULL * 10,
};

/* digits_8(i) >> 32 for each i < 10**4: its four digits, one a byte,
 * the first in the lowest.  Filled when the library is loaded. */
static uint32_t DIGITS_4[10000];

__attribute__((constructor)) static void fill_digits_4(void)
{
    for (uint32_t i = 0; i < 10000; i++)
        DIGITS_4[i] = (uint32_t)(digits_8(i) >> 32);
}

/* '%.17g' of a v that prints in fixed notation, decimal exponent e10 in
 * [-4, 16].  The digits are those of D = |v| * 10**(16 - e10) rounded
 * half to even, '%.17g''s own rounding, computed exactly: |v| = m *
 * 2**-r with an integer m < 2**53, and m * 10**(16 - e10) < 2**120, so
 * D is that product shifted right by r bits, rounded: 2**(r - 1) - 1 is
 * added to it, and 1 more where D's last bit is 1.  Returns the end of
 * the text, or NULL where D falls outside [10**16, 10**17) (its rounding
 * carried into an 18th digit, and the exponent with it) and for any v
 * outside [1e-4, 1e17) in magnitude, nan included.  The text is at most
 * 23 bytes, and no store reaches past them: the caller's buffer holds 24
 * bytes per double. */
static char *put_fixed(char *p, double v)
{
    double a = fabs(v);
    if (!(a >= POW10[0] && a < POW10[21]))
        return NULL;
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);  /* a is normal: a >= 1e-4 */
    int e2 = (int)(bits >> 52) - 1023;  /* floor(log2 a), in [-14, 56] */
    /* e10 = floor(log10 a) is floor(e2 log10 2) or one more.  (e2 * 1233)
     * >> 12 is floor(e2 log10 2) for every e2 here (>> of a negative int
     * floors, in gcc and clang). */
    int e10 = (e2 * 1233) >> 12;
    uint64_t m = (bits & 0xFFFFFFFFFFFFFULL) | 1ULL << 52;
    int r = 52 - e2;  /* a = m 2**-r, r in [-4, 66] */
    uint64_t sig;
    if (e2 >= -9 && e2 <= 51
        && (e10 == ((e2 + 1) * 1233) >> 12 || e2 == -1)) {
        /* The binade [2**e2, 2**(e2 + 1)) lies inside decade e10: no power
         * of ten falls in it, and 1 = 10**0 ends [1/2, 1).  So e10 is
         * floor(e2 log10 2), 10**(16 - e10) < 2**64 and r is in [1, 61]:
         * the product is one 64 x 64 -> 128-bit multiply, and D its words
         * shifted right by r.  D lies in [10**16, 10**17): a >= 10**e10,
         * and a's ulp scaled by 10**(16 - e10) exceeds 1, so no rounding
         * reaches 10**17. */
        u128 n = (u128)m * (uint64_t)POW10_INT[16 - e10];
        uint64_t lo = (uint64_t)n, hi = (uint64_t)(n >> 64);
        uint64_t q = lo >> r | hi << (64 - r);
        uint64_t rest = lo & ((1ULL << r) - 1);
        sig = q + ((rest + (1ULL << (r - 1)) - 1 + (q & 1)) >> r);
    } else {
        e10 += a >= POW10[e10 + 5];
        u128 n = (u128)m * POW10_INT[16 - e10], d;
        if (r > 0)
            d = (n + ((u128)1 << (r - 1)) - 1 + (n >> r & 1)) >> r;
        else
            d = n << -r;
        if (!(d >= POW10_INT[16] && d < POW10_INT[17]))
            return NULL;
        sig = (uint64_t)d;
    }
    /* The 17 digits: the first, then four groups of four, each group
     * from the quotients of sig by powers of 10**4 at once, and its
     * digits one word of DIGITS_4.  mid holds the first two groups, low
     * the last two. */
    uint64_t q1 = sig / 10000, q2 = sig / 100000000;
    uint64_t q3 = sig / 1000000000000ULL, top = sig / 10000000000000000ULL;
    uint64_t mid = (uint64_t)DIGITS_4[q3 - top * 10000]
                   | (uint64_t)DIGITS_4[q2 - q3 * 10000] << 32;
    uint64_t low = (uint64_t)DIGITS_4[q1 - q2 * 10000]
                   | (uint64_t)DIGITS_4[sig - q1 * 10000] << 32;
    /* the last nonzero digit; the first is never zero */
    int last = low ? 16 - (__builtin_clzll(low) >> 3)
               : mid ? 8 - (__builtin_clzll(mid) >> 3) : 0;
    *p = '-';
    p += v < 0;
    /* e10 < 0 prints '0.', -e10 - 1 zeros and the digits; e10 >= 0 prints
     * e10 + 1 integer digits, then '.' and the rest.  Trailing zeros, and
     * a '.' they leave bare, are dropped. */
    char *q = p;
    if (e10 < 0) {
        memcpy(p, "0.000000", 8);
        q = p + 1 - e10;
    }
    q[0] = (char)('0' + top);
    store_text(q + 1, mid);
    store_text(q + 9, low);
    if (e10 < 0)
        return q + last + 1;
    if (last <= e10)
        return p + e10 + 1;
    memmove(p + e10 + 2, p + e10 + 1, (size_t)(16 - e10));
    p[e10 + 1] = '.';
    return p + last + 2;
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
#if defined(__SIZEOF_INT128__)
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
 * ',' and ended by '\n': constant text, str of an int64 or an int8,
 * '%.17g' of a double.  out holds at least n times (1 + the sum over the
 * columns of one more than the text's length, 20 for an int64, 4 for an
 * int8 and 24 for a double) bytes.  Returns the bytes written. */
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
            } else if (col->kind == COLUMN_INT8) {
                p = put_small(p, *(const int8_t *)at);
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
