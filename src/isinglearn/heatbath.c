/* The heat-bath sampler of isinglearn (ising._Glauber): its update loops,
 * its copy of numpy's draws, and chain, the one entry that advances a
 * chain, for gibbs_sample and the mixing estimate alike.
 *
 * Draw k sets x[sites[k]] to +1 when us[k] < P(+1) at that site given the
 * current spins of its neighbors, and to -1 otherwise. _compiled.py builds
 * this file with -O2 -ffp-contract=off and never -ffast-math, so every sum
 * rounds as the Python loop's does, and P(+1) of a per-edge field comes
 * from the libm exp that math.exp calls: the chain is the same.
 *
 * With one coupling on every edge, P(+1) is a table entry indexed by the
 * count of +1 neighbors. Where few draws flip (the ordered phase) the
 * table loop keeps each site's count and moves it only on a flip; where
 * many do it counts the neighbors at each draw. Either way a draw reads
 * the entry of the current count, so the chain is the same.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

struct graph {
    int64_t p;
    /* the neighbors of site i are nbr[start[i]] .. nbr[start[i + 1] - 1] */
    const int64_t *start;
    const int64_t *nbr;
    /* table rows: P(+1) at site i with c neighbors +1 is w[start[i] + i + c];
     * per-edge couplings: the coupling to nbr[e] is w[e] */
    const double *w;
};

/* The table loop's mode and, in the counted mode, each site's count of +1
 * neighbors: p + 1 int32 values, which the caller zeroes for each chain,
 * since counts are valid only for the spins they were built from. */
struct mode {
    int32_t counted;
    int32_t cnt[];
};

/* numpy's bitgen_t (numpy/random/bitgen.h), the struct that
 * Generator.bit_generator.ctypes.bit_generator points to. */
struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
};

size_t graph_size(void)
{
    return sizeof(struct graph);
}

void graph_init(struct graph *g, int64_t p, const int64_t *start, const int64_t *nbr,
                const double *w)
{
    g->p = p;
    g->start = start;
    g->nbr = nbr;
    g->w = w;
}

static int64_t magnetization(const struct graph *g, const int8_t *x)
{
    int64_t m = 0;
    for (int64_t i = 0; i < g->p; i++)
        m += x[i];
    return m;
}

/* Whether the n sites all lie in 0 .. p - 1. */
static int in_range(const struct graph *g, int64_t n, const int64_t *sites)
{
    for (int64_t k = 0; k < n; k++)
        if ((uint64_t)sites[k] >= (uint64_t)g->p)
            return 0;
    return 1;
}

/* The per-edge loop: the n draws in order, at sites in 0 .. p - 1. h is
 * summed from 0.0 in neighbor order, then P(+1) = 1 / (1 + exp(-2h));
 * where exp overflows to inf, P(+1) is 0.0, as the Python loop's
 * OverflowError gives. */
static void field_loop(const struct graph *g, int64_t n, const int64_t *sites, const double *us,
                       int8_t *x)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t i = sites[k];
        double h = 0.0;
        for (int64_t e = g->start[i]; e < g->start[i + 1]; e++)
            h += x[g->nbr[e]] > 0 ? g->w[e] : -g->w[e];
        x[i] = us[k] < 1.0 / (1.0 + exp(-2.0 * h)) ? 1 : -1;
    }
}

/* The number of +1 neighbors of site i in x. */
static inline int64_t plus_neighbors(const struct graph *g, const int8_t *x, int64_t i)
{
    int64_t c = 0;
    for (int64_t e = g->start[i]; e < g->start[i + 1]; e++)
        c += x[g->nbr[e]] > 0;
    return c;
}

static void count_plus(const struct graph *g, const int8_t *x, int32_t *cnt)
{
    for (int64_t i = 0; i < g->p; i++)
        cnt[i] = (int32_t)plus_neighbors(g, x, i);
}

/* n draws of the table loop at sites in 0 .. p - 1, on counts that
 * count_plus gave for x and that the draws keep: P(+1) at site i is
 * w[start[i] + i + cnt[i]], the entry counting its +1 neighbors reads,
 * and a flip of x[i] to v moves each neighbor's count by v. Returns the
 * number of flips. */
static int64_t counted_flips(const struct graph *g, int64_t n, const int64_t *sites,
                             const double *us, int8_t *x, int32_t *cnt)
{
    const int64_t *start = g->start, *nbr = g->nbr;
    const double *w = g->w;
    int64_t flips = 0;
    for (int64_t k = 0; k < n; k++) {
        const int64_t i = sites[k];
        const int8_t v = us[k] < w[start[i] + i + cnt[i]] ? 1 : -1;
        if (v != x[i]) {
            x[i] = v;
            flips++;
            for (int64_t e = start[i]; e < start[i + 1]; e++)
                cnt[nbr[e]] += v;
        }
    }
    return flips;
}

/* n draws of the table loop at sites in 0 .. p - 1 that count each
 * site's +1 neighbors at the draw and keep no counts. Returns the number
 * of flips among the first probe draws; a count at every draw took about
 * a tenth of the loop's time where half the draws flip. */
static int64_t recounted_flips(const struct graph *g, int64_t n, int64_t probe,
                               const int64_t *sites, const double *us, int8_t *x)
{
    int64_t flips = 0;
    for (int64_t k = 0; k < probe; k++) {
        const int64_t i = sites[k];
        const int8_t v = us[k] < g->w[g->start[i] + i + plus_neighbors(g, x, i)] ? 1 : -1;
        flips += v != x[i];
        x[i] = v;
    }
    for (int64_t k = probe; k < n; k++) {
        const int64_t i = sites[k];
        x[i] = us[k] < g->w[g->start[i] + i + plus_neighbors(g, x, i)] ? 1 : -1;
    }
    return flips;
}

/* draws per choice of the table loop's mode, and the draws of a
 * recounted block whose flips choose the next one */
#define MODE_DRAWS 256
#define PROBE_DRAWS 32

/* The n draws of the table loop, MODE_DRAWS at a time. A block runs
 * counted (st->counted set) where under 1/8 of the draws that chose its
 * mode flipped, and recounted elsewhere and first: on 4-regular graphs
 * 1.5% of draws flip at theta = 0.65, where a flip's branch predicts
 * well, and 45% at 0.15, where it does not and moving counts at every
 * draw cost more than counting. The counts are built from x on entering
 * the counted mode. The mode changes only the speed. */
static void table_loop(const struct graph *g, struct mode *st, int64_t n, const int64_t *sites,
                       const double *us, int8_t *x)
{
    for (int64_t k = 0; k < n; k += MODE_DRAWS) {
        const int64_t m = n - k < MODE_DRAWS ? n - k : MODE_DRAWS;
        if (st->counted) {
            st->counted = 8 * counted_flips(g, m, sites + k, us + k, x, st->cnt) < m;
        } else {
            const int64_t probe = m < PROBE_DRAWS ? m : PROBE_DRAWS;
            st->counted = 8 * recounted_flips(g, m, probe, sites + k, us + k, x) < probe;
            if (st->counted)
                count_plus(g, x, st->cnt);
        }
    }
}

static void updates(const struct graph *g, int table, struct mode *st, int64_t n,
                    const int64_t *sites, const double *us, int8_t *x)
{
    if (table)
        table_loop(g, st, n, sites, us, x);
    else
        field_loop(g, n, sites, us, x);
}

/* numpy's buffered_bounded_lemire_uint32: a value in 0 .. rng, for
 * rng < 2^32 - 1, by Lemire's multiply-and-reject step (ACM TOMACS 29,
 * 2019). The threshold is 2^32 mod (rng + 1). */
static uint32_t bounded(struct bitgen *bg, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* n sites in 0 .. p - 1, as numpy's rng.integers(0, p, n) draws them, then
 * n uniforms, as rng.random(n) does: the same values, and the generator
 * left in the same state. p = 1 draws no integers. Returns 0, or -1 for a
 * p outside 1 .. 2^32 - 1, which numpy draws by other steps. NumPy does
 * not promise that these steps stay the same (NEP 19): _compiled.py
 * compares this function with numpy before the chain runs on it. */
int draws(struct bitgen *bg, int64_t p, int64_t n, int64_t *sites, double *us)
{
    if (p < 1 || p >= (int64_t)1 << 32)
        return -1;
    const uint32_t rng = (uint32_t)(p - 1);
    for (int64_t k = 0; k < n; k++)
        sites[k] = rng ? bounded(bg, rng) : 0;
    for (int64_t k = 0; k < n; k++)
        us[k] = bg->next_double(bg->state);
    return 0;
}

/* The chain of _Glauber.sample: burn_in sweeps, then n blocks of thin
 * sweeps, with x copied into row l of out (n rows of p) after block l.
 * Each block's draws come in chunks of at most chunk sweeps, a chunk's
 * sites and then its uniforms, as _Glauber.chunks draws them, into sites
 * and us (cap values each). With bg NULL nothing is drawn: the chain is
 * one chunk whose draws the caller put in sites and us, so burn_in is at
 * most chunk and n is 0. With stop set the burn-in, and the chain, ends
 * after the first sweep that leaves the magnetization negative (the
 * mixing estimate's rule, read between sweeps only there). The table
 * loop keeps its mode and counts in *st from chunk to chunk and from call
 * to call. Returns the number of burn-in sweeps run; -1 where draws
 * refuses p; -2, before drawing it, at the first chunk of more than cap
 * draws, with the chunks before it applied; -3, before applying any, where
 * a site the caller put in sites lies outside 0 .. p - 1. */
int64_t chain(const struct graph *g, int table, struct bitgen *bg, int64_t chunk, int64_t burn_in,
              int64_t thin, int64_t n, int stop, int8_t *x, int8_t *out, int64_t *sites,
              double *us, int64_t cap, struct mode *st)
{
    const int64_t p = g->p;
    for (int64_t l = -1; l < n; l++) {
        for (int64_t left = l < 0 ? burn_in : thin; left > 0;) {
            const int64_t s = left < chunk ? left : chunk;
            if (s * p > cap)
                return -2;
            if (bg && draws(bg, p, s * p, sites, us))
                return -1;
            if (!bg && !in_range(g, s * p, sites))
                return -3;
            if (stop && l < 0) {
                for (int64_t j = 0; j < s; j++) {
                    updates(g, table, st, p, sites + j * p, us + j * p, x);
                    if (magnetization(g, x) < 0)
                        return burn_in - left + j + 1;
                }
            } else {
                updates(g, table, st, s * p, sites, us, x);
            }
            left -= s;
        }
        if (l >= 0)
            for (int64_t i = 0; i < p; i++)
                out[l * p + i] = x[i];
    }
    return burn_in;
}
