/* The heat-bath sampler of isinglearn (ising._Glauber): its update loops,
 * its copy of numpy's draws, and the whole chain of gibbs_sample.
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

/* The index of the first of the n sites outside 0 .. p - 1, or n. */
static int64_t valid_prefix(const struct graph *g, int64_t n, const int64_t *sites)
{
    for (int64_t k = 0; k < n; k++)
        if ((uint64_t)sites[k] >= (uint64_t)g->p)
            return k;
    return n;
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
 * counted (*rare set) where under 1/8 of the draws that chose its mode
 * flipped, and recounted elsewhere and first: on 4-regular graphs 1.5% of
 * draws flip at theta = 0.65, where a flip's branch predicts well, and
 * 45% at 0.15, where it does not and moving counts at every draw cost
 * more than counting. The counts are built from x on entering the counted
 * mode. *rare holds the mode, and cnt the counts, from one call to the
 * next. The mode changes only the speed. */
static void table_loop(const struct graph *g, int *rare, int64_t n, const int64_t *sites,
                       const double *us, int8_t *x, int32_t *cnt)
{
    for (int64_t k = 0; k < n; k += MODE_DRAWS) {
        const int64_t m = n - k < MODE_DRAWS ? n - k : MODE_DRAWS;
        if (*rare) {
            *rare = 8 * counted_flips(g, m, sites + k, us + k, x, cnt) < m;
        } else {
            const int64_t probe = m < PROBE_DRAWS ? m : PROBE_DRAWS;
            *rare = 8 * recounted_flips(g, m, probe, sites + k, us + k, x) < probe;
            if (*rare)
                count_plus(g, x, cnt);
        }
    }
}

/* Both loops apply the n draws in order and return the magnetization
 * after them, or INT64_MIN at the first site outside 0 .. p - 1, with
 * the draws before it applied. The table loop takes p counts in cnt. */

int64_t table_updates(const struct graph *g, int64_t n, const int64_t *sites,
                      const double *us, int8_t *x, int32_t *cnt)
{
    const int64_t ok = valid_prefix(g, n, sites);
    int rare = 0;
    table_loop(g, &rare, ok, sites, us, x, cnt);
    return ok < n ? INT64_MIN : magnetization(g, x);
}

int64_t field_updates(const struct graph *g, int64_t n, const int64_t *sites,
                      const double *us, int8_t *x)
{
    const int64_t ok = valid_prefix(g, n, sites);
    field_loop(g, ok, sites, us, x);
    return ok < n ? INT64_MIN : magnetization(g, x);
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

/* The chain of gibbs_sample: burn_in sweeps, then n blocks of thin sweeps,
 * with x copied into row l of out (n rows of p) after block l. Each block
 * draws its randomness in chunks of at most chunk sweeps, a chunk's sites
 * and then its uniforms, into sites and us (cap values each), as
 * _Glauber.blocks does. The table loop keeps its mode and its p counts in
 * cnt from chunk to chunk. Returns 0; -1 where
 * draws refuses p; -2, before drawing it, at the first chunk of more than
 * cap draws, with the chunks before it applied. */
int chain(const struct graph *g, int table, struct bitgen *bg, int64_t chunk, int64_t burn_in,
          int64_t thin, int64_t n, int8_t *x, int8_t *out, int64_t *sites, double *us,
          int64_t cap, int32_t *cnt)
{
    const int64_t p = g->p;
    int rare = 0;
    for (int64_t l = -1; l < n; l++) {
        const int64_t sweeps = l < 0 ? burn_in : thin;
        for (int64_t done = 0; done < sweeps; done += chunk) {
            const int64_t k = (sweeps - done < chunk ? sweeps - done : chunk) * p;
            if (k > cap)
                return -2;
            if (draws(bg, p, k, sites, us))
                return -1;
            /* sites from draws lie in 0 .. p - 1 */
            if (table)
                table_loop(g, &rare, k, sites, us, x, cnt);
            else
                field_loop(g, k, sites, us, x);
        }
        if (l >= 0)
            for (int64_t i = 0; i < p; i++)
                out[l * p + i] = x[i];
    }
    return 0;
}
