/* The heat-bath sampler of isinglearn (ising._Glauber): its update loop,
 * its copy of numpy's draws, and the whole chain of gibbs_sample.
 *
 * Draw k sets x[sites[k]] to +1 when us[k] < P(+1) at that site given the
 * current spins of its neighbors, and to -1 otherwise. _compiled.py builds
 * this file with -O2 -ffp-contract=off and never -ffast-math, so every sum
 * rounds as the Python loop's does, and P(+1) of a per-edge field comes
 * from the libm exp that math.exp calls: the chain is the same.
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

/* The n draws, applied in order: 0, or -1 at the first site outside
 * 0 .. p - 1, which is not applied. With one coupling on every edge
 * (table), P(+1) is read by the count of +1 neighbors. With per-edge
 * couplings, h is summed from 0.0 in neighbor order, then
 * P(+1) = 1 / (1 + exp(-2h)); where exp overflows to inf, P(+1) is 0.0, as
 * the Python loop's OverflowError gives. Called with a constant table, so
 * each caller gets a loop of its own kind. */
static inline int updates(const struct graph *g, int table, int64_t n, const int64_t *sites,
                          const double *us, int8_t *x)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t i = sites[k];
        double prob;
        if ((uint64_t)i >= (uint64_t)g->p)
            return -1;
        if (table) {
            int64_t c = 0;
            for (int64_t e = g->start[i]; e < g->start[i + 1]; e++)
                c += x[g->nbr[e]] > 0;
            prob = g->w[g->start[i] + i + c];
        } else {
            double h = 0.0;
            for (int64_t e = g->start[i]; e < g->start[i + 1]; e++)
                h += x[g->nbr[e]] > 0 ? g->w[e] : -g->w[e];
            prob = 1.0 / (1.0 + exp(-2.0 * h));
        }
        x[i] = us[k] < prob ? 1 : -1;
    }
    return 0;
}

/* Both loops return the magnetization after the n draws, or INT64_MIN at
 * the first site outside 0 .. p - 1. */

int64_t table_updates(const struct graph *g, int64_t n, const int64_t *sites,
                      const double *us, int8_t *x)
{
    return updates(g, 1, n, sites, us, x) ? INT64_MIN : magnetization(g, x);
}

int64_t field_updates(const struct graph *g, int64_t n, const int64_t *sites,
                      const double *us, int8_t *x)
{
    return updates(g, 0, n, sites, us, x) ? INT64_MIN : magnetization(g, x);
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
 * _Glauber.blocks does. Returns 0; -1 where draws refuses p; -2, before
 * drawing it, at the first chunk of more than cap draws, with the chunks
 * before it applied. */
int chain(const struct graph *g, int table, struct bitgen *bg, int64_t chunk, int64_t burn_in,
          int64_t thin, int64_t n, int8_t *x, int8_t *out, int64_t *sites, double *us,
          int64_t cap)
{
    const int64_t p = g->p;
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
                updates(g, 1, k, sites, us, x);
            else
                updates(g, 0, k, sites, us, x);
        }
        if (l >= 0)
            for (int64_t i = 0; i < p; i++)
                out[l * p + i] = x[i];
    }
    return 0;
}
