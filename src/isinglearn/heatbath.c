/* The update loop of isinglearn's heat-bath sampler (ising._Glauber).
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

/* Both loops return the magnetization after the n draws, or INT64_MIN at
 * the first site outside 0 .. p - 1, which is not applied. */

/* One coupling on every edge: P(+1) read by the count of +1 neighbors. */
int64_t table_updates(const struct graph *g, int64_t n, const int64_t *sites,
                      const double *us, int8_t *x)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t i = sites[k], c = 0;
        if ((uint64_t)i >= (uint64_t)g->p)
            return INT64_MIN;
        for (int64_t e = g->start[i]; e < g->start[i + 1]; e++)
            c += x[g->nbr[e]] > 0;
        x[i] = us[k] < g->w[g->start[i] + i + c] ? 1 : -1;
    }
    return magnetization(g, x);
}

/* Per-edge couplings: h summed from 0.0 in neighbor order, then
 * P(+1) = 1 / (1 + exp(-2h)). Where exp overflows to inf, P(+1) is 0.0,
 * as the Python loop's OverflowError gives. */
int64_t field_updates(const struct graph *g, int64_t n, const int64_t *sites,
                      const double *us, int8_t *x)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t i = sites[k];
        double h = 0.0;
        if ((uint64_t)i >= (uint64_t)g->p)
            return INT64_MIN;
        for (int64_t e = g->start[i]; e < g->start[i + 1]; e++)
            h += x[g->nbr[e]] > 0 ? g->w[e] : -g->w[e];
        x[i] = us[k] < 1.0 / (1.0 + exp(-2.0 * h)) ? 1 : -1;
    }
    return magnetization(g, x);
}
