/* Native heap loop of repro.engine.fastprop.
 *
 * One Dijkstra sweep over the padded flat grid of a FlatGrid, with the
 * relaxation of the Python kernels: a popped entry later than its cell's
 * arrival time is stale and skipped, the first entry later than `limit`
 * ends the sweep, and a neighbour improves only on a strict
 * `t + w < times[ni]` (blocked and border cells hold -inf, so that test
 * is always false for them). The heap orders entries by (time, index),
 * the same total order as Python's heapq on (float, int) tuples, so
 * entries pop in the same sequence and every arrival time is the same
 * left-to-right double sum: the maps are bitwise-equal to the Python
 * loops. Build without -ffast-math and with -ffp-contract=off.
 *
 * The edge weight of direction d out of cell i is row[d * dir_step],
 * where row is weights + classes[i] * n_dirs when classes is given
 * (per-class table) and weights + i * cell_step otherwise (cell_step 0:
 * one weight per direction; cell_step 1 with dir_step = n_cells: one
 * plane per direction).
 */
#include <stdint.h>
#include <stdlib.h>

const int64_t fastprop_heap_init = 1024;

typedef struct {
    double t;
    int64_t i;
} entry;

static int before(const entry *a, const entry *b)
{
    return a->t < b->t || (a->t == b->t && a->i < b->i);
}

static int push(entry **heap, int64_t *n, int64_t *cap, double t, int64_t i)
{
    if (*n == *cap) {
        entry *grown = realloc(*heap, (size_t)(*cap * 2) * sizeof(entry));
        if (grown == NULL)
            return -1;
        *heap = grown;
        *cap *= 2;
    }
    entry *h = *heap, e = {t, i};
    int64_t k = (*n)++;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (!before(&e, &h[parent]))
            break;
        h[k] = h[parent];
        k = parent;
    }
    h[k] = e;
    return 0;
}

static entry pop(entry *h, int64_t *n)
{
    entry top = h[0], last = h[--(*n)];
    int64_t k = 0;
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= *n)
            break;
        if (child + 1 < *n && before(&h[child + 1], &h[child]))
            child++;
        if (!before(&h[child], &last))
            break;
        h[k] = h[child];
        k = child;
    }
    h[k] = last;
    return top;
}

/* Returns 0, or -1 when the heap could not be allocated or grown. */
int fastprop_run(double *times, const double *seed_t, const int64_t *seed_i,
                 int64_t n_seeds, const int64_t *offsets, int64_t n_dirs,
                 const double *weights, const int64_t *classes,
                 int64_t cell_step, int64_t dir_step, double limit)
{
    int64_t n = 0, cap = fastprop_heap_init;
    entry *heap = malloc((size_t)cap * sizeof(entry));
    if (heap == NULL)
        return -1;
    for (int64_t s = 0; s < n_seeds; s++) {
        if (push(&heap, &n, &cap, seed_t[s], seed_i[s]) != 0)
            goto fail;
    }
    while (n > 0) {
        entry e = pop(heap, &n);
        if (e.t > times[e.i])
            continue; /* stale entry */
        if (e.t > limit)
            break; /* all remaining arrivals exceed the horizon */
        const double *row = classes != NULL
            ? weights + classes[e.i] * n_dirs
            : weights + e.i * cell_step;
        for (int64_t d = 0; d < n_dirs; d++) {
            int64_t ni = e.i + offsets[d];
            double nt = e.t + row[d * dir_step];
            if (nt < times[ni]) {
                times[ni] = nt;
                if (push(&heap, &n, &cap, nt, ni) != 0)
                    goto fail;
            }
        }
    }
    free(heap);
    return 0;
fail:
    free(heap);
    return -1;
}
