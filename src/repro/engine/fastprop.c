/* Native heap loop of repro.engine.fastprop.
 *
 * One Dijkstra sweep over the padded flat grid of a FlatGrid, with the
 * relaxation of the Python kernels: the first popped arrival later than
 * `limit` ends the sweep, and a neighbour improves only on a strict
 * `t + w < times[ni]` (blocked and border cells hold -inf, so that test
 * is always false for them). The heap is indexed: a position array
 * holds each cell's heap slot, an improved cell already in the heap
 * moves up in place (decrease-key), so every cell is in the heap at most
 * once and the heap never outgrows the grid.
 *
 * Pops do not follow the (time, index) order of the Python loops' heapq,
 * and need not: with non-negative weights every final arrival time
 * <= limit is the minimum, over the paths into the cell, of the same
 * left-to-right double sums whatever order ties are settled in, so the
 * maps are bitwise-equal to the Python loops. Callers must reject
 * negative weights (NaN and inf never relax anything). Build without
 * -ffast-math and with -ffp-contract=off.
 *
 * The edge weight of direction d out of cell i is row[d * dir_step],
 * where row is weights + classes[i] * n_dirs when classes is given
 * (per-class table) and weights + i * cell_step otherwise (cell_step 0:
 * one weight per direction; cell_step 1 with dir_step = n_cells: one
 * plane per direction).
 *
 * Two entry points share the sweep: fastprop_run updates one times
 * array in place; fastprop_burn runs n weight sets over one grid, seed
 * set and class map, reusing its buffers, and writes one burned mask of
 * the inner grid per run.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    double t;
    int64_t i;
} entry;

typedef struct {
    entry *h;     /* the heap, n_cells slots */
    int64_t *pos; /* heap slot of each cell, -1 when not in the heap */
    int64_t n;
} iheap;

static int heap_alloc(iheap *q, int64_t n_cells)
{
    q->h = malloc((size_t)n_cells * sizeof(entry));
    q->pos = malloc((size_t)n_cells * sizeof(int64_t));
    q->n = 0;
    if (q->h == NULL || q->pos == NULL)
        return -1;
    memset(q->pos, 0xff, (size_t)n_cells * sizeof(int64_t)); /* all -1 */
    return 0;
}

static void heap_free(iheap *q)
{
    free(q->h);
    free(q->pos);
}

/* Move e up from slot k to where it belongs. */
static void sift_up(iheap *q, int64_t k, entry e)
{
    entry *h = q->h;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (!(e.t < h[parent].t))
            break;
        h[k] = h[parent];
        q->pos[h[k].i] = k;
        k = parent;
    }
    h[k] = e;
    q->pos[e.i] = k;
}

/* Insert cell i at time t, or lower its time if it is queued later. */
static void update(iheap *q, int64_t i, double t)
{
    int64_t k = q->pos[i];
    if (k < 0)
        sift_up(q, q->n++, (entry){t, i});
    else if (t < q->h[k].t)
        sift_up(q, k, (entry){t, i});
}

static entry pop(iheap *q)
{
    entry *h = q->h, top = h[0], last = h[--q->n];
    int64_t k = 0;
    q->pos[top.i] = -1;
    if (q->n == 0)
        return top;
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= q->n)
            break;
        if (child + 1 < q->n && h[child + 1].t < h[child].t)
            child++;
        if (!(h[child].t < last.t))
            break;
        h[k] = h[child];
        q->pos[h[k].i] = k;
        k = child;
    }
    h[k] = last;
    q->pos[last.i] = k;
    return top;
}

/* One sweep; leaves the heap empty and every pos at -1. */
static void sweep(iheap *q, double *times, const double *seed_t,
                  const int64_t *seed_i, int64_t n_seeds,
                  const int64_t *offsets, int64_t n_dirs,
                  const double *weights, const int64_t *classes,
                  int64_t cell_step, int64_t dir_step, double limit)
{
    for (int64_t s = 0; s < n_seeds; s++)
        update(q, seed_i[s], seed_t[s]);
    while (q->n > 0) {
        entry e = pop(q);
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
                update(q, ni, nt);
            }
        }
    }
    for (int64_t k = 0; k < q->n; k++)
        q->pos[q->h[k].i] = -1;
    q->n = 0;
}

/* Returns 0, or -1 when the heap could not be allocated. */
int fastprop_run(double *times, int64_t n_cells, const double *seed_t,
                 const int64_t *seed_i, int64_t n_seeds,
                 const int64_t *offsets, int64_t n_dirs,
                 const double *weights, const int64_t *classes,
                 int64_t cell_step, int64_t dir_step, double limit)
{
    iheap q;
    int status = heap_alloc(&q, n_cells);
    if (status == 0)
        sweep(&q, times, seed_t, seed_i, n_seeds, offsets, n_dirs, weights,
              classes, cell_step, dir_step, limit);
    heap_free(&q);
    return status;
}

/* n_runs sweeps from the initial times `init` (n_cells = (rows + 2 pad)
 * x width), run r with weights + r * run_step (one weight per direction
 * when classes is NULL, else a per-class table). out[r] is the
 * rows x cols mask of inner cells with -inf < t <= limit. Returns 0, or
 * -1 when the buffers could not be allocated. */
int fastprop_burn(uint8_t *out, int64_t n_runs, const double *init,
                  int64_t rows, int64_t cols, int64_t pad, int64_t width,
                  const double *seed_t, const int64_t *seed_i,
                  int64_t n_seeds, const int64_t *offsets, int64_t n_dirs,
                  const double *weights, int64_t run_step,
                  const int64_t *classes, double limit)
{
    int64_t n_cells = (rows + 2 * pad) * width;
    iheap q;
    double *times = malloc((size_t)n_cells * sizeof(double));
    int status = heap_alloc(&q, n_cells);
    if (times == NULL)
        status = -1;
    for (int64_t r = 0; status == 0 && r < n_runs; r++) {
        memcpy(times, init, (size_t)n_cells * sizeof(double));
        sweep(&q, times, seed_t, seed_i, n_seeds, offsets, n_dirs,
              weights + r * run_step, classes, 0, 1, limit);
        uint8_t *mask = out + r * rows * cols;
        for (int64_t y = 0; y < rows; y++) {
            const double *t = times + (y + pad) * width + pad;
            for (int64_t x = 0; x < cols; x++)
                mask[y * cols + x] = t[x] <= limit && t[x] > -INFINITY;
        }
    }
    free(times);
    heap_free(&q);
    return status;
}
