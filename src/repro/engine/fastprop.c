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
 * The edge weight of direction d out of cell i is row[d], where row is
 * weights + classes[i] * n_dirs (a per-class table) or, when classes is
 * NULL, weights itself (one weight per direction).
 *
 * Two entry points share the sweep: fastprop_run updates one times
 * array in place from a weight table; fastprop_burn runs n sets of
 * per-class ellipse fields over one grid, seed set and class map and
 * writes one burned mask of the inner grid per run. It fills a class's
 * row of travel times the first time the sweep pops a cell of that
 * class, with the float operations of fastprop._travel (ros_at_azimuth,
 * then distance / rate) in their order, so work scales with the cells a
 * fire reaches, not with the classes.
 * fastprop_cos exposes the libm cos those rows use, so the loader can
 * check it against NumPy's before trusting the kernel.
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

/* One run's ellipse fields and the travel rows filled from them. */
typedef struct {
    const double *ros, *dir, *ecc; /* per class */
    const double *az, *dist;       /* per stencil direction */
    double eps;                    /* rates at or below it never spread */
    double *rows;                  /* n_classes x n_dirs travel times */
    int64_t *stamp;                /* run that filled each row */
    int64_t run;
} fields;

/* np.radians: a multiply by the double nearest pi over 180. */
static const double DEG2RAD = 3.14159265358979323846 / 180.0;

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

/* Travel times of class c, as ros_at_azimuth then dist / rate, or inf
 * at or below eps. The clamp keeps NaN, as np.maximum does. */
static void fill_row(fields *f, int64_t c, int64_t n_dirs)
{
    double ros = f->ros[c], dir = f->dir[c], ecc = f->ecc[c];
    double *row = f->rows + c * n_dirs;
    for (int64_t d = 0; d < n_dirs; d++) {
        double theta = (f->az[d] - dir) * DEG2RAD;
        double denom = 1.0 - ecc * cos(theta);
        if (denom < 1e-12)
            denom = 1e-12;
        double rate = ros * (1.0 - ecc) / denom;
        row[d] = rate > f->eps ? f->dist[d] / rate : INFINITY;
    }
    f->stamp[c] = f->run;
}

/* One sweep; leaves the heap empty and every pos at -1. With f, weights
 * is f->rows and each class row is filled on its first pop. */
static void sweep(iheap *q, double *times, const double *seed_t,
                  const int64_t *seed_i, int64_t n_seeds,
                  const int64_t *offsets, int64_t n_dirs,
                  const double *weights, const int64_t *classes, fields *f,
                  double limit)
{
    for (int64_t s = 0; s < n_seeds; s++)
        update(q, seed_i[s], seed_t[s]);
    while (q->n > 0) {
        entry e = pop(q);
        if (e.t > limit)
            break; /* all remaining arrivals exceed the horizon */
        const double *row = weights;
        if (classes != NULL) {
            int64_t c = classes[e.i];
            if (f != NULL && f->stamp[c] != f->run)
                fill_row(f, c, n_dirs);
            row += c * n_dirs;
        }
        for (int64_t d = 0; d < n_dirs; d++) {
            int64_t ni = e.i + offsets[d];
            double nt = e.t + row[d];
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
                 const double *weights, const int64_t *classes, double limit)
{
    iheap q;
    int status = heap_alloc(&q, n_cells);
    if (status == 0)
        sweep(&q, times, seed_t, seed_i, n_seeds, offsets, n_dirs, weights,
              classes, NULL, limit);
    heap_free(&q);
    return status;
}

/* n_runs sweeps from the initial times `init` (n_cells = (rows + 2 pad)
 * x width), run r with the fields ros/dir/ecc + r * n_classes over the
 * class map `classes`. out[r] is the rows x cols mask of inner cells
 * with -inf < t <= limit. Returns 0, or -1 when the buffers could not be
 * allocated. */
int fastprop_burn(uint8_t *out, int64_t n_runs, const double *init,
                  int64_t rows, int64_t cols, int64_t pad, int64_t width,
                  const double *seed_t, const int64_t *seed_i,
                  int64_t n_seeds, const int64_t *offsets, int64_t n_dirs,
                  const double *ros, const double *dir, const double *ecc,
                  int64_t n_classes, const double *az, const double *dist,
                  double eps, const int64_t *classes, double limit)
{
    int64_t n_cells = (rows + 2 * pad) * width;
    iheap q;
    fields f = {NULL, NULL, NULL, az, dist, eps, NULL, NULL, 0};
    double *times = malloc((size_t)n_cells * sizeof(double));
    f.rows = malloc((size_t)(n_classes * n_dirs + 1) * sizeof(double));
    f.stamp = malloc((size_t)(n_classes + 1) * sizeof(int64_t));
    int status = heap_alloc(&q, n_cells);
    if (times == NULL || f.rows == NULL || f.stamp == NULL)
        status = -1;
    else
        memset(f.stamp, 0xff, (size_t)n_classes * sizeof(int64_t));
    for (int64_t r = 0; status == 0 && r < n_runs; r++) {
        memcpy(times, init, (size_t)n_cells * sizeof(double));
        f.ros = ros + r * n_classes;
        f.dir = dir + r * n_classes;
        f.ecc = ecc + r * n_classes;
        f.run = r;
        sweep(&q, times, seed_t, seed_i, n_seeds, offsets, n_dirs, f.rows,
              classes, &f, limit);
        uint8_t *mask = out + r * rows * cols;
        for (int64_t y = 0; y < rows; y++) {
            const double *t = times + (y + pad) * width + pad;
            for (int64_t x = 0; x < cols; x++)
                mask[y * cols + x] = t[x] <= limit && t[x] > -INFINITY;
        }
    }
    free(times);
    free(f.rows);
    free(f.stamp);
    heap_free(&q);
    return status;
}

/* out[k] = cos(x[k]), the libm cos of fill_row. */
void fastprop_cos(double *out, const double *x, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = cos(x[k]);
}
