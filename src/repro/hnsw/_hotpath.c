/* Compiled hot paths for HNSW: K-NN-SEARCH (paper Alg. 5, with the
 * SEARCH-LAYER beam of Alg. 2) and batched INSERT (Alg. 1, with the
 * SELECT-NEIGHBORS heuristic of Alg. 4 and link shrinking).
 *
 * The python implementation pays ~6-8 interpreter/numpy dispatches per
 * expanded node; these helpers run the whole loops in C on the index's
 * flat buffers (point matrix, adjacency rows, link counts, epoch-stamped
 * visited array) with two array-backed binary heaps.
 *
 * Bit-identity contract
 * ---------------------
 * Results must match the python path bit for bit, so every l2 distance
 * -- query->candidate and candidate<->candidate alike -- goes through
 * ``l2sq`` below, the C twin of the repo's canonical float32 reduction
 * (``repro.hnsw.kernels.l2sq_lanes``, the spec): 8 lanes, each summing
 * its blocks of 8 sequentially, a zero-padded ``dim % 8`` tail, then the
 * fixed tree (l0+l4, l1+l5, l2+l6, l3+l7) -> (r0+r2, r1+r3) -> sum; l2
 * takes a float32 sqrt.  One code path serves every dimension.  The
 * python side checks ``l2_batch`` against the numpy reference at load
 * time and uses nothing here if they differ.  Compile with
 * -ffp-contract=off: a fused multiply-add would change the rounding.
 *
 * Heap note: all (distance, id) pairs are distinct (a node is visited at
 * most once per call), so the pop order of any correct binary heap is
 * the total order on (d, id) — the heap layout itself need not match
 * python's heapq.
 */

#include <math.h>
#include <stdint.h>

typedef int64_t i64;

#define LANES 8

/* canonical float32 squared euclidean distance (see the header) */
static inline float l2sq(const float *restrict a, const float *restrict b,
                         i64 dim)
{
    float acc[LANES] = {0};
    i64 k = 0;
    for (; k + LANES <= dim; k += LANES)
        for (int l = 0; l < LANES; l++) {
            float d = a[k + l] - b[k + l];
            acc[l] += d * d;
        }
    for (int l = 0; k + l < dim; l++) { /* tail: the padded lanes add 0 */
        float d = a[k + l] - b[k + l];
        acc[l] += d * d;
    }
    float r0 = acc[0] + acc[4], r1 = acc[1] + acc[5];
    float r2 = acc[2] + acc[6], r3 = acc[3] + acc[7];
    return (r0 + r2) + (r1 + r3);
}

/* the metric distance as the python side sees it: float32, widened */
static inline double dist(const float *a, const float *b, i64 dim,
                          int32_t do_sqrt)
{
    float v = l2sq(a, b, dim);
    return do_sqrt ? (double)sqrtf(v) : (double)v;
}

/* self-check helper: row-wise distances for bit-comparison vs numpy */
void l2_batch(const float *A, const float *B, i64 n, i64 dim, int32_t do_sqrt,
              float *out)
{
    for (i64 i = 0; i < n; i++)
        out[i] = (float)dist(A + i * dim, B + i * dim, dim, do_sqrt);
}

/* candidates: min-heap on (d, id); results: max-heap on (d, id) with the
 * tie rule of python's (-d, id) min-heap (equal d -> smaller id on top). */

static inline int pair_lt(double d1, int32_t i1, double d2, int32_t i2)
{
    return d1 < d2 || (d1 == d2 && i1 < i2);
}

static inline int pair_gt(double d1, int32_t i1, double d2, int32_t i2)
{
    return d1 > d2 || (d1 == d2 && i1 < i2);
}

static void minh_push(double *hd, int32_t *hi, i64 *n, double d, int32_t id)
{
    i64 i = (*n)++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (pair_lt(d, id, hd[p], hi[p])) {
            hd[i] = hd[p];
            hi[i] = hi[p];
            i = p;
        } else {
            break;
        }
    }
    hd[i] = d;
    hi[i] = id;
}

static void minh_pop(double *hd, int32_t *hi, i64 *n)
{
    i64 m = --(*n);
    double d = hd[m];
    int32_t id = hi[m];
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && pair_lt(hd[c + 1], hi[c + 1], hd[c], hi[c]))
            c++;
        if (pair_lt(hd[c], hi[c], d, id)) {
            hd[i] = hd[c];
            hi[i] = hi[c];
            i = c;
        } else {
            break;
        }
    }
    if (m > 0) {
        hd[i] = d;
        hi[i] = id;
    }
}

static void maxh_push(double *hd, int32_t *hi, i64 *n, double d, int32_t id)
{
    i64 i = (*n)++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (pair_gt(d, id, hd[p], hi[p])) {
            hd[i] = hd[p];
            hi[i] = hi[p];
            i = p;
        } else {
            break;
        }
    }
    hd[i] = d;
    hi[i] = id;
}

static void maxh_sift_down(double *hd, int32_t *hi, i64 m, double d, int32_t id)
{
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && pair_gt(hd[c + 1], hi[c + 1], hd[c], hi[c]))
            c++;
        if (pair_gt(hd[c], hi[c], d, id)) {
            hd[i] = hd[c];
            hi[i] = hi[c];
            i = c;
        } else {
            break;
        }
    }
    hd[i] = d;
    hi[i] = id;
}

/* Beam search of width ef on one layer.  Writes the result set, sorted
 * ascending by (d, id), into (rd, ri) and returns its length.  With a
 * row mask ``allowed`` (NULL = every row) masked nodes are evaluated and
 * expanded like any other -- they conduct the walk -- but never enter
 * the result set (python ``_search_layer_filtered``).  cd/ci and rd/ri
 * are caller-provided scratch with room for every push (bounded by
 * n_points + n_in).  *evals_out receives the distance-evaluation count. */
static i64 search_layer(const float *X, i64 dim, const int32_t *nbrs,
                        i64 row_stride, const int32_t *cnts, i64 *stamp,
                        i64 epoch, const float *q, const double *in_d,
                        const int32_t *in_i, i64 n_in, i64 ef,
                        const uint8_t *allowed, int32_t do_sqrt, double *cd,
                        int32_t *ci, double *rd, int32_t *ri, i64 *evals_out)
{
    i64 nc = 0, nr = 0, evals = 0;
    for (i64 t = 0; t < n_in; t++) {
        stamp[in_i[t]] = epoch;
        minh_push(cd, ci, &nc, in_d[t], in_i[t]);
        if (!allowed || allowed[in_i[t]])
            maxh_push(rd, ri, &nr, in_d[t], in_i[t]);
    }
    while (nc) {
        double c_dist = cd[0];
        int32_t c = ci[0];
        if (nr >= ef && c_dist > rd[0])
            break;
        minh_pop(cd, ci, &nc);
        const int32_t *row = nbrs + (i64)c * row_stride;
        i64 cnt = cnts[c];
        for (i64 j = 0; j < cnt; j++) {
            int32_t nb = row[j];
            if (stamp[nb] == epoch)
                continue;
            stamp[nb] = epoch;
            double d = dist(X + (i64)nb * dim, q, dim, do_sqrt);
            evals++;
            if (nr >= ef && d >= rd[0])
                continue;
            minh_push(cd, ci, &nc, d, nb);
            if (allowed && !allowed[nb])
                continue;
            if (nr < ef)
                maxh_push(rd, ri, &nr, d, nb);
            else
                maxh_sift_down(rd, ri, nr, d, nb);
        }
    }
    /* heapsort: repeatedly pop the max into the freed tail slot */
    for (i64 m = nr; m > 1;) {
        double d = rd[0];
        int32_t id = ri[0];
        m--;
        maxh_sift_down(rd, ri, m, rd[m], ri[m]);
        rd[m] = d;
        ri[m] = id;
    }
    /* the max-heap tie rule (smaller id = "greater") leaves runs of equal
     * d in descending id; python's sorted() wants ascending -> reverse */
    for (i64 i = 0; i < nr;) {
        i64 j = i + 1;
        while (j < nr && rd[j] == rd[i])
            j++;
        for (i64 a = i, b = j - 1; a < b; a++, b--) {
            int32_t t = ri[a];
            ri[a] = ri[b];
            ri[b] = t;
        }
        i = j;
    }
    *evals_out = evals;
    return nr;
}

/* Greedy search with beam 1 on one layer (upper-layer descent). */
static void greedy_step(const float *X, i64 dim, const int32_t *nbrs,
                        i64 stride, const int32_t *cnts, const float *q,
                        int32_t do_sqrt, i64 *ep_io, double *epd_io,
                        i64 *evals)
{
    i64 ep = *ep_io;
    double epd = *epd_io;
    for (;;) {
        i64 cnt = cnts[ep];
        if (!cnt)
            break;
        const int32_t *row = nbrs + ep * stride;
        double best = 0.0;
        i64 bj = -1;
        for (i64 j = 0; j < cnt; j++) {
            double d = dist(X + (i64)row[j] * dim, q, dim, do_sqrt);
            if (bj < 0 || d < best) { /* strict < == np.argmin first-index */
                best = d;
                bj = j;
            }
        }
        *evals += cnt;
        if (best < epd) {
            ep = row[bj];
            epd = best;
        } else {
            break;
        }
    }
    *ep_io = ep;
    *epd_io = epd;
}

#define LEVEL_NBRS(lv) ((int32_t *)(intptr_t)nbrs_ptrs[lv])
#define LEVEL_CNTS(lv) ((int32_t *)(intptr_t)cnts_ptrs[lv])

/* K-NN-SEARCH for nq queries: the entry distance, greedy descent through
 * levels max_level..1 (never masked), then the layer-0 beam of width ef
 * under the optional row mask.  Row t's min(k, found) closest pairs go
 * to D[t*k..] / I[t*k..] as internal ids; the caller pre-fills the
 * padding.  nbrs_ptrs/strides/cnts_ptrs hold the per-level array
 * addresses; epoch and the eval count are passed by reference. */
void hnsw_knn_batch(const float *X, i64 dim, const i64 *nbrs_ptrs,
                    const i64 *strides, const i64 *cnts_ptrs, i64 max_level,
                    i64 entry, const float *Q, i64 nq, i64 k, i64 ef,
                    const uint8_t *allowed, int32_t do_sqrt, i64 *stamp,
                    i64 *epoch_io, double *cd, int32_t *ci, double *rd,
                    int32_t *ri, double *D, i64 *I, i64 *evals_io)
{
    i64 epoch = *epoch_io, evals = 0;
    for (i64 t = 0; t < nq; t++) {
        const float *q = Q + t * dim;
        i64 ep = entry;
        double epd = dist(X + ep * dim, q, dim, do_sqrt);
        evals++;
        for (i64 lv = max_level; lv > 0; lv--)
            greedy_step(X, dim, LEVEL_NBRS(lv), strides[lv], LEVEL_CNTS(lv),
                        q, do_sqrt, &ep, &epd, &evals);
        int32_t in_i = (int32_t)ep;
        i64 ev = 0;
        i64 nres = search_layer(X, dim, LEVEL_NBRS(0), strides[0],
                                LEVEL_CNTS(0), stamp, ++epoch, q, &epd, &in_i,
                                1, ef, allowed, do_sqrt, cd, ci, rd, ri, &ev);
        evals += ev;
        for (i64 j = 0; j < nres && j < k; j++) {
            D[t * k + j] = rd[j];
            I[t * k + j] = ri[j];
        }
    }
    *epoch_io = epoch;
    *evals_io += evals;
}

/* SELECT-NEIGHBORS over n candidates pre-sorted ascending by (d, id).
 * Mirrors select.py: simple selection takes the closest m; the
 * heuristic keeps a candidate iff no already-kept candidate is at
 * least as close to it as the query is (r[i] <= d_i), stops once m
 * are kept, and with keep_pruned backfills the first examined
 * discards.  The output (ascending by (d, id), like the python
 * position-order merge) goes to (out_d, out_i); returns its length.
 *
 * ``rows`` is scratch for up to m kept rows of lazily-computed
 * pairwise distances (only positions after the row's owner are ever
 * read, matching the lazy row kernel); ``flags`` marks kept
 * positions. */
static i64 select_links(const float *X, i64 dim, const double *cand_d,
                        const int32_t *cand_i, i64 n, i64 m,
                        int32_t heuristic, int32_t keep_pruned,
                        int32_t do_sqrt, double *rows, i64 row_stride,
                        uint8_t *flags, double *out_d, int32_t *out_i)
{
    if (!heuristic) {
        i64 take = n < m ? n : m;
        for (i64 i = 0; i < take; i++) {
            out_d[i] = cand_d[i];
            out_i[i] = cand_i[i];
        }
        return take;
    }
    i64 kept = 0, examined = n;
    for (i64 i = 0; i < n; i++) {
        if (kept >= m) {
            examined = i;
            break;
        }
        double di = cand_d[i];
        int hit = 0;
        for (i64 r = 0; r < kept; r++) {
            if (rows[r * row_stride + i] <= di) {
                hit = 1;
                break;
            }
        }
        if (hit) {
            flags[i] = 0;
            continue;
        }
        flags[i] = 1;
        const float *xi = X + (i64)cand_i[i] * dim;
        for (i64 j = i + 1; j < n; j++)
            rows[kept * row_stride + j] =
                dist(xi, X + (i64)cand_i[j] * dim, dim, do_sqrt);
        kept++;
    }
    i64 backfill = (keep_pruned && kept < m) ? m - kept : 0;
    i64 n_out = 0;
    for (i64 i = 0; i < examined; i++) {
        if (flags[i]) {
            out_d[n_out] = cand_d[i];
            out_i[n_out++] = cand_i[i];
        } else if (backfill > 0) {
            out_d[n_out] = cand_d[i];
            out_i[n_out++] = cand_i[i];
            backfill--;
        }
    }
    return n_out;
}

/* Re-select node c's over-full neighbor list down to ``limit`` links
 * (python _shrink).  Charges the same logical eval count as the
 * python paths: cnt query distances plus, under the heuristic, the
 * cnt-candidate cross matrix. */
static void shrink_node(const float *X, i64 dim, int32_t *nrow, int32_t *cnts,
                        i64 c, i64 limit, int32_t heuristic,
                        int32_t keep_pruned, int32_t do_sqrt, double *tmp_d,
                        int32_t *tmp_i, double *rows, i64 row_stride,
                        uint8_t *flags, double *out_d, int32_t *out_i,
                        i64 *evals, i64 *shrinks)
{
    i64 cnt = cnts[c];
    const float *xc = X + c * dim;
    for (i64 j = 0; j < cnt; j++) {
        tmp_d[j] = dist(xc, X + (i64)nrow[j] * dim, dim, do_sqrt);
        tmp_i[j] = nrow[j];
    }
    *evals += heuristic ? cnt + cnt * (cnt - 1) / 2 : cnt;
    /* insertion sort ascending by (d, id) == python sorted() on tuples */
    for (i64 j = 1; j < cnt; j++) {
        double d = tmp_d[j];
        int32_t id = tmp_i[j];
        i64 p = j - 1;
        while (p >= 0 && pair_lt(d, id, tmp_d[p], tmp_i[p])) {
            tmp_d[p + 1] = tmp_d[p];
            tmp_i[p + 1] = tmp_i[p];
            p--;
        }
        tmp_d[p + 1] = d;
        tmp_i[p + 1] = id;
    }
    i64 m_out = select_links(X, dim, tmp_d, tmp_i, cnt, limit, heuristic,
                             keep_pruned, do_sqrt, rows, row_stride, flags,
                             out_d, out_i);
    for (i64 j = 0; j < m_out; j++)
        nrow[j] = out_i[j];
    cnts[c] = (int32_t)m_out;
    (*shrinks)++;
}

/* Batched INSERT: points n_start..n_start+n_new-1 already stored in X
 * with their sampled levels in new_levels (and node_level), adjacency
 * arrays already sized for the final level.  nbrs_ptrs/cnts_ptrs hold
 * the per-level array addresses (the arrays live in numpy).  All
 * scratch is caller-provided: cd/ci/rd/ri are the search heaps,
 * rows/flags and the tmp/ch/sh pairs serve selection and shrinking.  epoch,
 * entry, eval and shrink counters are passed by reference so the
 * python side stays the single source of truth between calls. */
i64 hnsw_insert_batch(const float *X, i64 dim, const int32_t *node_level,
                      i64 n_start, i64 n_new, const int32_t *new_levels,
                      const i64 *nbrs_ptrs, const i64 *strides,
                      const i64 *cnts_ptrs, i64 M, i64 M0, i64 efc,
                      int32_t heuristic, int32_t keep_pruned, int32_t do_sqrt,
                      i64 *stamp, i64 *epoch_io, i64 *entry_io, double *cd,
                      int32_t *ci, double *rd, int32_t *ri, double *rows,
                      i64 row_stride, uint8_t *flags, double *tmp_d,
                      int32_t *tmp_i, double *ch_d, int32_t *ch_i,
                      double *sh_d, int32_t *sh_i, i64 *evals_out,
                      i64 *shrinks_out)
{
    i64 epoch = *epoch_io, entry = *entry_io, evals = 0, shrinks = 0;
    for (i64 p = 0; p < n_new; p++) {
        i64 node = n_start + p;
        i64 level = new_levels[p];
        if (entry < 0) {
            entry = node;
            continue;
        }
        const float *q = X + node * dim;
        i64 ep = entry;
        i64 top = node_level[ep];
        double epd = dist(q, X + ep * dim, dim, do_sqrt);
        evals++;

        /* phase 1: greedy descent through layers above the insert level */
        for (i64 lv = top; lv > level; lv--)
            greedy_step(X, dim, LEVEL_NBRS(lv), strides[lv], LEVEL_CNTS(lv),
                        q, do_sqrt, &ep, &epd, &evals);

        /* phase 2: beam search + connect on layers min(top, level)..0 */
        i64 start = top < level ? top : level;
        for (i64 lv = start; lv >= 0; lv--) {
            int32_t *nbrs = LEVEL_NBRS(lv);
            int32_t *cnts = LEVEL_CNTS(lv);
            i64 stride = strides[lv];
            i64 limit = lv == 0 ? M0 : M;
            int32_t in_i = (int32_t)ep;
            i64 ev = 0;
            i64 nres = search_layer(X, dim, nbrs, stride, cnts, stamp, ++epoch,
                                    q, &epd, &in_i, 1, efc, 0, do_sqrt, cd,
                                    ci, rd, ri, &ev);
            evals += ev;
            if (heuristic) /* the python _select charge for the cross matrix */
                evals += nres * (nres - 1) / 2;
            i64 nch = select_links(X, dim, rd, ri, nres, limit, heuristic,
                                   keep_pruned, do_sqrt, rows, row_stride,
                                   flags, ch_d, ch_i);
            for (i64 t = 0; t < nch; t++)
                nbrs[node * stride + t] = ch_i[t];
            cnts[node] = (int32_t)nch;
            for (i64 t = 0; t < nch; t++) {
                i64 c = ch_i[t];
                i64 cc = cnts[c];
                nbrs[c * stride + cc] = (int32_t)node;
                cnts[c] = (int32_t)(cc + 1);
                if (cc + 1 > limit)
                    shrink_node(X, dim, nbrs + c * stride, cnts, c, limit,
                                heuristic, keep_pruned, do_sqrt, tmp_d, tmp_i,
                                rows, row_stride, flags, sh_d, sh_i, &evals,
                                &shrinks);
            }
            if (nch) { /* python: best = min(chosen) (chosen is sorted) */
                epd = ch_d[0];
                ep = ch_i[0];
            }
        }
        if (level > top)
            entry = node;
    }
    *epoch_io = epoch;
    *entry_io = entry;
    *evals_out = evals;
    *shrinks_out = shrinks;
    return n_new;
}
