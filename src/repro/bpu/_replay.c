/* Native kernels for the default `native` tier (repro.bpu.native).
 *
 * Compiled at first use with the system C toolchain into a per-user
 * cached shared library and driven through ctypes.  gen_outcomes
 * resolves a generated trace's conditional outcomes through its
 * behaviour models (repro.workloads.generator).  Three column builders
 * turn a branch stream into the trace-pure columns the replay reads:
 * fold_columns (base.py's FoldedHistory registers, Whisper's hashed
 * histories), tage_columns (tage.py's per-table entry indices and tags)
 * and sc_columns (corrector.py's index rows); hint_walk runs the hint
 * buffer's LRU state over the trace (repro.core.hint_buffer).  Each
 * replay entry point then runs the sequential state-update core of one
 * predictor family over those SoA columns; lru_walk runs the timing
 * model's I-cache and BTB LRU state and fdip_merge charges its I-cache
 * stalls against the squashes (repro.sim.simulator).  split_search and
 * split_winners run the formula search's root split over the whole op
 * space of 8-input formulas: each training row's extreme dot products,
 * and Algorithm 1's earliest winner (repro.core.search).  Every entry
 * point must stay bit-identical to the scalar reference implementation —
 * enforced by the scalar/native equivalence suite and by
 * tests/test_native.py's per-entry-point checks.
 *
 * Every piece of predictor state travels as int64 so Python-side
 * marshalling is a plain dtype conversion and no counter can overflow;
 * the saturation bounds below mirror the constants in tage.py,
 * corrector.py, loop.py and perceptron.py exactly.  native.py keeps
 * folded-register widths within 1..62 and index widths within 0..62, so
 * no shift below overflows an int64.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* Trace generation (workloads/generator.py _walk_scalar): every        */
/* conditional event's outcome through its behaviour model              */
/* (workloads/behaviors.py), in event order.  Event i reads u[i] and    */
/* the outcomes before it: bit d of the generator's 1024-bit global     */
/* history before event i is out[i - 1 - d], and zero before the first  */
/* event.  Per slot (one behaviour object), with tables and patterns    */
/* packed LSB first from byte iparam[2] of `bits`:                      */
/*   BIASED   fparam[0] = p                                             */
/*   BURSTY   iparam[0] = common, fparam = (excursion_rate, mean_burst), */
/*            state = _remaining                                        */
/*   SPARSE   iparam[0..1] = (first, count) of its `positions`,         */
/*            table at iparam[2], fparam[0] = noise                     */
/*   PATTERN  iparam[0] = period, pattern at iparam[2], state = _pos    */
/*   LOOP     iparam[0] = trip, state = _count                          */
/*   LOCAL    iparam[0] = k, table at iparam[2], fparam[0] = noise,     */
/*            state = _local                                            */
/* The generator's packer (workloads/generator.py _pack) refuses what  */
/* would read outside a table (a pattern position at or past the        */
/* period, a local history at or past 2**k, more than 8 sparse          */
/* positions or a negative one) or make log(1 - 1 / mean_burst) zero;   */
/* native.py keeps every slot index inside the slot columns.            */
/* ------------------------------------------------------------------ */

enum { GEN_BIASED, GEN_BURSTY, GEN_SPARSE, GEN_PATTERN, GEN_LOOP, GEN_LOCAL };

#define GEN_HISTORY_BITS 1024

static inline int bit_at(const uint8_t *bits, int64_t i)
{
    return (bits[i >> 3] >> (i & 7)) & 1;
}

void gen_outcomes(
    int64_t n,
    const int64_t *slot,      /* [n] behaviour slot of each event         */
    const double *u,          /* [n] each event's uniform draw            */
    const int64_t *kind,      /* [m] GEN_* per slot                       */
    const int64_t *iparam,    /* [m][3]                                   */
    const double *fparam,     /* [m][2]                                   */
    const int64_t *positions, /* sparse history positions, >= 0           */
    const uint8_t *bits,      /* packed patterns and truth tables         */
    int64_t *state,           /* [m] in/out                               */
    uint8_t *out)             /* [n] out                                  */
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t s = slot[i];
        const int64_t *ip = iparam + 3 * s;
        const double *fp = fparam + 2 * s;
        int v;
        switch (kind[s]) {
        case GEN_BIASED:
            v = u[i] < fp[0];
            break;
        case GEN_BURSTY:
            if (state[s] > 0) {
                state[s]--;
                v = !ip[0];
            } else if (u[i] < fp[0]) {
                /* The draw is reused: below the rate, u / rate is uniform. */
                double frac = u[i] / fp[0];
                if (frac < 1e-12) frac = 1e-12;
                if (frac > 1.0 - 1e-12) frac = 1.0 - 1e-12;
                const double p_stop = 1.0 / fp[1];
                const int64_t length = p_stop < 1.0
                    ? 1 + (int64_t)(log(1.0 - frac) / log(1.0 - p_stop)) : 1;
                state[s] = length > 1 ? length - 1 : 0;
                v = !ip[0];
            } else {
                v = ip[0] != 0;
            }
            break;
        case GEN_SPARSE: {
            int64_t key = 0;
            for (int64_t j = 0; j < ip[1]; j++) {
                const int64_t pos = positions[ip[0] + j];
                if (pos < GEN_HISTORY_BITS && pos < i && out[i - 1 - pos])
                    key |= (int64_t)1 << j;
            }
            v = bit_at(bits + ip[2], key) ^ (u[i] < fp[0]);
            break;
        }
        case GEN_PATTERN:
            v = bit_at(bits + ip[2], state[s]);
            state[s] = (state[s] + 1) % ip[0];
            break;
        case GEN_LOOP:
            if (++state[s] >= ip[0]) {
                state[s] = 0;
                v = 0;
            } else {
                v = 1;
            }
            break;
        default: /* GEN_LOCAL */
            v = bit_at(bits + ip[2], state[s]) ^ (u[i] < fp[0]);
            state[s] = ((state[s] << 1) | v) & (((int64_t)1 << ip[0]) - 1);
            break;
        }
        out[i] = (uint8_t)v;
    }
}

/* ------------------------------------------------------------------ */
/* Folded history (base.py FoldedHistory): the XOR-fold of the last     */
/* `length` outcomes into `width` bits, advanced in O(1) per branch by  */
/* shifting the new outcome in and folding the outcome that leaves the  */
/* window back out at length % width.  Outcomes before the stream are   */
/* zeros.                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t comp, width, outpoint, mask;
} Fold;

static void fold_init(Fold *f, int64_t length, int64_t width)
{
    f->comp = 0;
    f->width = width;
    f->outpoint = length % width;
    f->mask = ((int64_t)1 << width) - 1;
}

/* Advance past branch t of `taken`: outcome t enters, t - length leaves. */
static inline void fold_step(Fold *f, const uint8_t *taken, int64_t t,
                             int64_t length)
{
    const int64_t out = t >= length ? taken[t - length] : 0;
    int64_t comp = (f->comp << 1) | taken[t];
    comp ^= out << f->outpoint;
    comp ^= comp >> f->width;
    f->comp = comp & f->mask;
}

/* One register per (lengths[c], widths[c]): cols[c][t] is its value     */
/* before branch t, finals[c] its value after the stream.  At length 0   */
/* each outcome leaves the window as it enters, so the column is zeros.  */
void fold_columns(
    int64_t n, const uint8_t *taken,
    int64_t k, const int64_t *lengths, const int64_t *widths,
    int64_t *cols,            /* [k][n] out                              */
    int64_t *finals)          /* [k] out                                 */
{
    for (int64_t c = 0; c < k; c++) {
        const int64_t length = lengths[c];
        int64_t *col = cols + c * n;
        Fold f;
        fold_init(&f, length, widths[c]);
        for (int64_t t = 0; t < n; t++) {
            col[t] = f.comp;
            fold_step(&f, taken, t, length);
        }
        finals[c] = f.comp;
    }
}

/* TAGE index and tag rows (tage.py TagePredictor._compute): table i     */
/* folds its history histories[i] into an index register (log_entries   */
/* bits) and two tag registers (tag_bits and tag_bits - 1, at least 1),  */
/* walked once over the stream.  finals[i] holds the three post-run      */
/* registers, in that order.                                             */
void tage_columns(
    int64_t n, int64_t n_tables,
    const int64_t *histories, /* [n_tables] history length per table    */
    int64_t log_entries, int64_t tag_bits,
    const int64_t *pcs,       /* [n] branch PCs                          */
    const uint8_t *taken,     /* [n]                                     */
    int64_t *idx_mat,         /* [n_tables][n] out: entry indices        */
    int64_t *tag_mat,         /* [n_tables][n] out: computed tags        */
    int64_t *finals)          /* [n_tables][3] out                       */
{
    const int64_t entry_mask = ((int64_t)1 << log_entries) - 1;
    const int64_t tag_mask = ((int64_t)1 << tag_bits) - 1;
    const int64_t tag1_bits = tag_bits > 1 ? tag_bits - 1 : 1;
    for (int64_t i = 0; i < n_tables; i++) {
        const int64_t h = histories[i];
        const int64_t shift = log_entries - i % 4;
        int64_t *idx = idx_mat + i * n;
        int64_t *tag = tag_mat + i * n;
        Fold f_idx, f_tag0, f_tag1;
        fold_init(&f_idx, h, log_entries);
        fold_init(&f_tag0, h, tag_bits);
        fold_init(&f_tag1, h, tag1_bits);
        for (int64_t t = 0; t < n; t++) {
            const int64_t pc2 = pcs[t] >> 2;
            idx[t] = (pc2 ^ (pc2 >> shift) ^ f_idx.comp) & entry_mask;
            tag[t] = (pc2 ^ f_tag0.comp ^ (f_tag1.comp << 1)) & tag_mask;
            fold_step(&f_idx, taken, t, h);
            fold_step(&f_tag0, taken, t, h);
            fold_step(&f_tag1, taken, t, h);
        }
        finals[3 * i] = f_idx.comp;
        finals[3 * i + 1] = f_tag0.comp;
        finals[3 * i + 2] = f_tag1.comp;
    }
}

/* Statistical-corrector index rows (corrector.py                        */
/* StatisticalCorrector._indices) from a running 32-bit history that     */
/* starts at zero; ghr_out[0] is that history after the stream.          */
void sc_columns(
    int64_t n, int64_t n_sc,
    const int64_t *lengths,   /* [n_sc] history length per table, >= 0   */
    int64_t log_entries,
    const int64_t *pcs,       /* [n] branch PCs                          */
    const uint8_t *taken,     /* [n]                                     */
    int64_t *idx_mat,         /* [n_sc][n] out                           */
    int64_t *ghr_out)         /* [1] out                                 */
{
    const int64_t mask = ((int64_t)1 << log_entries) - 1;
    int64_t ghr = 0;
    for (int64_t t = 0; t < n; t++) {
        const int64_t pc2 = pcs[t] >> 2;
        for (int64_t k = 0; k < n_sc; k++) {
            /* A window of 32 or more bits keeps the whole history. */
            const int64_t hist = lengths[k] < 32
                ? ghr & (((int64_t)1 << lengths[k]) - 1) : ghr;
            const int64_t folded = hist ^ (hist >> log_entries);
            idx_mat[k * n + t] = (pc2 ^ folded ^ (folded << 3)) & mask;
        }
        ghr = ((ghr << 1) | taken[t]) & 0xFFFFFFFF;
    }
    ghr_out[0] = ghr;
}

/* ------------------------------------------------------------------ */
/* Perceptron (perceptron.py): per-branch dot product over the rolling  */
/* +/-1 outcome window, trained on mispredict or weak-margin.           */
/* ------------------------------------------------------------------ */

void replay_perceptron(
    int64_t n, int64_t hl, int64_t theta,
    const int64_t *idx,      /* [n] perceptron row per branch            */
    const uint8_t *taken,    /* [n]                                      */
    const uint8_t *hinted,   /* [n]                                      */
    const uint8_t *hint_ok,  /* [n] hint prediction correct (where hinted) */
    int64_t *weights,        /* [rows][hl+1], row-major                  */
    int64_t *recent,         /* [hl] in/out: +/-1 outcomes, newest first */
    uint8_t *correct)        /* [n] out                                  */
{
    const int64_t stride = hl + 1;
    for (int64_t j = 0; j < n; j++) {
        int64_t *w = weights + idx[j] * stride;
        int64_t total = w[0];
        for (int64_t i = 0; i < hl; i++) {
            int64_t bit = recent[i];
            if (bit > 0) total += w[i + 1];
            else if (bit < 0) total -= w[i + 1];
        }
        const int tk = taken[j];
        const int pred = total >= 0;
        correct[j] = hinted[j] ? hint_ok[j] : (uint8_t)(pred == tk);

        const int64_t target = tk ? 1 : -1;
        const int64_t abs_total = total >= 0 ? total : -total;
        if (pred != tk || abs_total <= theta) {
            int64_t nw = w[0] + target;
            if (nw > 127) nw = 127; else if (nw < -128) nw = -128;
            w[0] = nw;
            for (int64_t i = 0; i < hl; i++) {
                int64_t bit = recent[i];
                if (bit != 0) {
                    nw = w[i + 1] + (bit == target ? 1 : -1);
                    if (nw > 127) nw = 127; else if (nw < -128) nw = -128;
                    w[i + 1] = nw;
                }
            }
        }
        for (int64_t i = hl - 1; i > 0; i--) recent[i] = recent[i - 1];
        if (hl > 0) recent[0] = target;
    }
}

/* ------------------------------------------------------------------ */
/* Fully-associative LRU table over dense keys 0..n_keys-1, the         */
/* OrderedDict of the hint buffer (core/hint_buffer.py) and of the loop */
/* predictor (loop.py): a present flag per key and a doubly-linked      */
/* recency list through the keys (-1 = end; head = least recent).       */
/* lru_touch is move_to_end, lru_insert a new entry (evicting the head  */
/* first when full, as popitem(last=False)) and lru_remove del.  Each   */
/* key also owns n_cols int64 values, col[c * n_keys + key].            */
/* ------------------------------------------------------------------ */

typedef struct {
    uint8_t *present;
    int64_t *prev, *next, *col;
    int64_t head, tail, size, cap;
} Lru;

/* An empty table of `cap` (>= 1) entries; 1 on allocation failure.     */
static int lru_init(Lru *T, int64_t n_keys, int64_t cap, int64_t n_cols)
{
    T->present = (uint8_t *)calloc((size_t)n_keys + 1, 1);
    T->prev = (int64_t *)malloc((size_t)(n_keys * (2 + n_cols) + 1) * sizeof(int64_t));
    if (T->present == NULL || T->prev == NULL) {
        free(T->present);
        free(T->prev);
        return 1;
    }
    T->next = T->prev + n_keys;
    T->col = T->next + n_keys;
    T->head = T->tail = -1;
    T->size = 0;
    T->cap = cap;
    return 0;
}

static void lru_free(Lru *T)
{
    free(T->present);
    free(T->prev);
}

static void lru_unlink(Lru *T, int64_t key)
{
    const int64_t p = T->prev[key], q = T->next[key];
    if (p >= 0) T->next[p] = q; else T->head = q;
    if (q >= 0) T->prev[q] = p; else T->tail = p;
}

static void lru_append(Lru *T, int64_t key)
{
    T->prev[key] = T->tail;
    T->next[key] = -1;
    if (T->tail >= 0) T->next[T->tail] = key; else T->head = key;
    T->tail = key;
}

static void lru_touch(Lru *T, int64_t key)
{
    lru_unlink(T, key);
    lru_append(T, key);
}

static void lru_remove(Lru *T, int64_t key)
{
    lru_unlink(T, key);
    T->present[key] = 0;
    T->size--;
}

/* Insert an absent key; returns 1 when that evicted the head.          */
static int lru_insert(Lru *T, int64_t key)
{
    const int evicted = T->size >= T->cap;
    if (evicted) lru_remove(T, T->head);
    T->present[key] = 1;
    T->size++;
    lru_append(T, key);
    return evicted;
}

/* ------------------------------------------------------------------ */
/* TAGE core, optionally composed with the statistical corrector and    */
/* loop predictor (TAGE-SC-L) when has_sc != 0.  Mirrors tage.py's      */
/* predict_full/update and the tage_sc_l.py composition statement for  */
/* statement, probing tags live at every branch.  The loop predictor's  */
/* table is the dense-key LRU table keyed by each branch's block (a     */
/* block ends in exactly one branch), starting empty; loop_rows gets    */
/* its entries after the walk as (key, trip, count, conf) rows, least   */
/* recent first.  Returns their number (0 without the corrector), or -1 */
/* on allocation failure.                                               */
/* ------------------------------------------------------------------ */

int64_t replay_tage(
    int64_t n, int64_t n_tables, int64_t n_entries, int64_t n_bimodal,
    const int64_t *idx_mat,   /* [n_tables][n] per-table entry indices   */
    const int64_t *tag_mat,   /* [n_tables][n] per-table computed tags   */
    const int64_t *bim_idx,   /* [n] bimodal indices                     */
    const uint8_t *taken,
    const uint8_t *hinted,
    const uint8_t *hint_ok,
    int64_t allocate_hinted,
    int64_t *ctrs,            /* [n_tables][n_entries] 3-bit counters    */
    int64_t *tags,            /* [n_tables][n_entries] stored tags       */
    int64_t *us,              /* [n_tables][n_entries] useful counters   */
    int64_t *bimodal,         /* [n_bimodal] 2-bit counters              */
    int64_t *scalars,         /* [use_alt_on_na, tick, rand] in/out      */
    int64_t has_sc,
    int64_t n_sc, int64_t sc_entries,
    const int64_t *sc_idx_mat,/* [n_sc][n] corrector indices             */
    int64_t *sc_tables,       /* [n_sc][sc_entries] 6-bit counters       */
    int64_t sc_weight, int64_t sc_threshold,
    const int32_t *keys,      /* [n] block of each branch (loop keys)    */
    int64_t n_keys, int64_t loop_cap,
    int64_t *loop_rows,       /* [loop_cap][4] out                       */
    uint8_t *correct)         /* [n] out                                 */
{
    (void)n_bimodal;
    int64_t use_alt = scalars[0];
    int64_t tick = scalars[1];
    int64_t rnd = scalars[2];

    Lru L;
    int64_t *lp_trip = NULL, *lp_count = NULL, *lp_conf = NULL;
    if (has_sc) {
        if (lru_init(&L, n_keys, loop_cap, 3) != 0) return -1;
        lp_trip = L.col;
        lp_count = lp_trip + n_keys;
        lp_conf = lp_count + n_keys;
    }

    for (int64_t j = 0; j < n; j++) {
        const int tk = taken[j];
        const int hj = hinted[j];
        const int allocate = hj ? (int)allocate_hinted : 1;

        /* ---- TAGE predict ---------------------------------------- */
        int64_t provider = -1, alt = -1;
        for (int64_t i = n_tables - 1; i >= 0; i--) {
            const int64_t e = idx_mat[i * n + j];
            if (tags[i * n_entries + e] == tag_mat[i * n + j]) {
                if (provider < 0) provider = i;
                else { alt = i; break; }
            }
        }

        const int64_t b_idx = bim_idx[j];
        const int64_t b_ctr = bimodal[b_idx];
        const int bim_pred = b_ctr >= 0;
        int pred, provider_pred, alt_pred, used_alt;
        int64_t conf, p_idx = 0, p_ctr = 0;
        if (provider < 0) {
            pred = provider_pred = alt_pred = bim_pred;
            used_alt = 0;
            conf = 2 * b_ctr + 1;
        } else {
            p_idx = idx_mat[provider * n + j];
            p_ctr = ctrs[provider * n_entries + p_idx];
            provider_pred = p_ctr >= 0;
            alt_pred = (alt >= 0)
                ? (ctrs[alt * n_entries + idx_mat[alt * n + j]] >= 0)
                : bim_pred;
            used_alt = (p_ctr == -1 || p_ctr == 0)
                && us[provider * n_entries + p_idx] == 0
                && use_alt >= 8;
            pred = used_alt ? alt_pred : provider_pred;
            conf = 2 * p_ctr + 1;
        }
        const int mispredicted = pred != tk;

        /* ---- TAGE update ------------------------------------------ */
        if (provider >= 0) {
            const int64_t ctr = p_ctr;
            if (tk) {
                if (ctr < 3) ctrs[provider * n_entries + p_idx] = ctr + 1;
            } else if (ctr > -4) {
                ctrs[provider * n_entries + p_idx] = ctr - 1;
            }

            if (provider_pred != alt_pred) {
                int64_t *up = &us[provider * n_entries + p_idx];
                if (provider_pred == tk) { if (*up < 3) (*up)++; }
                else if (*up > 0) (*up)--;
            }

            if ((ctr == -1 || ctr == 0)
                && us[provider * n_entries + p_idx] == 0
                && provider_pred != alt_pred) {
                if (provider_pred == tk) { if (use_alt > 0) use_alt--; }
                else if (use_alt < 15) use_alt++;
            }

            if (alt < 0 && used_alt) {
                if (tk) { if (b_ctr < 1) bimodal[b_idx] = b_ctr + 1; }
                else if (b_ctr > -2) bimodal[b_idx] = b_ctr - 1;
            }
        } else {
            if (tk) { if (b_ctr < 1) bimodal[b_idx] = b_ctr + 1; }
            else if (b_ctr > -2) bimodal[b_idx] = b_ctr - 1;
        }

        if (mispredicted && allocate && provider < n_tables - 1) {
            int64_t free0 = -1, free1 = -1, n_free_t = 0;
            for (int64_t i = provider + 1; i < n_tables; i++) {
                if (us[i * n_entries + idx_mat[i * n + j]] == 0) {
                    if (free0 < 0) free0 = i;
                    else if (free1 < 0) free1 = i;
                    n_free_t++;
                }
            }
            if (free0 < 0) {
                for (int64_t i = provider + 1; i < n_tables; i++) {
                    int64_t *up = &us[i * n_entries + idx_mat[i * n + j]];
                    if (*up > 0) (*up)--;
                }
            } else {
                int64_t choice = free0;
                if (n_free_t > 1) {
                    rnd = (rnd * 1103515245 + 12345) & 0x7FFFFFFF;
                    if (((rnd >> 16) & 3) == 0) choice = free1;
                }
                const int64_t c_idx = idx_mat[choice * n + j];
                tags[choice * n_entries + c_idx] = tag_mat[choice * n + j];
                ctrs[choice * n_entries + c_idx] = tk ? 0 : -1;
                us[choice * n_entries + c_idx] = 0;
            }
        }

        tick++;
        if (tick >= (1 << 18)) {
            tick = 0;
            const int64_t total_us = n_tables * n_entries;
            for (int64_t i = 0; i < total_us; i++)
                if (us[i]) us[i] >>= 1;
        }

        /* ---- SC-L composition ------------------------------------- */
        if (has_sc) {
            const int64_t key = keys[j];
            const int hit = L.present[key];
            int loop_valid = 0, loop_pred = 0;
            if (hit && lp_conf[key] >= 3 && lp_trip[key] >= 1) {
                loop_valid = 1;
                loop_pred = lp_count[key] + 1 <= lp_trip[key];
            }

            const int64_t abs_conf = conf >= 0 ? conf : -conf;
            int64_t total = sc_weight * (pred ? abs_conf : -abs_conf);
            for (int64_t k = 0; k < n_sc; k++)
                total += 2 * sc_tables[k * sc_entries + sc_idx_mat[k * n + j]] + 1;
            const int sc_pred = total >= 0;

            const int final_pred =
                loop_valid ? loop_pred : (abs_conf >= 5 ? pred : sc_pred);
            correct[j] = hj ? hint_ok[j] : (uint8_t)(final_pred == tk);

            /* Loop update. */
            if (!hit) {
                if (mispredicted && allocate) {
                    lru_insert(&L, key);
                    lp_trip[key] = -1;
                    lp_count[key] = 0;
                    lp_conf[key] = 0;
                }
            } else {
                lru_touch(&L, key);
                if (tk) {
                    if (++lp_count[key] > 4096) lru_remove(&L, key);
                } else {
                    if (lp_trip[key] == lp_count[key] && lp_trip[key] > 0) {
                        if (lp_conf[key] < 7) lp_conf[key]++;
                    } else {
                        lp_trip[key] = lp_count[key];
                        lp_conf[key] = 0;
                    }
                    lp_count[key] = 0;
                }
            }

            /* SC update. */
            const int64_t abs_total = total >= 0 ? total : -total;
            if (sc_pred != tk || abs_total <= sc_threshold) {
                for (int64_t k = 0; k < n_sc; k++) {
                    int64_t *cp =
                        &sc_tables[k * sc_entries + sc_idx_mat[k * n + j]];
                    if (tk) { if (*cp < 31) (*cp)++; }
                    else if (*cp > -32) (*cp)--;
                }
            }
        } else {
            correct[j] = hj ? hint_ok[j] : (uint8_t)(pred == tk);
        }
    }

    scalars[0] = use_alt;
    scalars[1] = tick;
    scalars[2] = rnd;

    int64_t m = 0;
    if (has_sc) {
        for (int64_t key = L.head; key >= 0; key = L.next[key], m++) {
            int64_t *row = loop_rows + 4 * m;
            row[0] = key;
            row[1] = lp_trip[key];
            row[2] = lp_count[key];
            row[3] = lp_conf[key];
        }
        lru_free(&L);
    }
    return m;
}

/* ------------------------------------------------------------------ */
/* Set-associative LRU walk (sim/caches.py): SetAssociativeCache.access */
/* over a whole key stream of line addresses or BTB keys (pc >> 2).     */
/* Each set keeps its ways in recency order, least recent first: a hit  */
/* moves the key to the most recent way; a miss evicts the least recent */
/* way of a full set and appends the key.  native.py keeps n_sets and   */
/* assoc at 1 or more.  Writes hit[j] per key and returns the miss      */
/* count, or -1 on allocation failure.                                  */
/* ------------------------------------------------------------------ */

int64_t lru_walk(
    int64_t n,
    const int64_t *keys,      /* [n] line addresses or BTB keys          */
    int64_t n_sets, int64_t assoc,
    uint8_t *hit)             /* [n] out                                 */
{
    int64_t *ways = (int64_t *)malloc((size_t)(n_sets * assoc) * sizeof(int64_t));
    int64_t *fill = (int64_t *)calloc((size_t)n_sets, sizeof(int64_t));
    if (ways == NULL || fill == NULL) {
        free(ways);
        free(fill);
        return -1;
    }
    int64_t misses = 0;
    for (int64_t j = 0; j < n; j++) {
        const int64_t key = keys[j];
        int64_t set = key % n_sets;
        if (set < 0) set += n_sets;          /* Python's modulo sign */
        int64_t *w = ways + set * assoc;
        const int64_t m = fill[set];
        int64_t i = 0;
        while (i < m && w[i] != key) i++;
        hit[j] = i < m;
        if (i == m) {
            misses++;
            if (m < assoc) {
                w[m] = key;
                fill[set] = m + 1;
                continue;
            }
            i = 0;                           /* evict the least recent */
        }
        for (; i + 1 < m; i++) w[i] = w[i + 1];
        w[m - 1] = key;
    }
    free(ways);
    free(fill);
    return misses;
}

/* ------------------------------------------------------------------ */
/* Hint buffer (core/hint_buffer.py HintBuffer) driven over a trace the */
/* way WhisperRuntime's on_block and predict drive it: each event first */
/* loads its block's hints (a reload of a buffered PC refreshes its     */
/* recency and keeps the entry loaded first; a load into a full buffer  */
/* evicts the least recent entry), then a conditional event probes its  */
/* branch PC (a hit refreshes recency).  The buffer is the LRU table    */
/* above over dense keys 0..n_keys-1 for the branch PCs, and each key's */
/* column holds the load that parked it.  hit[j] is that load for the   */
/* entry the j-th conditional event hit, or -1; counts[] gains loads,   */
/* hits and evictions.  The buffer starts empty; final_key[] lists its  */
/* keys after the walk, least recent first, final_load[] their loads,   */
/* and the return value is their number (-1 on allocation failure).     */
/* ------------------------------------------------------------------ */

int64_t hint_walk(
    int64_t n,
    const int32_t *block_ids, /* [n] executed block per event             */
    const uint8_t *is_cond,   /* [n_blocks] block ends in a conditional   */
    const int64_t *load_first,/* [n_blocks + 1] each block's loads        */
    const int64_t *load_key,  /* [n_loads] key of each load's branch PC   */
    const int64_t *probe_key, /* [n_blocks] key of the block's PC or -1   */
    int64_t n_keys, int64_t capacity,
    int64_t *hit,             /* [conditional events] out                 */
    int64_t *counts,          /* [3] in/out: loads, hits, evictions       */
    int64_t *final_key,       /* [n_keys] out                             */
    int64_t *final_load)      /* [n_keys] out                             */
{
    Lru T;
    if (lru_init(&T, n_keys, capacity, 1) != 0) return -1;
    int64_t *entry = T.col;                /* the load that parked a key */
    int64_t loads = 0, hits = 0, evictions = 0, j = 0;

    for (int64_t i = 0; i < n; i++) {
        const int64_t b = block_ids[i];
        for (int64_t l = load_first[b]; l < load_first[b + 1]; l++) {
            const int64_t k = load_key[l];
            loads++;
            if (T.present[k]) {
                lru_touch(&T, k);
            } else {
                evictions += lru_insert(&T, k);
                entry[k] = l;
            }
        }
        if (is_cond[b]) {
            const int64_t k = probe_key[b];
            if (k >= 0 && T.present[k]) {
                hits++;
                lru_touch(&T, k);
                hit[j] = entry[k];
            } else {
                hit[j] = -1;
            }
            j++;
        }
    }

    int64_t m = 0;
    for (int64_t k = T.head; k >= 0; k = T.next[k], m++) {
        final_key[m] = k;
        final_load[m] = entry[k];
    }
    counts[0] += loads;
    counts[1] += hits;
    counts[2] += evictions;
    lru_free(&T);
    return m;
}

/* ------------------------------------------------------------------ */
/* FDIP stall accounting (sim/simulator.py _timing_scalar) over the     */
/* sparse merge of L1i misses and squashes: before miss k is charged,   */
/* every squash at an earlier event resets the run-ahead anchor to the  */
/* cycle just past it; the miss then hides what the anchored run-ahead  */
/* min(cap, r + (C[event] - C_anchor)) covers of its latency, and a     */
/* stall re-anchors the run-ahead the prefetcher built meanwhile.       */
/* Without fdip every miss stalls for its whole latency.  Writes the    */
/* stall cycles, summed in miss order, and the count of covered misses. */
/* ------------------------------------------------------------------ */

void fdip_merge(
    int64_t n_miss,
    const int64_t *events,    /* [n_miss] event of each L1i miss, sorted  */
    const int64_t *latencies, /* [n_miss] cycles to the level that hit    */
    int64_t n_misp,
    const int64_t *misp,      /* [n_misp] squash events, sorted           */
    const double *prefix,     /* [n_events + 1] exclusive cycle prefix    */
    double cap, int64_t fdip,
    double *stalls_out,       /* [1] out                                  */
    int64_t *covered_out)     /* [1] out                                  */
{
    double stalls = 0.0, r_anchor = 0.0, c_anchor = 0.0;
    int64_t covered = 0, pi = 0;
    for (int64_t k = 0; k < n_miss; k++) {
        const double latency = (double)latencies[k];
        double stall = latency;
        if (fdip) {
            const int64_t event = events[k];
            for (; pi < n_misp && misp[pi] < event; pi++) {
                r_anchor = 0.0;
                c_anchor = prefix[misp[pi] + 1];
            }
            const double c_event = prefix[event];
            double runahead = r_anchor + (c_event - c_anchor);
            if (runahead > cap) runahead = cap;
            stall = latency - (runahead < latency ? runahead : latency);
            if (stall <= 0.0) {
                covered++;
            } else {
                /* The prefetcher keeps running ahead while the frontend
                 * is stalled, refilling the FTQ. */
                runahead += stall;
                if (runahead > cap) runahead = cap;
                r_anchor = runahead;
                c_anchor = c_event;
            }
        }
        stalls += stall;
    }
    stalls_out[0] = stalls;
    covered_out[0] = covered;
}

/* ------------------------------------------------------------------ */
/* Formula search's root split (core/search.py _RootSplit) for 8-input  */
/* formulas.  A row of d = nt - t over the 256 hashed histories is       */
/* D[hi][lo]: lo, the low nibble, feeds the left subtree (subformula a,  */
/* output x) and hi the right one (subformula b, output y).  With S[a]   */
/* a subformula's truth table over one nibble, one, x[a], y[b] and       */
/* xy[a][b] are the dot products of d with 1, x, y and x*y, and root op  */
/* r's dot product at (a, b) is its coefficient row coef[r] = (one, x,   */
/* y, xy) applied to them.  mask[h][b] is -S[b][h] (all ones or zero)    */
/* over SPLIT_SUB columns; a space of n_sub < SPLIT_SUB subformulas pads */
/* the columns with copies of subformula 0, which repeat existing dot    */
/* products and so leave every extreme as it is, while a runs over the   */
/* n_sub real ones.  Every loop over b or a nibble has a fixed extent,   */
/* so the compiler vectorizes it.  native.py keeps n_sub within          */
/* 1..SPLIT_SUB, every |d| at most 2**52, each row's sample totals at    */
/* most 2**60 in size and each coefficient row to the forms of the four  */
/* ops (xy = +-1, x = 0 or -xy, one and y within -1..1), so no sum below */
/* overflows an int64.                                                   */
/* ------------------------------------------------------------------ */

#define SPLIT_W 16             /* values of one history nibble */
#define SPLIT_SUB 64           /* subformulas of a nibble, padded */

/* min and max without a branch, which the vectorizer takes; exact      */
/* while a - b stays inside an int64.                                   */
static inline int64_t lesser(int64_t a, int64_t b)
{
    const int64_t diff = a - b;
    return b + (diff & -(int64_t)((uint64_t)diff >> 63));
}

static inline int64_t greater(int64_t a, int64_t b)
{
    const int64_t diff = a - b;
    return a - (diff & -(int64_t)((uint64_t)diff >> 63));
}

typedef struct {
    int64_t one, x[SPLIT_SUB], y[SPLIT_SUB], xy[SPLIT_SUB][SPLIT_SUB];
} Split;

/* The bilinear terms of one row, xy for a < n_sub.  Column lo adds     */
/* subformula b's dot product with it, p[b], to every xy[a] whose       */
/* subformula a is true at lo; all-zero keys and columns add nothing    */
/* and are skipped.                                                     */
static void split_row(const int64_t *restrict d, int64_t n_sub,
                      const int64_t (*restrict mask)[SPLIT_SUB],
                      Split *restrict s)
{
    int64_t rowsum[SPLIT_W] = {0}, colsum[SPLIT_W] = {0};
    for (int64_t a = 0; a < n_sub; a++)
        for (int b = 0; b < SPLIT_SUB; b++) s->xy[a][b] = 0;
    for (int lo = 0; lo < SPLIT_W; lo++) {
        int64_t p[SPLIT_SUB] = {0};
        int live = 0;
        for (int hi = 0; hi < SPLIT_W; hi++) {
            const int64_t v = d[SPLIT_W * hi + lo];
            if (v == 0) continue;
            live = 1;
            rowsum[hi] += v;
            colsum[lo] += v;
            for (int b = 0; b < SPLIT_SUB; b++) p[b] += mask[hi][b] & v;
        }
        if (!live) continue;
        for (int64_t a = 0; a < n_sub; a++) {
            if (!mask[lo][a]) continue;
            for (int b = 0; b < SPLIT_SUB; b++) s->xy[a][b] += p[b];
        }
    }
    /* x over the left subformulas and y over the right ones: one mask. */
    s->one = 0;
    for (int k = 0; k < SPLIT_SUB; k++) s->x[k] = s->y[k] = 0;
    for (int h = 0; h < SPLIT_W; h++) {
        s->one += rowsum[h];
        for (int k = 0; k < SPLIT_SUB; k++) {
            s->x[k] += mask[h][k] & colsum[h];
            s->y[k] += mask[h][k] & rowsum[h];
        }
    }
}

/* The least and greatest dot product over every root, a and b.  Per    */
/* column b, one sweep over a takes the extremes of xy and of xy - x[a]: */
/* a root with x = 0 reads the first, one with x = -xy the second, and   */
/* xy = -1 swaps and negates them.                                       */
static void split_extremes(const Split *restrict s, int64_t n_sub,
                           int64_t n_roots, const int64_t *restrict coef,
                           int64_t *least, int64_t *most)
{
    int64_t lo_xy[SPLIT_SUB], hi_xy[SPLIT_SUB], lo_xyx[SPLIT_SUB], hi_xyx[SPLIT_SUB];
    for (int b = 0; b < SPLIT_SUB; b++) {
        lo_xy[b] = hi_xy[b] = s->xy[0][b];
        lo_xyx[b] = hi_xyx[b] = s->xy[0][b] - s->x[0];
    }
    for (int64_t a = 1; a < n_sub; a++) {
        const int64_t xa = s->x[a];
        for (int b = 0; b < SPLIT_SUB; b++) {
            const int64_t v = s->xy[a][b], w = v - xa;
            lo_xy[b] = lesser(v, lo_xy[b]);
            hi_xy[b] = greater(v, hi_xy[b]);
            lo_xyx[b] = lesser(w, lo_xyx[b]);
            hi_xyx[b] = greater(w, hi_xyx[b]);
        }
    }
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (int64_t r = 0; r < n_roots; r++) {
        const int64_t *c = coef + 4 * r;
        const int64_t *low = c[1] != 0 ? lo_xyx : lo_xy;
        const int64_t *high = c[1] != 0 ? hi_xyx : hi_xy;
        for (int b = 0; b < SPLIT_SUB; b++) {
            const int64_t base = c[0] * s->one + c[2] * s->y[b];
            const int64_t l = base + (c[3] > 0 ? low[b] : -high[b]);
            const int64_t h = base + (c[3] > 0 ? high[b] : -low[b]);
            if (l < lo) lo = l;
            if (h > hi) hi = h;
        }
    }
    *least = lo;
    *most = hi;
}

/* Each row's least and greatest dot product over the whole op space:   */
/* Algorithm 1's minimum error is sum(t) + least over plain formulas    */
/* and sum(nt) - greatest over inverted ones (FormulaSearch._minima).    */
void split_search(
    int64_t rows,
    const int64_t *d,         /* [rows][256] nt - t                      */
    int64_t n_sub,
    const int64_t *mask,      /* [SPLIT_W][SPLIT_SUB]                    */
    int64_t n_roots,
    const int64_t *coef,      /* [n_roots][4]                            */
    int64_t *out)             /* [rows][2] out: least, greatest          */
{
    const int64_t (*m)[SPLIT_SUB] = (const int64_t (*)[SPLIT_SUB])mask;
    Split s;
    for (int64_t i = 0; i < rows; i++) {
        split_row(d + SPLIT_W * SPLIT_W * i, n_sub, m, &s);
        split_extremes(&s, n_sub, n_roots, coef, out + 2 * i, out + 2 * i + 1);
    }
}

/* Algorithm 1's winner per row (FormulaSearch.best_formulas): the      */
/* least permutation position, over both invert values, of an encoding  */
/* whose error (sum(t) + dot plain, sum(nt) - dot inverted) equals the  */
/* row's minimum.  pos[v][r][a][b] is the position of op (r, a, b) with */
/* invert value v; padded cells, and every inverted cell of a space     */
/* without the inversion stage, hold INT64_MAX, which never wins.       */
void split_winners(
    int64_t rows,
    const int64_t *d,         /* [rows][256] nt - t                      */
    const int64_t *totals,    /* [rows][2] sum(t), sum(nt)               */
    int64_t invert,           /* the space has the inversion stage       */
    int64_t n_sub,
    const int64_t *mask,      /* [SPLIT_W][SPLIT_SUB]                    */
    int64_t n_roots,
    const int64_t *coef,      /* [n_roots][4]                            */
    const int64_t *pos,       /* [2][n_roots][SPLIT_SUB][SPLIT_SUB]      */
    int64_t *out)             /* [rows] out                              */
{
    const int64_t (*m)[SPLIT_SUB] = (const int64_t (*)[SPLIT_SUB])mask;
    const int64_t cells = SPLIT_SUB * SPLIT_SUB;
    Split s;
    for (int64_t i = 0; i < rows; i++) {
        const int64_t tt = totals[2 * i], tnt = totals[2 * i + 1];
        int64_t least, most;
        split_row(d + SPLIT_W * SPLIT_W * i, n_sub, m, &s);
        split_extremes(&s, n_sub, n_roots, coef, &least, &most);
        int64_t best = tt + least;
        if (invert && tnt - most < best) best = tnt - most;
        /* The dot product of a plain and of an inverted winner. */
        const int64_t want_plain = best - tt, want_inverted = tnt - best;
        int64_t first = INT64_MAX;
        for (int64_t r = 0; r < n_roots; r++) {
            const int64_t *c = coef + 4 * r;
            const int64_t *plain = pos + r * cells;
            const int64_t *inverted = pos + (n_roots + r) * cells;
            for (int64_t a = 0; a < n_sub; a++) {
                const int64_t base = c[0] * s.one + c[1] * s.x[a];
                for (int b = 0; b < SPLIT_SUB; b++) {
                    const int64_t dot = base + c[2] * s.y[b] + c[3] * s.xy[a][b];
                    const int64_t cell = SPLIT_SUB * a + b;
                    if (dot == want_plain && plain[cell] < first) first = plain[cell];
                    if (dot == want_inverted && inverted[cell] < first) first = inverted[cell];
                }
            }
        }
        out[i] = first;
    }
}
