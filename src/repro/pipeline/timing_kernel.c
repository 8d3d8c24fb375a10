/* Compiled port of the per-event loop of repro/pipeline/simulator.py.
 *
 * Every function below mirrors the Python method of the same name,
 * statement for statement, so the two produce bit-identical SimStats:
 *
 * - all times and uop counts are IEEE doubles, combined in the same
 *   order as the Python expressions (the loader builds with
 *   -ffp-contract=off and never -ffast-math, so no FMA contraction or
 *   reassociation happens);
 * - PY_MIN / PY_MAX keep the tie rules of builtins.min / max: the first
 *   argument wins unless the second compares strictly smaller / larger;
 * - the in-flight heap is a port of heapq's push/pop, so the scans walk
 *   the branches in the same order as the Python list;
 * - mix_hash runs in uint64, where Python masks to 64 bits.
 *
 * Integer counters are returned as deltas; float fields start from the
 * caller's values and report in `touched` which of them were added to,
 * so the loader can keep untouched fields at their Python type.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define PY_MIN(a, b) ((b) < (a) ? (b) : (a))
#define PY_MAX(a, b) ((b) > (a) ? (b) : (a))

enum { T_WRONG = 1, T_SAVED = 2, T_GATED = 4, T_THROTTLED = 8, T_SQUASH = 16 };

typedef struct {
    int64_t fetch_width, depth, rob_size, resolve_jitter;
    int64_t estimator_latency, gating_threshold, throttle_mode;
    double base_uop_cycles, throttle_factor;
} Config;

typedef struct {
    int64_t correct_path_uops, branches, mispredictions, raw_mispredictions;
    int64_t reversals, reversals_correcting, reversals_breaking;
    int64_t gated_branches, gating_stalls, touched;
    double wrong_path_uops, wrong_path_uops_saved, gated_cycles;
    double throttled_cycles, squash_cycles, total_cycles;
} Stats;

typedef struct {
    double resolve_time, activation_time;
    int counts_gating;
} InFlight;

typedef struct {
    const Config *cfg;
    Stats *stats;
    double fetch_time, retire_time, fetched_uops, retired_uops;
    InFlight *heap;
    int64_t heap_len;
    double *rq_time, *rq_uops;  /* retire queue: (retire_time, uops) */
    int64_t rq_head, rq_tail;
    uint64_t seq;
} Sim;

/* ---- heapq, ordered by resolve_time ---------------------------------- */

static void siftdown(InFlight *heap, int64_t startpos, int64_t pos) {
    InFlight newitem = heap[pos];
    while (pos > startpos) {
        int64_t parentpos = (pos - 1) >> 1;
        if (!(newitem.resolve_time < heap[parentpos].resolve_time)) break;
        heap[pos] = heap[parentpos];
        pos = parentpos;
    }
    heap[pos] = newitem;
}

static void siftup(InFlight *heap, int64_t endpos, int64_t pos) {
    int64_t startpos = pos, childpos = 2 * pos + 1;
    InFlight newitem = heap[pos];
    while (childpos < endpos) {
        int64_t rightpos = childpos + 1;
        if (rightpos < endpos &&
            !(heap[childpos].resolve_time < heap[rightpos].resolve_time))
            childpos = rightpos;
        heap[pos] = heap[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    heap[pos] = newitem;
    siftdown(heap, startpos, pos);
}

/* ---- in-flight branch bookkeeping ------------------------------------ */

static void resolve_until(Sim *s, double t) {
    while (s->heap_len && s->heap[0].resolve_time <= t) {
        InFlight last = s->heap[--s->heap_len];
        if (s->heap_len) {
            s->heap[0] = last;
            siftup(s->heap, s->heap_len, 0);
        }
    }
}

static int64_t active_lc_count(const Sim *s, double t) {
    int64_t count = 0;
    for (int64_t i = 0; i < s->heap_len; i++)
        count += s->heap[i].counts_gating && s->heap[i].activation_time <= t;
    return count;
}

static double earliest_lc_resolve(const Sim *s, double t) {
    int found = 0;
    double best = INFINITY;
    for (int64_t i = 0; i < s->heap_len; i++) {
        const InFlight *b = &s->heap[i];
        if (b->counts_gating && b->activation_time <= t) {
            if (!found || b->resolve_time < best) best = b->resolve_time;
            found = 1;
        }
    }
    return best;
}

static double next_event_after(const Sim *s, double t) {
    double next_time = INFINITY;
    for (int64_t i = 0; i < s->heap_len; i++) {
        const InFlight *b = &s->heap[i];
        if (b->resolve_time > t) next_time = PY_MIN(next_time, b->resolve_time);
        if (b->counts_gating && b->activation_time > t)
            next_time = PY_MIN(next_time, b->activation_time);
    }
    return next_time;
}

/* ---- window (ROB) occupancy ------------------------------------------ */

static void drain_retired(Sim *s, double t) {
    while (s->rq_head < s->rq_tail && s->rq_time[s->rq_head] <= t)
        s->retired_uops += s->rq_uops[s->rq_head++];
}

static double window_free(Sim *s, double t) {
    drain_retired(s, t);
    return (double)s->cfg->rob_size - (s->fetched_uops - s->retired_uops);
}

static double wait_for_window(Sim *s, double t, double uops) {
    while (window_free(s, t) < uops && s->rq_head < s->rq_tail)
        t = PY_MAX(t, s->rq_time[s->rq_head]);
    return t;
}

/* ---- fetch engine ----------------------------------------------------- */

static double fetch_span(Sim *s, double start, double uop_budget,
                         double deadline, int wrong_path, double *fetched_out) {
    const Config *cfg = s->cfg;
    Stats *stats = s->stats;
    double per_uop = 1.0 / (double)cfg->fetch_width;
    int throttling = cfg->throttle_mode && cfg->throttle_factor > 0;
    double throttled_per_uop = throttling ? per_uop / cfg->throttle_factor : INFINITY;
    double t = start, fetched = 0.0;
    int stalled = 0;
    while (uop_budget > 1e-9 && t < deadline - 1e-9) {
        resolve_until(s, t);
        int gated = active_lc_count(s, t) >= cfg->gating_threshold;
        if (gated && !throttling) {
            double resume = PY_MIN(earliest_lc_resolve(s, t), deadline);
            if (!stalled) {
                stats->gating_stalls += 1;
                stalled = 1;
            }
            if (!wrong_path) {
                stats->gated_cycles += resume - t;
                stats->touched |= T_GATED;
            }
            t = resume;
            continue;
        }
        double step_per_uop = gated ? throttled_per_uop : per_uop;
        stalled = 0;
        if (!wrong_path) {
            double group = PY_MIN(uop_budget, (double)cfg->fetch_width);
            double t_ready = wait_for_window(s, t, group);
            if (t_ready > t) {
                t = PY_MIN(t_ready, deadline);
                continue;
            }
        }
        double horizon = t + uop_budget * step_per_uop;
        double step_end = PY_MIN(horizon, deadline);
        step_end = PY_MIN(step_end, next_event_after(s, t));
        if (step_end <= t) break;
        double span_uops = PY_MIN((step_end - t) / step_per_uop, uop_budget);
        if (!wrong_path) {
            double free = window_free(s, t);
            if (span_uops > free) {
                span_uops = free;
                step_end = t + span_uops * step_per_uop;
            }
            if (span_uops <= 1e-9) {
                if (s->rq_head == s->rq_tail) break;
                t = PY_MIN(PY_MAX(t, s->rq_time[s->rq_head]), deadline);
                continue;
            }
            s->fetched_uops += span_uops;
            if (gated) {
                stats->throttled_cycles += step_end - t;
                stats->touched |= T_THROTTLED;
            }
        }
        fetched += span_uops;
        uop_budget -= span_uops;
        t = step_end;
    }
    *fetched_out = fetched;
    return t;
}

static void wrong_path_episode(Sim *s, double t_fetch, double t_resolve) {
    const Config *cfg = s->cfg;
    double cap = (double)cfg->rob_size, fetched;
    fetch_span(s, t_fetch, cap, t_resolve, 1, &fetched);
    double potential = PY_MIN(cap, (t_resolve - t_fetch) * (double)cfg->fetch_width);
    s->stats->wrong_path_uops += fetched;
    s->stats->wrong_path_uops_saved += PY_MAX(0.0, potential - fetched);
    s->stats->touched |= T_WRONG | T_SAVED;
}

/* ---- per-branch processing ------------------------------------------- */

static uint64_t mix_hash(uint64_t v) {
    v += 0x9E3779B97F4A7C15ULL;
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
    return v ^ (v >> 31);
}

static double resolve_latency(const Sim *s, uint64_t pc) {
    const Config *cfg = s->cfg;
    if (cfg->resolve_jitter == 0) return (double)cfg->depth;
    uint64_t jitter = mix_hash((pc << 17) ^ s->seq) % (uint64_t)(cfg->resolve_jitter + 1);
    return (double)(cfg->depth + (int64_t)jitter);
}

static void retire_group(Sim *s, int64_t uops, double fetch_done, double floor) {
    const Config *cfg = s->cfg;
    double backend = PY_MAX(s->retire_time + (double)uops * cfg->base_uop_cycles,
                            fetch_done + (double)cfg->depth);
    s->retire_time = PY_MAX(backend, floor);
    s->rq_time[s->rq_tail] = s->retire_time;
    s->rq_uops[s->rq_tail++] = (double)uops;
}

static void process(Sim *s, uint64_t pc, int64_t uops_before, int taken,
                    int prediction, int final_prediction, int gate, int reverse) {
    const Config *cfg = s->cfg;
    Stats *stats = s->stats;
    int64_t uops = uops_before + 1;
    double unused;
    s->fetch_time = fetch_span(s, s->fetch_time, (double)uops, INFINITY, 0, &unused);
    stats->correct_path_uops += uops;

    double t_fetch = s->fetch_time;
    double t_resolve = t_fetch + resolve_latency(s, pc);
    s->seq += 1;

    InFlight *b = &s->heap[s->heap_len];
    b->resolve_time = t_resolve;
    b->activation_time = t_fetch + (double)cfg->estimator_latency;
    b->counts_gating = gate;
    siftdown(s->heap, 0, s->heap_len++);

    int predictor_correct = prediction == taken;
    int final_correct = final_prediction == taken;
    stats->branches += 1;
    if (gate) stats->gated_branches += 1;
    if (!predictor_correct) stats->raw_mispredictions += 1;
    if (reverse) {
        stats->reversals += 1;
        if (!predictor_correct && final_correct) stats->reversals_correcting += 1;
        else if (predictor_correct && !final_correct) stats->reversals_breaking += 1;
    }

    if (!final_correct) {
        stats->mispredictions += 1;
        wrong_path_episode(s, t_fetch, t_resolve);
        stats->squash_cycles += t_resolve - s->fetch_time;
        stats->touched |= T_SQUASH;
        s->fetch_time = t_resolve;
        retire_group(s, uops, t_fetch, t_resolve);
    } else {
        retire_group(s, uops, t_fetch, 0.0);
    }
}

/* Replay n events; returns 0, or -1 when scratch memory is unavailable
 * (then `stats` is untouched).  One call is one PipelineSimulator.simulate. */
int repro_timing_simulate(const Config *cfg, int64_t n, const uint64_t *pc,
                          const int32_t *uops_before, const uint8_t *taken,
                          const uint8_t *prediction, const uint8_t *final_prediction,
                          const uint8_t *gate, const uint8_t *reverse, Stats *stats) {
    size_t slots = n > 0 ? (size_t)n : 1;
    Sim s = {cfg, stats, 0.0, 0.0, 0.0, 0.0, NULL, 0, NULL, NULL, 0, 0, 0};
    s.heap = malloc(slots * sizeof(InFlight));
    s.rq_time = malloc(slots * sizeof(double));
    s.rq_uops = malloc(slots * sizeof(double));
    int status = -1;
    if (s.heap && s.rq_time && s.rq_uops) {
        for (int64_t i = 0; i < n; i++)
            process(&s, pc[i], uops_before[i], taken[i], prediction[i],
                    final_prediction[i], gate[i], reverse[i]);
        stats->total_cycles = s.retire_time;
        status = 0;
    }
    free(s.heap);
    free(s.rq_time);
    free(s.rq_uops);
    return status;
}
