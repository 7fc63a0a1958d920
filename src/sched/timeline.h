#ifndef DFIM_SCHED_TIMELINE_H_
#define DFIM_SCHED_TIMELINE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/units.h"

#if defined(DFIM_NATIVE) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dfim {

/// \brief One operator placed on a container for an estimated time window.
struct Assignment {
  int op_id = 0;
  int container = 0;
  Seconds start = 0;
  Seconds end = 0;
  /// Mirrors Operator::optional (build-index ops).
  bool optional = false;

  Seconds duration() const { return end - start; }
  bool operator==(const Assignment&) const = default;
};

/// \brief An idle slot f(id, q, c, S): a maximal operator-free interval
/// inside one leased quantum of one container (paper §3).
struct IdleSlot {
  int container = 0;
  /// Zero-based quantum index within the schedule.
  int64_t quantum_index = 0;
  Seconds start = 0;
  Seconds end = 0;

  Seconds size() const { return end - start; }
};

/// \brief One container's timeline: the sorted assignment sequence stored as
/// flat structure-of-arrays columns (starts / ends / op ids / flags), plus
/// incrementally maintained lease summaries.
///
/// This is the single source of truth for gap semantics: the skyline
/// schedulers probe and commit placements on it, the interleaver enumerates
/// its idle slots, and the execution simulator settles busy/lease accounting
/// from it — so scheduling, interleaving and simulation can never disagree
/// about where a gap starts or how a lease tail is charged.
///
/// Layout & invariants:
///  - Entries are sorted by start; Insert places a new entry *before* any
///    existing equal start (lower-bound position), matching the scheduler's
///    historical InsertSorted semantics.
///  - `last_end()` is the running max over entry ends (the lease high-water
///    mark), maintained O(1) per insert; `Quanta()` derives from it in O(1).
///  - `interior gap` semantics use a running max cursor over ends, so the
///    walks are well defined even for overlapping entries; for the
///    non-overlapping timelines the schedulers produce, the cursor equals
///    the previous entry's end.
///  - All scans are branch-light loops over the flat start/end columns
///    (auto-vectorizer friendly); with DFIM_NATIVE an explicit SIMD kernel
///    is used. Both paths are bit-identical to the retained scalar reference
///    walks (selection-only float ops: max/compare/subtract of identical
///    operands), which tests/test_timeline.cc asserts per seeded timeline.
class Timeline {
 public:
  Timeline() = default;

  bool empty() const { return starts_.empty(); }
  size_t size() const { return starts_.size(); }
  void clear();
  void reserve(size_t n);

  Seconds start(size_t i) const { return starts_[i]; }
  Seconds end(size_t i) const { return ends_[i]; }
  int op_id(size_t i) const { return op_ids_[i]; }
  bool optional(size_t i) const { return optional_[i] != 0; }
  /// Materializes entry `i` as an Assignment on `container` (the timeline
  /// itself is container-agnostic; the owner supplies the index).
  Assignment At(size_t i, int container) const;

  /// Latest assignment end (0 for an empty timeline) — the lease
  /// high-water mark, maintained incrementally.
  Seconds last_end() const { return last_end_; }

  /// Inserts keeping the timeline sorted by start (before equal starts).
  /// Updates the lease/gap summaries; the interior-gap refresh is one flat
  /// rescan, the same O(n) the positional insert already pays.
  void Insert(const Assignment& a);

  /// \brief Earliest feasible start >= `est` of a `duration`-long interval
  /// on the timeline (gap insertion). Returns the start time.
  Seconds FindSlot(Seconds est, Seconds duration) const;

  /// \brief FindSlot restricted to already-paid time: the interval must also
  /// end by `bound` (e.g. the container's charged lease end). Returns
  /// nullopt when no such slot exists. Because FirstFit yields the earliest
  /// feasible candidate and candidates are non-decreasing across later
  /// gaps, one bound check on the first fit decides feasibility exactly.
  /// This is how speculation keeps clones marginal-cost-zero (DESIGN.md §9).
  std::optional<Seconds> FindSlotBounded(Seconds est, Seconds duration,
                                         Seconds bound) const;

  /// Leased quanta: 0 when empty, else at least 1. O(1) from last_end().
  int64_t Quanta(Seconds quantum) const;

  /// Largest idle gap, including the paid lease tail (0 when empty). O(1)
  /// from the maintained interior-gap summary.
  Seconds MaxGap(Seconds quantum) const;

  /// MaxGap with `a` virtually inserted at its sorted position —
  /// bit-identical to Insert + MaxGap, without touching the timeline.
  Seconds MaxGapWithInsert(const Assignment& a, Seconds quantum) const;

  /// \brief Appends this container's idle slots — maximal operator-free
  /// intervals inside leased quanta, split at quantum boundaries — to
  /// `out`, ordered by start (paper §3 fragmentation).
  ///
  /// This is the shared gap walk: Schedule::FindIdleSlots (and through it
  /// the LP interleaver's knapsack packing) delegates here.
  void AppendIdleSlots(int container, Seconds quantum,
                       std::vector<IdleSlot>* out) const;

  /// Total busy seconds (sum of entry durations, in timeline order).
  Seconds BusySeconds() const;

  /// True when no two entries overlap and all durations are non-negative.
  bool NoOverlap() const;

  /// Raw columns (microbenches / tests).
  const std::vector<Seconds>& starts() const { return starts_; }
  const std::vector<Seconds>& ends() const { return ends_; }

 private:
  /// First index whose start is >= `s` (the Insert position).
  size_t LowerBound(Seconds s) const;

  /// Columnar storage, sorted by start.
  std::vector<Seconds> starts_;
  std::vector<Seconds> ends_;
  std::vector<int32_t> op_ids_;
  std::vector<uint8_t> optional_;
  /// \name Incrementally maintained summaries.
  /// @{
  /// max over entry ends (0 when empty).
  Seconds last_end_ = 0;
  /// max over entries of start[i] - cursor(i), cursor = running max of ends
  /// (0 when empty) — the quantum-independent part of MaxGap.
  Seconds interior_gap_ = 0;
  /// @}
};

namespace timeline_internal {

// The kernels live inline in this header so the scheduler's probe loop and
// the bench harness both inline them — an out-of-line call per probe costs
// more than the scan itself on the short timelines one dataflow produces.

#if defined(DFIM_NATIVE) && defined(__AVX2__)

/// Lane-shift helpers for 4x double vectors. ShiftIn1 moves lanes up by one
/// (lane0 <- fill); ShiftIn2 by two. Used to build prefix-max across lanes.
inline __m256d ShiftIn1(__m256d v, __m256d fill) {
  __m256d s = _mm256_permute4x64_pd(v, _MM_SHUFFLE(2, 1, 0, 0));
  return _mm256_blend_pd(s, fill, 0x1);
}

inline __m256d ShiftIn2(__m256d v, __m256d fill) {
  __m256d s = _mm256_permute4x64_pd(v, _MM_SHUFFLE(1, 0, 0, 0));
  return _mm256_blend_pd(s, fill, 0x3);
}

inline double Lane3(__m256d v) {
  __m128d hi = _mm256_extractf128_pd(v, 1);
  return _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
}

inline double HMax(__m256d v) {
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d m = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(m, m), m));
}

/// Inclusive prefix-max across the 4 lanes of `e` (identity: -inf).
/// Prefix-max is pure selection, so any association yields the same bits.
inline __m256d PrefixMax(__m256d e, __m256d neg_inf) {
  __m256d m1 = _mm256_max_pd(e, ShiftIn1(e, neg_inf));
  return _mm256_max_pd(m1, ShiftIn2(m1, neg_inf));
}

#endif  // DFIM_NATIVE && __AVX2__

/// \brief The core gap-scan kernel over flat columns: for i in [lo, hi),
///   best = max(best, starts[i] - cursor); cursor = max(cursor, ends[i]).
/// `cursor`/`best` are read-modify-write. Branch-light; the DFIM_NATIVE
/// build swaps in an explicit SIMD implementation with bit-identical
/// results (prefix-max is a selection, exact under any association).
inline void GapScan(const Seconds* starts, const Seconds* ends, size_t lo,
                    size_t hi, Seconds* cursor, Seconds* best) {
  Seconds c = *cursor;
  Seconds b = *best;
  size_t i = lo;
#if defined(DFIM_NATIVE) && defined(__AVX2__)
  const __m256d neg_inf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d vbest = _mm256_set1_pd(b);
  for (; i + 4 <= hi; i += 4) {
    __m256d e = _mm256_loadu_pd(ends + i);
    __m256d incl = PrefixMax(e, neg_inf);
    // cursor(i) per lane: max of the carry and the ends before that lane.
    __m256d excl = ShiftIn1(incl, neg_inf);
    __m256d cur = _mm256_max_pd(excl, _mm256_set1_pd(c));
    __m256d gaps = _mm256_sub_pd(_mm256_loadu_pd(starts + i), cur);
    vbest = _mm256_max_pd(vbest, gaps);
    c = std::max(c, Lane3(incl));
  }
  b = HMax(vbest);
#else
  // Scalar path, unrolled 4-wide: the cursor recurrence c = max(c, e) is a
  // serial chain, but pairwise end-maxes are off-chain, so precomputing the
  // block prefix (p01, p012) cuts the carried dependency to one max per 4
  // elements. Selection-only float ops — bit-identical to the plain loop.
  Seconds b0 = b, b1 = b, b2 = b, b3 = b;
  for (; i + 4 <= hi; i += 4) {
    Seconds e0 = ends[i], e1 = ends[i + 1], e2 = ends[i + 2], e3 = ends[i + 3];
    Seconds p01 = std::max(e0, e1);
    Seconds p012 = std::max(p01, e2);
    b0 = std::max(b0, starts[i] - c);
    b1 = std::max(b1, starts[i + 1] - std::max(c, e0));
    b2 = std::max(b2, starts[i + 2] - std::max(c, p01));
    b3 = std::max(b3, starts[i + 3] - std::max(c, p012));
    c = std::max(c, std::max(p012, e3));
  }
  b = std::max(std::max(b0, b1), std::max(b2, b3));
#endif
  for (; i < hi; ++i) {
    b = std::max(b, starts[i] - c);
    c = std::max(c, ends[i]);
  }
  *cursor = c;
  *best = b;
}

/// \brief First index i in [lo, hi) with starts[i] - max(est, cursor(i)) >=
/// duration - 1e-9, where cursor(i) is the running max of ends before i.
/// Returns hi when no entry fits; *cursor is left at cursor(returned index).
inline size_t FirstFit(const Seconds* starts, const Seconds* ends, size_t lo,
                       size_t hi, Seconds est, Seconds duration,
                       Seconds* cursor) {
  Seconds c = *cursor;
  const Seconds thr = duration - 1e-9;
  size_t i = lo;
#if defined(DFIM_NATIVE) && defined(__AVX2__)
  const __m256d neg_inf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m256d vest = _mm256_set1_pd(est);
  const __m256d vthr = _mm256_set1_pd(thr);
  for (; i + 4 <= hi; i += 4) {
    __m256d e = _mm256_loadu_pd(ends + i);
    __m256d incl = PrefixMax(e, neg_inf);
    __m256d excl = ShiftIn1(incl, neg_inf);
    __m256d cur = _mm256_max_pd(excl, _mm256_set1_pd(c));
    __m256d cand = _mm256_max_pd(vest, cur);
    __m256d fit = _mm256_cmp_pd(
        _mm256_sub_pd(_mm256_loadu_pd(starts + i), cand), vthr, _CMP_GE_OQ);
    int mask = _mm256_movemask_pd(fit);
    if (mask != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(mask));
      double lanes[4];
      _mm256_storeu_pd(lanes, cur);
      *cursor = lanes[lane];
      return i + static_cast<size_t>(lane);
    }
    c = std::max(c, Lane3(incl));
  }
#else
  // Scalar path, unrolled 4-wide like GapScan: per-lane cursors come off
  // the block prefix, the four fit tests are branch-free, and a hit falls
  // through to the exact per-lane cursor — identical returns to the plain
  // loop below.
  for (; i + 4 <= hi; i += 4) {
    Seconds e0 = ends[i], e1 = ends[i + 1], e2 = ends[i + 2], e3 = ends[i + 3];
    Seconds p01 = std::max(e0, e1);
    Seconds p012 = std::max(p01, e2);
    Seconds c0 = c;
    Seconds c1 = std::max(c, e0);
    Seconds c2 = std::max(c, p01);
    Seconds c3 = std::max(c, p012);
    bool f0 = starts[i] - std::max(est, c0) >= thr;
    bool f1 = starts[i + 1] - std::max(est, c1) >= thr;
    bool f2 = starts[i + 2] - std::max(est, c2) >= thr;
    bool f3 = starts[i + 3] - std::max(est, c3) >= thr;
    if (f0 | f1 | f2 | f3) {
      if (f0) { *cursor = c0; return i; }
      if (f1) { *cursor = c1; return i + 1; }
      if (f2) { *cursor = c2; return i + 2; }
      *cursor = c3;
      return i + 3;
    }
    c = std::max(c, std::max(p012, e3));
  }
#endif
  for (; i < hi; ++i) {
    Seconds candidate = std::max(est, c);
    if (starts[i] - candidate >= thr) {
      *cursor = c;
      return i;
    }
    c = std::max(c, ends[i]);
  }
  *cursor = c;
  return hi;
}

}  // namespace timeline_internal

inline size_t Timeline::LowerBound(Seconds s) const {
  return static_cast<size_t>(
      std::lower_bound(starts_.begin(), starts_.end(), s) - starts_.begin());
}

inline Seconds Timeline::FindSlot(Seconds est, Seconds duration) const {
  Seconds cursor = 0;
  (void)timeline_internal::FirstFit(starts_.data(), ends_.data(), 0,
                                    starts_.size(), est, duration, &cursor);
  return std::max(est, cursor);
}

inline std::optional<Seconds> Timeline::FindSlotBounded(Seconds est,
                                                        Seconds duration,
                                                        Seconds bound) const {
  Seconds cursor = 0;
  (void)timeline_internal::FirstFit(starts_.data(), ends_.data(), 0,
                                    starts_.size(), est, duration, &cursor);
  Seconds start = std::max(est, cursor);
  if (start + duration <= bound + 1e-9) return start;
  return std::nullopt;
}

inline int64_t Timeline::Quanta(Seconds quantum) const {
  if (empty()) return 0;
  return std::max<int64_t>(1, QuantaCeil(last_end_, quantum));
}

inline Seconds Timeline::MaxGap(Seconds quantum) const {
  if (empty()) return 0;
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(last_end_, quantum))) *
      quantum;
  return std::max(interior_gap_, lease_end - last_end_);
}

inline Seconds Timeline::MaxGapWithInsert(const Assignment& a,
                                          Seconds quantum) const {
  Seconds best = 0;
  Seconds cursor = 0;
#if defined(DFIM_NATIVE) && defined(__AVX2__)
  // Wide build: locate the insert position once, then run the vector gap
  // kernel over both halves — the 4-wide scan amortizes the binary search.
  size_t pos = LowerBound(a.start);
  timeline_internal::GapScan(starts_.data(), ends_.data(), 0, pos, &cursor,
                             &best);
  best = std::max(best, a.start - cursor);
  cursor = std::max(cursor, a.end);
  timeline_internal::GapScan(starts_.data(), ends_.data(), pos, starts_.size(),
                             &cursor, &best);
#else
  // Scalar build: fold the virtual entry into a single fused pass — a
  // separate binary search costs as much as the scan itself on the short
  // timelines one dataflow produces, and its branches don't predict.
  // `ss[i] >= a.start` first fires exactly at the lower-bound position, so
  // this folds the virtual entry where Insert would put it.
  const Seconds* ss = starts_.data();
  const Seconds* es = ends_.data();
  const size_t n = starts_.size();
  bool placed = false;
  for (size_t i = 0; i < n; ++i) {
    if (!placed && ss[i] >= a.start) {
      best = std::max(best, a.start - cursor);
      cursor = std::max(cursor, a.end);
      placed = true;
    }
    best = std::max(best, ss[i] - cursor);
    cursor = std::max(cursor, es[i]);
  }
  if (!placed) {
    best = std::max(best, a.start - cursor);
    cursor = std::max(cursor, a.end);
  }
#endif
  Seconds lease_end =
      static_cast<double>(std::max<int64_t>(1, QuantaCeil(cursor, quantum))) *
      quantum;
  return std::max(best, lease_end - cursor);
}

}  // namespace dfim

#endif  // DFIM_SCHED_TIMELINE_H_
