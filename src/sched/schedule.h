#ifndef DFIM_SCHED_SCHEDULE_H_
#define DFIM_SCHED_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "dataflow/dag.h"
#include "sched/timeline.h"

namespace dfim {

/// \brief Read-only view of a schedule's assignments: container by
/// container, each in timeline order. Entries are materialized on
/// dereference; the view owns nothing.
class AssignmentView {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Assignment;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Assignment;

    Iterator() = default;
    Iterator(const std::vector<Timeline>* tls, size_t c) : tls_(tls), c_(c) {
      SkipEmpty();
    }
    Assignment operator*() const {
      return (*tls_)[c_].At(i_, static_cast<int>(c_));
    }
    Iterator& operator++() {
      ++i_;
      SkipEmpty();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& o) const {
      return c_ == o.c_ && i_ == o.i_;
    }

   private:
    void SkipEmpty() {
      while (c_ < tls_->size() && i_ >= (*tls_)[c_].size()) {
        ++c_;
        i_ = 0;
      }
    }
    const std::vector<Timeline>* tls_ = nullptr;
    size_t c_ = 0;
    size_t i_ = 0;
  };

  explicit AssignmentView(const std::vector<Timeline>* tls) : tls_(tls) {}
  Iterator begin() const { return Iterator(tls_, 0); }
  Iterator end() const { return Iterator(tls_, tls_->size()); }
  size_t size() const;

 private:
  const std::vector<Timeline>* tls_;
};

/// \brief An execution schedule Sd: operators placed on containers, with
/// derived time/money/fragmentation metrics (paper §3).
///
/// Stored as one Timeline per container (index = container id), the
/// representation the schedulers build, the interleaver packs and the
/// execution simulator replays — a schedule is never converted to another
/// layout. Time is relative to the schedule start (t = 0). Containers are
/// leased from t = 0 through the quantum covering their last assignment.
class Schedule {
 public:
  Schedule() = default;

  /// Adopts per-container timelines; trailing empty ones are dropped, so
  /// num_containers() is always the highest used index + 1.
  explicit Schedule(std::vector<Timeline> timelines);

  /// Inserts `a` into its container's timeline (Timeline::Insert order:
  /// before any equal start). An assignment on a negative container is not
  /// stored; the first one is kept as rejected() so consumers can refuse
  /// the schedule.
  void Add(const Assignment& a);

  const std::vector<Timeline>& timelines() const { return timelines_; }
  /// The view borrows this schedule's timelines, so a temporary schedule
  /// has none.
  AssignmentView assignments() const& { return AssignmentView(&timelines_); }
  AssignmentView assignments() const&& = delete;
  bool empty() const { return size() == 0; }
  size_t size() const { return assignments().size(); }

  /// The first assignment Add refused (negative container), if any.
  const std::optional<Assignment>& rejected() const { return rejected_; }

  /// Number of containers used (highest index + 1). Containers below it
  /// that hold no assignment still count (and are still leased).
  int num_containers() const { return static_cast<int>(timelines_.size()); }

  /// Latest assignment end on `container` (0 when it holds none).
  Seconds last_end(int container) const;

  /// Completion time of the last *mandatory* operator — index builds in the
  /// paid tail do not delay the dataflow (Fig. 2c).
  Seconds makespan() const;

  /// Completion time including optional operators.
  Seconds TotalSpan() const;

  /// Leased quanta summed over containers: each container is charged
  /// ceil(last assignment end / quantum) quanta, at least one (paper §3:
  /// md(Sd) is "the sum of the total time quanta of the VMs leased").
  int64_t LeasedQuanta(Seconds quantum) const;

  /// The fragmentation of the schedule: all idle slots in leased quanta,
  /// split at quantum boundaries, ordered by (container, start), from each
  /// container's Timeline::AppendIdleSlots — the interleaver and the
  /// schedulers share one gap semantics.
  std::vector<IdleSlot> FindIdleSlots(Seconds quantum) const;

  /// Total idle seconds across FindIdleSlots.
  Seconds TotalIdle(Seconds quantum) const;

  /// OK when no two assignments on the same container overlap in time and
  /// all durations are non-negative.
  bool CheckNoOverlap() const;

  /// Renders an ASCII Gantt chart (one row per container), `cols` wide.
  /// Dataflow ops print '#', build ops '+', idle '.' (Fig. 9 style).
  std::string ToAscii(Seconds quantum, int cols = 100) const;

 private:
  std::vector<Timeline> timelines_;
  std::optional<Assignment> rejected_;
};

}  // namespace dfim

#endif  // DFIM_SCHED_SCHEDULE_H_
