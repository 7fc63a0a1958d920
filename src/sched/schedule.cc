#include "sched/schedule.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dfim {

size_t AssignmentView::size() const {
  size_t n = 0;
  for (const Timeline& tl : *tls_) n += tl.size();
  return n;
}

Schedule::Schedule(std::vector<Timeline> timelines)
    : timelines_(std::move(timelines)) {
  while (!timelines_.empty() && timelines_.back().empty()) {
    timelines_.pop_back();
  }
}

void Schedule::Add(const Assignment& a) {
  if (a.container < 0) {
    if (!rejected_.has_value()) rejected_ = a;
    return;
  }
  auto c = static_cast<size_t>(a.container);
  if (c >= timelines_.size()) timelines_.resize(c + 1);
  timelines_[c].Insert(a);
}

Seconds Schedule::last_end(int container) const {
  return container >= 0 && container < num_containers()
             ? timelines_[static_cast<size_t>(container)].last_end()
             : 0;
}

Seconds Schedule::makespan() const {
  Seconds end = 0;
  for (const Timeline& tl : timelines_) {
    for (size_t i = 0; i < tl.size(); ++i) {
      if (!tl.optional(i)) end = std::max(end, tl.end(i));
    }
  }
  return end;
}

Seconds Schedule::TotalSpan() const {
  Seconds end = 0;
  for (const Timeline& tl : timelines_) end = std::max(end, tl.last_end());
  return end;
}

int64_t Schedule::LeasedQuanta(Seconds quantum) const {
  int64_t total = 0;
  for (const Timeline& tl : timelines_) {
    // A used container is charged at least one quantum — and so is an
    // empty one below the highest used index.
    total += std::max<int64_t>(1, QuantaCeil(tl.last_end(), quantum));
  }
  return total;
}

std::vector<IdleSlot> Schedule::FindIdleSlots(Seconds quantum) const {
  std::vector<IdleSlot> slots;
  for (size_t c = 0; c < timelines_.size(); ++c) {
    timelines_[c].AppendIdleSlots(static_cast<int>(c), quantum, &slots);
  }
  return slots;
}

Seconds Schedule::TotalIdle(Seconds quantum) const {
  Seconds total = 0;
  for (const auto& s : FindIdleSlots(quantum)) total += s.size();
  return total;
}

bool Schedule::CheckNoOverlap() const {
  for (const Timeline& tl : timelines_) {
    if (!tl.NoOverlap()) return false;
  }
  return true;
}

std::string Schedule::ToAscii(Seconds quantum, int cols) const {
  // Round the horizon up to a whole quantum for readability.
  const int64_t quanta = std::max<int64_t>(1, QuantaCeil(TotalSpan(), quantum));
  Seconds span = static_cast<double>(quanta) * quantum;
  std::string out;
  double per_col = span / cols;
  for (int c = 0; c < num_containers(); ++c) {
    const Timeline& tl = timelines_[static_cast<size_t>(c)];
    std::string row(static_cast<size_t>(cols), '.');
    for (size_t i = 0; i < tl.size(); ++i) {
      auto lo = static_cast<int>(tl.start(i) / per_col);
      auto hi = static_cast<int>(std::ceil(tl.end(i) / per_col));
      for (int x = lo; x < hi && x < cols; ++x) {
        row[static_cast<size_t>(x)] = tl.optional(i) ? '+' : '#';
      }
    }
    out += "c";
    out += std::to_string(c);
    out += (c < 10 ? "  |" : " |");
    out += row;
    out += "|\n";
  }
  // Quantum ruler.
  std::string ruler(static_cast<size_t>(cols), ' ');
  for (Seconds q = quantum; q < span + 1e-9; q += quantum) {
    auto x = static_cast<size_t>(q / per_col);
    if (x > 0 && x <= static_cast<size_t>(cols)) ruler[x - 1] = '|';
  }
  out += "     " + ruler + "\n";
  return out;
}

}  // namespace dfim
