#ifndef DFIM_CPBENCH_GAP_CLIENT_H_
#define DFIM_CPBENCH_GAP_CLIENT_H_

// Per-dataflow wall time of the service loop, timed from outside.

#include <chrono>
#include <optional>
#include <vector>

#include "core/service.h"
#include "dataflow/workload.h"

namespace cpbench {

/// \brief Decorator that times the gaps between the service's successive
/// `Next` calls.
///
/// In the closed loop one gap is one iteration: decide, simulate, record
/// history, apply deletions. The decorator's own time, including the inner
/// client's, is outside every gap. A gap is split evenly among the history
/// records the service appended during it. A gap that appended none (in
/// the open loop: one that only admitted an arrival, or ran a dataflow that
/// failed) is carried into the next sample, so the samples add up to the
/// loop's wall time from the first `Next` call to the end of `Run`.
class GapClient : public dfim::WorkloadClient {
 public:
  using Clock = std::chrono::steady_clock;

  GapClient(dfim::WorkloadClient* inner, const dfim::QaasService* service)
      : inner_(inner), service_(service) {}

  std::optional<dfim::Dataflow> Next(dfim::Seconds not_before,
                                     dfim::Seconds horizon) override {
    Clock::time_point enter = Clock::now();
    if (started_) Attribute(enter - left_);
    std::optional<dfim::Dataflow> df = inner_->Next(not_before, horizon);
    started_ = true;
    left_ = Clock::now();
    return df;
  }

  /// Closes the gap after the last `Next` call; `run_end` is when `Run`
  /// returned.
  void Finish(Clock::time_point run_end) {
    if (started_) Attribute(run_end - left_);
    if (!samples_ms_.empty()) samples_ms_.back() += pending_ms_;
    pending_ms_ = 0;
  }

  /// Wall milliseconds per recorded dataflow, in execution order.
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  void Attribute(Clock::duration gap) {
    pending_ms_ += std::chrono::duration<double, std::milli>(gap).count();
    const auto& history = service_->history();
    size_t added = 0;
    for (auto it = history.rbegin();
         it != history.rend() && it->dataflow_id != last_id_; ++it) {
      ++added;
    }
    if (!history.empty()) last_id_ = history.back().dataflow_id;
    if (added == 0) return;
    samples_ms_.insert(samples_ms_.end(), added,
                       pending_ms_ / static_cast<double>(added));
    pending_ms_ = 0;
  }

  dfim::WorkloadClient* inner_;
  const dfim::QaasService* service_;
  bool started_ = false;
  Clock::time_point left_;
  std::optional<int> last_id_;
  /// Gap time not yet attributed to a history record.
  double pending_ms_ = 0;
  std::vector<double> samples_ms_;
};

}  // namespace cpbench

#endif  // DFIM_CPBENCH_GAP_CLIENT_H_
