#ifndef DFIM_CPBENCH_TRACE_H_
#define DFIM_CPBENCH_TRACE_H_

// The traced run: spans recorded around read-only "shadow" calls into each
// layer's public entry points, made for every dataflow the service pulls.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/service.h"
#include "core/tuner.h"
#include "dataflow/workload.h"
#include "sched/skyline_scheduler.h"

namespace cpbench {

/// Span names, one per traced layer entry point, plus the per-dataflow
/// root that parents them.
enum Layer {
  kShadow,    // root: all shadow work for one dataflow
  kTuner,     // OnlineIndexTuner::OnDataflow
  kWhatIf,    // EstimateDataflowGain over the dataflow's candidates
  kGain,      // EvaluateIndex over the decision's gains keys
  kCost,      // BuildDataflowCosts on the combined DAG
  kSkyline,   // SkylineScheduler::ScheduleDag
  kKnapsack,  // Interleaver::PackIntoIdleSlots over every skyline point
  kExec,      // ExecSimulator::Run on the chosen plan, cold, no faults
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer = kShadow;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span, -1 for a root.
  int parent = -1;
  int dataflow_id = 0;
};

/// Work counts gathered at the same boundaries as the spans.
struct LayerCounts {
  int64_t dataflows = 0;
  int64_t gain_evals = 0;
  /// History records x evaluated indexes: the rescan per decision.
  int64_t gain_pairs = 0;
  int64_t gain_beneficial = 0;
  int64_t cost_ops = 0;
  int64_t skyline_points = 0;
  int64_t knapsack_calls = 0;
  /// Positive-gain build ops offered to the knapsack, and those it packed.
  int64_t knapsack_offered = 0;
  int64_t knapsack_packed = 0;
};

/// \brief In-memory span store; written out once, at the end of the run.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int Begin(Layer layer, int parent, int dataflow_id);
  void End(int span);

  LayerCounts& counts() { return counts_; }
  const LayerCounts& counts() const { return counts_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> SelfMs() const;

  /// Per-dataflow self time of `layer`, one entry per traced dataflow.
  std::vector<double> PerDataflowMs(Layer layer) const;

  /// Writes one tab-separated line per span. False on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  LayerCounts counts_;
};

/// \brief Decorator that makes the shadow calls for every dataflow it hands
/// to the service, against the live catalog and `service.history()`.
///
/// Every call is read-only: the shadow tuner is a second, stateless tuner
/// on the same catalog, and the rest take their inputs by const reference.
/// So the service's simulated outputs do not change; the benchmark checks
/// that they do not.
class TracingClient : public dfim::WorkloadClient {
 public:
  TracingClient(dfim::WorkloadClient* inner, const dfim::QaasService* service,
                dfim::Catalog* catalog, const dfim::ServiceOptions& options,
                Tracer* tracer);

  std::optional<dfim::Dataflow> Next(dfim::Seconds not_before,
                                     dfim::Seconds horizon) override;

  /// Status of the first failed shadow call (OK when none failed).
  const dfim::Status& status() const { return status_; }

 private:
  void Shadow(const dfim::Dataflow& df, dfim::Seconds now);

  dfim::WorkloadClient* inner_;
  const dfim::QaasService* service_;
  const dfim::Catalog* catalog_;
  dfim::ServiceOptions opts_;
  dfim::OnlineIndexTuner tuner_;
  dfim::SkylineScheduler scheduler_;
  dfim::Interleaver packer_;
  Tracer* tracer_;
  dfim::Status status_;
  /// Keeps the what-if results observable.
  double sink_ = 0;
};

}  // namespace cpbench

#endif  // DFIM_CPBENCH_TRACE_H_
