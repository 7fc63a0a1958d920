#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "sched/exec_simulator.h"

namespace cpbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kShadow:
      return "shadow";
    case kTuner:
      return "core.tuner";
    case kWhatIf:
      return "core.tuner.whatif";
    case kGain:
      return "core.gain";
    case kCost:
      return "dataflow.cost";
    case kSkyline:
      return "sched.skyline";
    case kKnapsack:
      return "core.knapsack";
    case kExec:
      return "sched.exec";
  }
  return "?";
}

int Tracer::Begin(Layer layer, int parent, int dataflow_id) {
  Span s;
  s.layer = layer;
  s.parent = parent;
  s.dataflow_id = dataflow_id;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    double ms = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    self[i] += ms;
    if (spans_[i].parent >= 0) self[static_cast<size_t>(spans_[i].parent)] -= ms;
  }
  return self;
}

std::vector<double> Tracer::PerDataflowMs(Layer layer) const {
  // Spans are stored in Begin order, so each root is followed by its
  // children before the next root starts.
  std::vector<double> self = SelfMs();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      out.push_back(0);
    }
    if (spans_[i].layer == layer && !out.empty()) out.back() += self[i];
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<double> self = SelfMs();
  std::fprintf(f, "span\tparent\tdataflow\tname\tstart_ns\tend_ns\tself_ms\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%d\t%s\t%lld\t%lld\t%.6f\n", i, s.parent,
                 s.dataflow_id, LayerName(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), self[i]);
  }
  return std::fclose(f) == 0;
}

TracingClient::TracingClient(dfim::WorkloadClient* inner,
                             const dfim::QaasService* service,
                             dfim::Catalog* catalog,
                             const dfim::ServiceOptions& options,
                             Tracer* tracer)
    : inner_(inner),
      service_(service),
      catalog_(catalog),
      opts_(options),
      tuner_(catalog, options.tuner),
      scheduler_(options.tuner.sched),
      packer_(options.tuner.sched, dfim::InterleaveMode::kLp),
      tracer_(tracer) {}

std::optional<dfim::Dataflow> TracingClient::Next(dfim::Seconds not_before,
                                                  dfim::Seconds horizon) {
  std::optional<dfim::Dataflow> df = inner_->Next(not_before, horizon);
  if (df.has_value()) {
    // The closed loop starts the dataflow at max(issue, previous finish);
    // the open loop passes 0 and queues it from its issue time.
    dfim::Seconds now = std::max(df->issued_at, not_before);
    if (now < opts_.total_time) Shadow(*df, now);
  }
  return df;
}

void TracingClient::Shadow(const dfim::Dataflow& df, dfim::Seconds now) {
  const std::deque<dfim::DataflowRecord>& history = service_->history();
  LayerCounts& n = tracer_->counts();
  ++n.dataflows;
  const int root = tracer_->Begin(kShadow, -1, df.id);
  auto fail = [&](const dfim::Status& st) {
    if (status_.ok()) status_ = st;
    tracer_->End(root);
  };

  int span = tracer_->Begin(kTuner, root, df.id);
  dfim::Result<dfim::TunerDecision> decision =
      tuner_.OnDataflow(df, history, now);
  tracer_->End(span);
  if (!decision.ok()) return fail(decision.status());
  const dfim::Dag& combined = decision->combined;

  span = tracer_->Begin(kWhatIf, root, df.id);
  for (const auto& idx : df.candidate_indexes) {
    sink_ += tuner_.EstimateDataflowGain(df, idx);
  }
  tracer_->End(span);

  span = tracer_->Begin(kGain, root, df.id);
  for (const auto& entry : decision->gains) {
    dfim::IndexGains g = tuner_.EvaluateIndex(entry.first, history, &df, now);
    if (g.beneficial) ++n.gain_beneficial;
  }
  tracer_->End(span);
  const auto evals = static_cast<int64_t>(decision->gains.size());
  n.gain_evals += evals;
  n.gain_pairs += evals * static_cast<int64_t>(history.size());

  std::vector<dfim::Seconds> durations;
  std::vector<dfim::SimOpCost> costs;
  span = tracer_->Begin(kCost, root, df.id);
  dfim::BuildDataflowCosts(combined, df, *catalog_,
                           opts_.tuner.sched.net_mb_per_sec, &durations,
                           &costs);
  tracer_->End(span);
  n.cost_ops += static_cast<int64_t>(combined.num_ops());

  const bool lp = opts_.tuner.mode == dfim::InterleaveMode::kLp;
  span = tracer_->Begin(kSkyline, root, df.id);
  auto skyline =
      scheduler_.ScheduleDag(combined, durations, /*place_optional=*/!lp);
  tracer_->End(span);
  if (!skyline.ok()) return fail(skyline.status());
  n.skyline_points += static_cast<int64_t>(skyline->size());

  if (lp) {
    std::vector<int> build_ops;
    int64_t offered = 0;
    for (const auto& op : combined.ops()) {
      if (!op.optional) continue;
      build_ops.push_back(op.id);
      if (op.gain > 0) ++offered;
    }
    span = tracer_->Begin(kKnapsack, root, df.id);
    for (const auto& point : *skyline) {
      dfim::Schedule packed =
          packer_.PackIntoIdleSlots(point, combined, durations, build_ops);
      n.knapsack_packed += static_cast<int64_t>(packed.assignments().size() -
                                                point.assignments().size());
    }
    tracer_->End(span);
    n.knapsack_calls += static_cast<int64_t>(skyline->size());
    n.knapsack_offered += offered * static_cast<int64_t>(skyline->size());
  }

  dfim::SimOptions sim = opts_.sim;
  sim.quantum = opts_.tuner.sched.quantum;
  sim.net_mb_per_sec = opts_.tuner.sched.net_mb_per_sec;
  sim.seed = opts_.seed ^ static_cast<uint64_t>(df.id);
  span = tracer_->Begin(kExec, root, df.id);
  auto exec = dfim::ExecSimulator(sim).Run(combined, decision->chosen, costs);
  tracer_->End(span);
  if (!exec.ok()) return fail(exec.status());
  tracer_->End(root);
}

}  // namespace cpbench
