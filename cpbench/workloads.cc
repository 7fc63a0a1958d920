#include "workloads.h"

#include "bench_util.h"

namespace cpbench {
namespace {

using dfim::AppType;
using dfim::ServiceOptions;

// Closed loops issue the next dataflow an Exp(1 quantum) think time after
// the previous one finished (Table 3's lambda); the open loop draws
// Poisson arrivals at the same mean. Horizons are sized so that every seed
// executes at least 100 dataflows, which leaves 10 samples beyond p90.
const Workload kWorkloads[] = {
    {"phase_lp", Workload::Kind::kPhaseLp, 480},
    {"random_online", Workload::Kind::kRandomOnline, 700},
    {"openloop_chaos", Workload::Kind::kOpenLoopChaos, 300},
};

constexpr double kMeanInterarrival = 60.0;

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const auto& w : kWorkloads) {
    if (!out.empty()) out += ",";
    out += w.name;
  }
  return out;
}

ServiceOptions MakeOptions(const Workload& w, uint64_t run_seed,
                           bool journal) {
  ServiceOptions so = dfim::bench::PaperServiceOptions(dfim::IndexPolicy::kGain);
  so.tuner.sched.num_threads = 1;
  so.total_time = w.horizon_quanta * so.tuner.sched.quantum;
  so.seed = run_seed;
  if (w.kind == Workload::Kind::kRandomOnline) {
    so.tuner.mode = dfim::InterleaveMode::kOnline;
  }
  if (w.kind != Workload::Kind::kOpenLoopChaos) return so;

  // openloop_chaos: admission control, faults, integrity, tail tolerance
  // and the journal all on at once.
  so.admission.open_loop = true;
  so.admission.max_queue = 32;
  so.admission.shed = dfim::ShedPolicy::kDeadlineInfeasible;
  so.admission.slo_factor = 4.0;
  so.brownout.pressure_lo_quanta = 1.0;
  so.brownout.pressure_hi_quanta = 8.0;
  so.breaker.open_after = 4;
  so.breaker.open_duration = 300.0;
  so.batch.max_batch = 4;
  so.batch.window_quanta = 1.0;
  so.update_interval_quanta = 30;
  so.faults.seed = run_seed ^ 0x5eedfa17ULL;
  so.faults.crash_rate = 0.02;
  so.faults.torn_write_rate = 0.05;
  so.faults.bitrot_rate = 0.001;
  so.integrity.verify_reads = true;
  so.integrity.scrub_objects_per_quantum = 2.0;
  so.integrity.repair = true;
  so.speculation.speculate = true;
  so.speculation.hedge_reads = true;
  so.journal.enabled = journal;
  so.faults.ctl_crash_rate = journal ? 0.01 : 0;
  return so;
}

std::unique_ptr<dfim::WorkloadClient> MakeClient(const Workload& w,
                                                 dfim::DataflowGenerator* gen,
                                                 uint64_t seed) {
  switch (w.kind) {
    case Workload::Kind::kPhaseLp:
      return std::make_unique<dfim::PhaseWorkloadClient>(
          gen, kMeanInterarrival,
          dfim::PhaseWorkloadClient::PaperPhases(60.0), seed);
    case Workload::Kind::kRandomOnline:
      return std::make_unique<dfim::RandomWorkloadClient>(
          gen, kMeanInterarrival, seed);
    case Workload::Kind::kOpenLoopChaos:
      break;
  }
  dfim::ArrivalOptions arrivals;
  arrivals.mean_interarrival = kMeanInterarrival;
  return std::make_unique<dfim::OpenLoopWorkloadClient>(
      gen, arrivals,
      std::vector<dfim::WorkloadPhase>{{AppType::kMontage, 1e9}}, seed);
}

}  // namespace cpbench
