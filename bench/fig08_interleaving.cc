// Reproduces Figure 8: the number of build-index operators scheduled at
// each point of the skyline for the Montage dataflow, comparing the LP
// interleaving algorithm against the online interleaving algorithm.

#include <cstdio>

#include "bench_util.h"
#include "core/interleave.h"
#include "core/tuner.h"
#include "dataflow/build_index_ops.h"

namespace dfim {
namespace {

int CountBuilds(const Schedule& s) {
  int n = 0;
  for (const auto& a : s.assignments()) n += a.optional ? 1 : 0;
  return n;
}

}  // namespace
}  // namespace dfim

int main() {
  using namespace dfim;
  bench::Header("Figure 8 -- build ops scheduled per skyline point");
  auto setup = std::make_unique<bench::PaperSetup>(7);
  SchedulerOptions so = bench::PaperSchedulerOptions();
  so.skyline_cap = 8;  // more skyline points for the figure

  // The paper plots Montage, but our Montage candidate builds are so small
  // (files <= 4 MB) that both algorithms trivially schedule all of them;
  // Cybershake's partition builds contend for slot space and expose the
  // LP-vs-online gap the paper shows.
  Dataflow df = setup->generator->Generate(AppType::kCybershake, 0, 0);
  // Candidate build ops: every partition of every candidate index.
  Dag combined = df.dag;
  int next_id = static_cast<int>(combined.num_ops());
  int added = 0;
  for (const auto& idx : df.candidate_indexes) {
    auto ops = MakeBuildIndexOps(setup->catalog, idx, so.net_mb_per_sec,
                                 &next_id);
    if (!ops.ok()) continue;
    for (auto& op : *ops) {
      op.gain = 1.0;  // uniform usefulness, as in the figure
      combined.AddOperator(std::move(op));
      ++added;
    }
  }
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  BuildDataflowCosts(combined, df, setup->catalog, so.net_mb_per_sec,
                     &durations, &costs);
  std::printf("\nMontage: %zu dataflow ops, %d candidate build ops\n",
              df.dag.num_ops(), added);

  // The interleaver keeps only the fastest point; the figure plots them
  // all, so it builds the interleaved skyline itself.
  std::vector<int> build_ops;
  for (const auto& op : combined.ops()) {
    if (op.optional) build_ops.push_back(op.id);
  }
  SkylineScheduler scheduler(so);
  for (auto mode : {InterleaveMode::kOnline, InterleaveMode::kLp}) {
    Interleaver il(so, mode);
    auto skyline = scheduler.ScheduleDag(
        combined, durations,
        /*place_optional=*/mode == InterleaveMode::kOnline);
    if (!skyline.ok()) {
      std::printf("error: %s\n", skyline.status().ToString().c_str());
      return 1;
    }
    if (mode == InterleaveMode::kLp) {
      for (auto& s : *skyline) {
        s = il.PackIntoIdleSlots(std::move(s), combined, durations, build_ops);
      }
    }
    std::printf("\n%s interleaving:\n",
                mode == InterleaveMode::kLp ? "LP" : "Online");
    std::printf("%18s %14s %10s\n", "Money (quanta)", "Time (s)", "#Builds");
    for (const auto& s : *skyline) {
      std::printf("%18lld %14.1f %10d\n",
                  static_cast<long long>(s.LeasedQuanta(so.quantum)),
                  s.makespan(), CountBuilds(s));
    }
  }
  bench::Note("Paper shape: LP schedules significantly more build ops than "
              "online at comparable money.");
  return 0;
}
