// Quickstart: build a small dataflow, register a table with a candidate
// index, schedule the dataflow with the skyline scheduler, interleave the
// index build into idle slots, and execute it on the simulated cloud.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/interleave.h"
#include "core/tuner.h"
#include "data/catalog.h"
#include "dataflow/build_index_ops.h"
#include "dataflow/dataflow.h"
#include "sched/exec_simulator.h"

using namespace dfim;

int main() {
  // 1. A table "events" of ~480 MB in 128 MB partitions, with a candidate
  //    index on its key column.
  Catalog catalog;
  Schema schema({Column::Int64("key"), Column::Text("payload", 117.0)});
  Table events("events", schema);
  events.PartitionBySize(4000000, 128.0);
  if (!catalog.AddTable(std::move(events)).ok()) return 1;
  if (!catalog.DefineIndex(IndexDef{"idx:events:key", "events", {"key"}}).ok()) {
    return 1;
  }

  // 2. A four-operator dataflow: two parallel scans of "events" feeding an
  //    aggregation, then a report. The scans can use the index (speedup 94x,
  //    one of the paper's Table 6 calibration values).
  Dataflow df;
  df.expr = "SELECT ... FROM events WHERE key BETWEEN ...";
  df.candidate_indexes = {"idx:events:key"};
  df.index_speedup["idx:events:key"] = 94.44;
  Dag& g = df.dag;
  Operator scan;
  scan.name = "scan";
  scan.time = 45.0;
  scan.input_table = "events";
  scan.output_mb = 64.0;
  int s1 = g.AddOperator(scan);
  int s2 = g.AddOperator(scan);
  Operator agg;
  agg.name = "aggregate";
  agg.time = 30.0;
  agg.output_mb = 1.0;
  int a = g.AddOperator(agg);
  Operator report;
  report.name = "report";
  report.time = 5.0;
  int r = g.AddOperator(report);
  (void)g.AddFlow(s1, a, 64.0);
  (void)g.AddFlow(s2, a, 64.0);
  (void)g.AddFlow(a, r, 1.0);

  // 3. Append the index's build operators (one per partition) as optional
  //    ops, with a uniform ranking gain.
  int next_id = static_cast<int>(g.num_ops());
  auto build_ops = MakeBuildIndexOps(catalog, "idx:events:key", 125.0, &next_id);
  if (!build_ops.ok()) return 1;
  for (auto& op : *build_ops) {
    op.gain = 1.0;
    g.AddOperator(std::move(op));
  }
  std::printf("Dataflow: %zu ops (+%zu candidate index-build ops)\n",
              g.num_ops() - build_ops->size(), build_ops->size());

  // 4. Schedule with LP interleaving: dataflow first, then pack idle slots.
  SchedulerOptions so;  // 60 s quanta, $0.1/quantum, 1 Gbps
  std::vector<Seconds> durations;
  std::vector<SimOpCost> costs;
  BuildDataflowCosts(g, df, catalog, so.net_mb_per_sec, &durations, &costs);
  Interleaver interleaver(so, InterleaveMode::kLp);
  auto interleaved = interleaver.Interleave(g, durations);
  if (!interleaved.ok()) {
    std::printf("scheduling failed: %s\n",
                interleaved.status().ToString().c_str());
    return 1;
  }
  const Schedule& plan = *interleaved;
  std::printf("\nFastest skyline point: %.1f s on %d containers, "
              "%lld leased quanta\n",
              plan.makespan(), plan.num_containers(),
              static_cast<long long>(plan.LeasedQuanta(so.quantum)));
  std::printf("\nTimeline ('#' dataflow, '+' index build, '.' idle):\n%s",
              plan.ToAscii(so.quantum, 80).c_str());

  // 5. Execute on the simulated cloud and register completed partitions.
  ExecSimulator sim(SimOptions{});
  auto exec = sim.Run(g, plan, costs);
  if (!exec.ok()) return 1;
  for (const auto& b : exec->builds) {
    (void)catalog.MarkIndexPartitionBuilt(b.index_id, b.partition, b.finish);
  }
  auto frac = catalog.BuiltFraction("idx:events:key");
  std::printf("\nExecuted: makespan %.1f s, %lld quanta charged, %zu index "
              "partitions built (%.0f%% of the index), %d build ops killed\n",
              exec->makespan, static_cast<long long>(exec->leased_quanta),
              exec->builds.size(), frac.ok() ? *frac * 100 : 0.0,
              exec->killed_builds);

  // 6. The next identical dataflow now runs faster thanks to the index.
  BuildDataflowCosts(g, df, catalog, so.net_mb_per_sec, &durations, &costs);
  auto faster = interleaver.Interleave(g, durations);
  if (faster.ok()) {
    std::printf("\nRe-issued dataflow with the index available: %.1f s "
                "(was %.1f s)\n",
                faster->makespan(), plan.makespan());
  }
  return 0;
}
