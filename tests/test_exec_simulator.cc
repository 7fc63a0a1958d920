#include "sched/exec_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

using testutil::Chain;
using testutil::Independent;
using testutil::OpTimes;

SimOptions NoError() {
  SimOptions o;
  o.quantum = 60;
  o.net_mb_per_sec = 125;
  o.time_error = 0;
  o.data_error = 0;
  return o;
}

std::vector<SimOpCost> CostsFromTimes(const Dag& g) {
  std::vector<SimOpCost> costs(g.num_ops());
  for (const auto& op : g.ops()) {
    costs[static_cast<size_t>(op.id)] = SimOpCost{op.time, 0, ""};
  }
  return costs;
}

Schedule PlanOf(const Dag& g, const SchedulerOptions& opts) {
  SkylineScheduler sched(opts);
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  EXPECT_TRUE(skyline.ok());
  return skyline->front();
}

TEST(ExecSimulatorTest, ExactReplayWithoutErrors) {
  Dag g = Chain(4, 15);
  SchedulerOptions so;
  Schedule plan = PlanOf(g, so);
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->makespan, plan.makespan(), 1e-9);
  EXPECT_EQ(r->leased_quanta, plan.LeasedQuanta(60));
  EXPECT_EQ(r->executed_ops, 4);
  EXPECT_EQ(r->killed_builds, 0);
  EXPECT_TRUE(r->builds.empty());
}

TEST(ExecSimulatorTest, CostSizeMismatchRejected) {
  Dag g = Chain(2, 10);
  Schedule plan = PlanOf(g, SchedulerOptions{});
  ExecSimulator sim(NoError());
  EXPECT_TRUE(sim.Run(g, plan, {}).status().IsInvalidArgument());
}

TEST(ExecSimulatorTest, TimeErrorPerturbsMakespan) {
  Dag g = Chain(10, 20);
  Schedule plan = PlanOf(g, SchedulerOptions{});
  SimOptions o = NoError();
  o.time_error = 0.5;
  o.seed = 7;
  ExecSimulator sim(o);
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->makespan, plan.makespan());
  // Bounded by the error range.
  EXPECT_GT(r->makespan, plan.makespan() * 0.5 - 1e-9);
  EXPECT_LT(r->makespan, plan.makespan() * 1.5 + 1e-9);
}

TEST(ExecSimulatorTest, BuildOpInTailCompletes) {
  Dag g = Independent(1, 30);
  Operator build = Operator::BuildIndex(1, "idx", 2, 20.0, 64);
  build.gain = 1;
  g.AddOperator(build);
  SkylineScheduler sched(SchedulerOptions{});
  auto skyline = sched.ScheduleDag(g, OpTimes(g));
  ASSERT_TRUE(skyline.ok());
  Schedule plan = skyline->front();
  ASSERT_EQ(plan.size(), 2u);  // build op interleaved in the 60 s quantum

  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->builds.size(), 1u);
  EXPECT_EQ(r->builds[0].index_id, "idx");
  EXPECT_EQ(r->builds[0].partition, 2);
  EXPECT_NEAR(r->builds[0].finish, 50, 1e-9);
  EXPECT_EQ(r->killed_builds, 0);
  // The dataflow makespan excludes the build op.
  EXPECT_NEAR(r->makespan, 30, 1e-9);
}

TEST(ExecSimulatorTest, BuildOpKilledByDataflowArrival) {
  // Plan: op0 [0,20), build [20,40) planned, op1 [40,60). If op0 runs long,
  // the build op is preempted when op1's start arrives.
  Dag g;
  Operator a;
  a.time = 20;
  g.AddOperator(a);
  Operator b;
  b.time = 20;
  g.AddOperator(b);
  ASSERT_TRUE(g.AddFlow(0, 1, 0).ok());
  Operator build = Operator::BuildIndex(2, "idx", 0, 19.0, 64);
  g.AddOperator(build);

  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 20, false});
  plan.Add(Assignment{2, 0, 20, 39, true});
  plan.Add(Assignment{1, 0, 40, 60, false});

  // Force op0 to overrun via a longer actual cpu time.
  std::vector<SimOpCost> costs{{35, 0, ""}, {20, 0, ""}, {19, 0, ""}};
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, costs);
  ASSERT_TRUE(r.ok());
  // op0 ends at 35; op1 starts at 35 (dep satisfied, build preempted).
  EXPECT_EQ(r->killed_builds, 1);
  EXPECT_TRUE(r->builds.empty());
  EXPECT_NEAR(r->makespan, 55, 1e-9);
  // The killed build ran [35, 35) — zero length, before op1.
  bool found = false;
  for (const auto& as : r->actual.assignments()) {
    if (as.optional) {
      found = true;
      EXPECT_NEAR(as.end - as.start, 0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExecSimulatorTest, EqualStartsDispatchInOpIdOrder) {
  // Zero-duration plan entries with equal starts: the timeline keeps the
  // latest insert first, but dispatch goes by op id. Build op 0 therefore
  // comes before dataflow op 1 on container 0 and is preempted by op 1's
  // arrival at t = 0; in timeline order it would run after op 1 instead.
  Dag g;
  g.AddOperator(Operator::BuildIndex(0, "idx", 0, 5.0, 64));
  Operator df;
  df.time = 10;
  g.AddOperator(df);
  Operator df2;
  df2.time = 3;
  g.AddOperator(df2);
  Operator df3;
  df3.time = 4;
  g.AddOperator(df3);

  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 0, true});
  plan.Add(Assignment{1, 0, 0, 0, false});
  plan.Add(Assignment{2, 1, 0, 0, false});
  plan.Add(Assignment{3, 1, 0, 0, false});
  ASSERT_EQ(plan.timelines()[0].op_id(0), 1);
  ASSERT_EQ(plan.timelines()[1].op_id(0), 3);

  std::vector<SimOpCost> costs{{5, 0, ""}, {10, 0, ""}, {3, 0, ""},
                               {4, 0, ""}};
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, costs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->killed_builds, 1);
  EXPECT_TRUE(r->builds.empty());
  // Dataflow ops 2 and 3 share container 1: op 2 runs first.
  for (const auto& a : r->actual.assignments()) {
    if (a.op_id == 2) {
      EXPECT_EQ(a.start, 0);
    }
    if (a.op_id == 3) {
      EXPECT_EQ(a.start, 3);
    }
  }
  EXPECT_EQ(r->makespan, 10);
}

TEST(ExecSimulatorTest, BuildOpKilledAtLeaseEnd) {
  Dag g = Independent(1, 30);
  Operator build = Operator::BuildIndex(1, "idx", 0, 45.0, 64);
  g.AddOperator(build);
  // Hand-built plan: build op in the tail, too long for the lease.
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 30, false});
  plan.Add(Assignment{1, 0, 30, 75, true});
  // The plan itself leases 2 quanta (planned end 75) — the build op may run
  // through 120... but the plan says 75, so lease covers ceil(75/60)=2.
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  // 30 + 45 = 75 <= 120 (2 leased quanta): completes.
  EXPECT_EQ(r->killed_builds, 0);
  ASSERT_EQ(r->builds.size(), 1u);

  // Now a build op that exceeds even the leased tail.
  Dag g2 = Independent(1, 30);
  Operator build2 = Operator::BuildIndex(1, "idx", 0, 40.0, 64);
  g2.AddOperator(build2);
  Schedule plan2;
  plan2.Add(Assignment{0, 0, 0, 30, false});
  plan2.Add(Assignment{1, 0, 30, 59, true});  // planned within quantum 1
  std::vector<SimOpCost> costs2{{30, 0, ""}, {40, 0, ""}};  // actually 40 s
  auto r2 = sim.Run(g2, plan2, costs2);
  ASSERT_TRUE(r2.ok());
  // Lease is 1 quantum (planned end 59); 30+40=70 > 60: killed at 60.
  EXPECT_EQ(r2->killed_builds, 1);
  EXPECT_TRUE(r2->builds.empty());
  EXPECT_EQ(r2->leased_quanta, 1);
}

TEST(ExecSimulatorTest, CacheAbsorbsRepeatReads) {
  // Two runs of the same single-op dag on the same container: the second
  // read hits the cache.
  Dag g = Independent(1, 10);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 110, false});
  std::vector<SimOpCost> costs{{10, 12500, "file:a|v1"}};  // 100 s transfer

  PricingModel pricing;
  Container cont(0, ContainerSpec{}, pricing, 0);
  std::vector<Container*> containers{&cont};
  ExecSimulator sim(NoError());
  auto first = sim.Run(g, plan, costs, &containers);
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(first->makespan, 110, 1e-9);  // 100 transfer + 10 cpu
  auto second = sim.Run(g, plan, costs, &containers);
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second->makespan, 10, 1e-9);  // cache hit
}

TEST(ExecSimulatorTest, CrossContainerFlowPaysTransfer) {
  Dag g = Chain(2, 10, /*flow=*/1250);  // 10 s transfer
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 10, false});
  plan.Add(Assignment{1, 1, 20, 30, false});
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->makespan, 30, 1e-9);  // 10 + 10 transfer + 10

  // Same plan but co-located: no transfer.
  Schedule colocated;
  colocated.Add(Assignment{0, 0, 0, 10, false});
  colocated.Add(Assignment{1, 0, 10, 20, false});
  auto r2 = sim.Run(g, colocated, CostsFromTimes(g));
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(r2->makespan, 20, 1e-9);
}

TEST(ExecSimulatorTest, FragmentationReported) {
  Dag g = Independent(1, 30);
  Schedule plan;
  plan.Add(Assignment{0, 0, 0, 30, false});
  ExecSimulator sim(NoError());
  auto r = sim.Run(g, plan, CostsFromTimes(g));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->leased_quanta, 1);
  EXPECT_NEAR(r->total_idle, 30, 1e-9);  // half the quantum idle
}

/// A hand-built crash: container 0 died, container 1 survived. Ops 0 and 5
/// finished on the dead container, ops 1 and 6 on the live one; mandatory
/// ops 2 and 3 and the optional build op 4 were lost.
///
///   5 -> 0 -> 2 -> 3        flows: 5->0 30 MB, 6->0 40 MB, 0->2 100 MB,
///   6 -^   1 -^                    1->2 50 MB, 2->3 25 MB
struct CrashedAttempt {
  Dag dag;
  std::vector<SimOpCost> costs;
  std::vector<Seconds> durations;
  Schedule plan;
  ExecResult exec;

  CrashedAttempt() {
    const int on_container[] = {0, 1, 1, 0, 1, 0, 1};
    for (int i = 0; i < 7; ++i) {
      const Seconds t = 10.0 + i;
      Operator op = i == 4 ? Operator::BuildIndex(i, "idx", 0, t, 64)
                           : Operator{};
      op.time = t;
      dag.AddOperator(std::move(op));
      costs.push_back(SimOpCost{t, 1.0, "k" + std::to_string(i)});
      durations.push_back(t);
      Assignment a;
      a.op_id = i;
      a.container = on_container[i];
      a.start = 20.0 * i;
      a.end = a.start + t;
      a.optional = i == 4;
      plan.Add(a);
    }
    EXPECT_TRUE(dag.AddFlow(5, 0, 30).ok());
    EXPECT_TRUE(dag.AddFlow(6, 0, 40).ok());
    EXPECT_TRUE(dag.AddFlow(0, 2, 100).ok());
    EXPECT_TRUE(dag.AddFlow(1, 2, 50).ok());
    EXPECT_TRUE(dag.AddFlow(2, 3, 25).ok());
    exec.complete = false;
    exec.failed_containers = {0};
    exec.failure_times = {50.0};
    exec.failure_preempted = {0};
    exec.lost_ops = {LostOp{2, 1, false}, LostOp{3, 0, false},
                     LostOp{4, 1, true}};
  }

  Result<RecoverySuffix> Plan(std::vector<char>* done) const {
    return PlanRecoverySuffix(dag, costs, durations, dag, plan, {}, exec,
                              125.0, done);
  }
};

TEST(RecoverySuffixTest, ProducersOnCrashedContainersRerunTransitively) {
  CrashedAttempt a;
  std::vector<char> done(a.dag.num_ops(), 0);
  auto s = a.Plan(&done);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // Op 0 feeds lost op 2 from the dead container's disk, and op 5 feeds op
  // 0 from the same disk: both re-run alongside the lost ops.
  EXPECT_EQ(s->orig_ids, (std::vector<int>{0, 2, 3, 5}));
  ASSERT_EQ(s->dag.num_ops(), 4u);
  ASSERT_EQ(s->dag.num_flows(), 3u);
  // Suffix ids follow the sorted combined ids: 0->0, 2->1, 3->2, 5->3.
  EXPECT_EQ(s->dag.flows()[0].from, 3);
  EXPECT_EQ(s->dag.flows()[0].to, 0);
  EXPECT_EQ(s->dag.flows()[1].from, 0);
  EXPECT_EQ(s->dag.flows()[1].to, 1);
  EXPECT_EQ(s->dag.flows()[2].from, 1);
  EXPECT_EQ(s->dag.flows()[2].to, 2);
  // Only the live container's finished work is done.
  EXPECT_EQ(done, (std::vector<char>{0, 1, 0, 0, 0, 0, 1}));
  // A suffix op with no done producer keeps its costs untouched.
  EXPECT_EQ(s->costs[3].input_mb, 1.0);
  EXPECT_EQ(s->costs[3].cache_key, "k5");
  EXPECT_EQ(s->durations[3], 15.0);
}

TEST(RecoverySuffixTest, LiveProducerBecomesExternalInput) {
  CrashedAttempt a;
  std::vector<char> done(a.dag.num_ops(), 0);
  auto s = a.Plan(&done);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // Op 6 finished on the live container and feeds re-run op 0 (suffix 0);
  // op 1 likewise feeds op 2 (suffix 1). Each consumer re-pays the transfer
  // as an external input and no longer matches any cache key.
  EXPECT_DOUBLE_EQ(s->costs[0].input_mb, 1.0 + 40.0);
  EXPECT_TRUE(s->costs[0].cache_key.empty());
  EXPECT_DOUBLE_EQ(s->durations[0], 10.0 + 40.0 / 125.0);
  EXPECT_DOUBLE_EQ(s->costs[1].input_mb, 1.0 + 50.0);
  EXPECT_TRUE(s->costs[1].cache_key.empty());
  EXPECT_DOUBLE_EQ(s->durations[1], 12.0 + 50.0 / 125.0);
  // A flow from a re-run producer stays an edge, not an external input.
  EXPECT_DOUBLE_EQ(s->costs[2].input_mb, 1.0);
  EXPECT_EQ(s->costs[2].cache_key, "k3");
}

TEST(RecoverySuffixTest, LostBuildOpsAreDropped) {
  CrashedAttempt a;
  std::vector<char> done(a.dag.num_ops(), 0);
  auto s = a.Plan(&done);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  for (const auto& op : s->dag.ops()) EXPECT_FALSE(op.optional);
  EXPECT_EQ(std::count(s->orig_ids.begin(), s->orig_ids.end(), 4), 0);
  EXPECT_EQ(done[4], 0);
}

TEST(RecoverySuffixTest, LaterAttemptsMapBackThroughTheIdMap) {
  CrashedAttempt a;
  std::vector<char> done(a.dag.num_ops(), 0);
  auto first = a.Plan(&done);
  ASSERT_TRUE(first.ok());
  // The suffix re-runs on one container that crashes again: suffix op 1
  // (combined op 2) and its successor are lost; combined op 0 finished on
  // the dead container and must re-run once more, op 5 finished there too.
  Schedule plan;
  for (int i = 0; i < 4; ++i) {
    Assignment as;
    as.op_id = i;
    as.start = 20.0 * i;
    as.end = as.start + 10.0;
    plan.Add(as);
  }
  ExecResult exec;
  exec.complete = false;
  exec.failed_containers = {0};
  exec.lost_ops = {LostOp{1, 0, false}, LostOp{2, 0, false}};
  auto second = PlanRecoverySuffix(a.dag, a.costs, a.durations, first->dag,
                                   plan, first->orig_ids, exec, 125.0, &done);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->orig_ids, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(done, (std::vector<char>{0, 1, 0, 0, 0, 0, 1}));
}

}  // namespace
}  // namespace dfim
