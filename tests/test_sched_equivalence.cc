// Scheduler-equivalence regression: the incremental (probe/commit) and
// parallel skyline engines must return schedules *identical* — same
// assignments, makespan and money — to the copy-everything reference engine
// (tests/oracles/skyline_ref.h) across seeded random DAGs, including
// optional-op placement. The interleaver, which keeps only the fastest
// point, must equal the front of the full skyline packed point by point.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/interleave.h"
#include "core/tuner.h"
#include "dataflow/build_index_ops.h"
#include "dataflow/file_database.h"
#include "dataflow/generators.h"
#include "oracles/skyline_ref.h"
#include "sched/hetero_scheduler.h"
#include "sched/skyline_scheduler.h"
#include "sched_test_util.h"

namespace dfim {
namespace {

/// Seeded random layered DAG: `depth` layers of `width` ops, each non-entry
/// op wired to 1-3 parents in the previous layer, plus `optional_ops`
/// build-index ops (no edges, as emitted by the tuner).
Dag RandomLayeredDag(int width, int depth, int optional_ops, uint64_t seed) {
  Rng rng(seed);
  Dag g;
  std::vector<int> prev_layer;
  for (int d = 0; d < depth; ++d) {
    std::vector<int> layer;
    for (int w = 0; w < width; ++w) {
      Operator op;
      op.time = rng.Uniform(5.0, 90.0);
      op.output_mb = rng.Uniform(1.0, 800.0);
      int id = g.AddOperator(std::move(op));
      layer.push_back(id);
      if (!prev_layer.empty()) {
        int parents = static_cast<int>(rng.UniformInt(1, 3));
        for (int p = 0; p < parents; ++p) {
          int from = prev_layer[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(prev_layer.size()) - 1))];
          (void)g.AddFlow(from, id, rng.Uniform(1.0, 800.0));
        }
      }
    }
    prev_layer = std::move(layer);
  }
  for (int i = 0; i < optional_ops; ++i) {
    Operator build = Operator::BuildIndex(
        static_cast<int>(g.num_ops()), "idx_" + std::to_string(i), i,
        rng.Uniform(5.0, 45.0), 64);
    build.gain = rng.Uniform(0.1, 5.0);
    g.AddOperator(std::move(build));
  }
  return g;
}

std::vector<Seconds> Durations(const Dag& g) {
  std::vector<Seconds> d(g.num_ops());
  for (const auto& op : g.ops()) d[static_cast<size_t>(op.id)] = op.time;
  return d;
}

::testing::AssertionResult IdenticalSkylines(
    const std::vector<Schedule>& a, const std::vector<Schedule>& b,
    Seconds quantum) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "skyline sizes differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].makespan() != b[i].makespan()) {
      return ::testing::AssertionFailure()
             << "schedule " << i << " makespan " << a[i].makespan() << " vs "
             << b[i].makespan();
    }
    if (a[i].LeasedQuanta(quantum) != b[i].LeasedQuanta(quantum)) {
      return ::testing::AssertionFailure()
             << "schedule " << i << " money " << a[i].LeasedQuanta(quantum)
             << " vs " << b[i].LeasedQuanta(quantum);
    }
    auto sa = testutil::Entries(a[i]);
    auto sb = testutil::Entries(b[i]);
    if (sa.size() != sb.size()) {
      return ::testing::AssertionFailure()
             << "schedule " << i << " has " << sa.size() << " vs " << sb.size()
             << " assignments";
    }
    for (size_t k = 0; k < sa.size(); ++k) {
      if (sa[k] != sb[k]) {
        return ::testing::AssertionFailure()
               << "schedule " << i << " assignment " << k << " differs: op "
               << sa[k].op_id << "@" << sa[k].container << " [" << sa[k].start
               << "," << sa[k].end << "] vs op " << sb[k].op_id << "@"
               << sb[k].container << " [" << sb[k].start << "," << sb[k].end
               << "]";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct Config {
  int width;
  int depth;
  int optional_ops;
  int max_containers;
  int skyline_cap;
};

class SchedEquivalenceTest : public ::testing::Test {
 protected:
  void CheckAll(const Config& cfg, bool place_optional) {
    for (uint64_t seed : {1ull, 7ull, 23ull, 91ull, 1234ull}) {
      Dag g = RandomLayeredDag(cfg.width, cfg.depth, cfg.optional_ops, seed);
      auto durations = Durations(g);

      SchedulerOptions inc_opts;
      inc_opts.max_containers = cfg.max_containers;
      inc_opts.skyline_cap = cfg.skyline_cap;

      SchedulerOptions par_opts = inc_opts;
      par_opts.num_threads = 4;

      auto naive =
          skyline_ref::ScheduleDag(inc_opts, g, durations, place_optional);
      auto inc =
          SkylineScheduler(inc_opts).ScheduleDag(g, durations, place_optional);
      auto par =
          SkylineScheduler(par_opts).ScheduleDag(g, durations, place_optional);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(inc.ok());
      ASSERT_TRUE(par.ok());
      ASSERT_FALSE(inc->empty());
      EXPECT_TRUE(IdenticalSkylines(*naive, *inc, inc_opts.quantum))
          << "naive vs incremental, seed " << seed;
      EXPECT_TRUE(IdenticalSkylines(*inc, *par, inc_opts.quantum))
          << "serial vs parallel, seed " << seed;
      for (const auto& s : *inc) {
        EXPECT_TRUE(testutil::ValidSchedule(g, s, durations,
                                            inc_opts.net_mb_per_sec))
            << "seed " << seed;
      }
      EXPECT_TRUE(testutil::NonDominatedSet(*inc, inc_opts.quantum))
          << "seed " << seed;
    }
  }
};

TEST_F(SchedEquivalenceTest, MandatoryOnlySmall) {
  CheckAll({4, 3, 0, 4, 4}, /*place_optional=*/false);
}

TEST_F(SchedEquivalenceTest, MandatoryOnlyWide) {
  CheckAll({8, 4, 0, 8, 8}, /*place_optional=*/false);
}

TEST_F(SchedEquivalenceTest, WithOptionalOps) {
  CheckAll({4, 4, 6, 6, 8}, /*place_optional=*/true);
}

TEST_F(SchedEquivalenceTest, WideWithOptionalOps) {
  CheckAll({8, 4, 8, 8, 8}, /*place_optional=*/true);
}

TEST_F(SchedEquivalenceTest, LargeConfig) {
  CheckAll({16, 4, 8, 16, 32}, /*place_optional=*/true);
}

TEST_F(SchedEquivalenceTest, ChainAndDiamondShapes) {
  for (bool place_optional : {false, true}) {
    for (Dag g : {testutil::Chain(6, 12, 100), testutil::Diamond(10, 20, 30, 10, 500)}) {
      auto durations = Durations(g);
      SchedulerOptions opts;
      opts.max_containers = 5;
      auto naive = skyline_ref::ScheduleDag(opts, g, durations, place_optional);
      auto inc =
          SkylineScheduler(opts).ScheduleDag(g, durations, place_optional);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(inc.ok());
      EXPECT_TRUE(IdenticalSkylines(*naive, *inc, opts.quantum));
    }
  }
}

TEST(SchedulerOptionsTest, RejectsNonPositiveContainerCap) {
  Dag g = testutil::Chain(2, 10);
  auto durations = Durations(g);
  for (int cap : {0, -3}) {
    SchedulerOptions opts;
    opts.max_containers = cap;
    EXPECT_TRUE(SkylineScheduler(opts)
                    .ScheduleDag(g, durations)
                    .status()
                    .IsInvalidArgument())
        << "max_containers " << cap;
    EXPECT_TRUE(HeteroSkylineScheduler(opts, {VmType{}})
                    .ScheduleDag(g, durations)
                    .status()
                    .IsInvalidArgument())
        << "max_containers " << cap;
  }
}

/// Paper dataflows with candidate-index build ops appended (seeded gains),
/// the way the tuner hands them to the interleaver. Capped at kMaxBuilds
/// ops: a Cybershake catalog has thousands of partitions, far more than one
/// decision ever offers.
class InterleaveEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.Populate().ok()); }

  void Combined(AppType app, uint64_t seed, Dag* g,
                std::vector<Seconds>* durations) {
    DataflowGenerator gen(&db_, seed);
    Dataflow df = gen.Generate(app, 0, 0);
    *g = df.dag;
    Rng rng(seed);
    int next_id = static_cast<int>(g->num_ops());
    const size_t cap = g->num_ops() + kMaxBuilds;
    for (const auto& idx : df.candidate_indexes) {
      auto ops = MakeBuildIndexOps(catalog_, idx, 125.0, &next_id);
      ASSERT_TRUE(ops.ok());
      for (auto& op : *ops) {
        if (g->num_ops() == cap) break;
        op.gain = rng.Uniform(0.1, 5.0);
        g->AddOperator(std::move(op));
      }
    }
    std::vector<SimOpCost> costs;
    BuildDataflowCosts(*g, df, catalog_, 125.0, durations, &costs);
  }

  static constexpr size_t kMaxBuilds = 60;
  Catalog catalog_;
  FileDatabase db_{&catalog_, FileDatabaseOptions{}};
};

TEST_F(InterleaveEquivalenceTest, FastestPointEqualsFrontOfPackedSkyline) {
  SchedulerOptions opts;
  opts.max_containers = 16;
  opts.skyline_cap = 4;
  // Build ops placed per mode (indexed by InterleaveMode): the comparison
  // must cover real packing, not just empty slots.
  int placed[3] = {0, 0, 0};
  for (AppType app :
       {AppType::kMontage, AppType::kLigo, AppType::kCybershake}) {
    for (uint64_t seed : {3ull, 17ull}) {
      Dag g;
      std::vector<Seconds> durations;
      Combined(app, seed, &g, &durations);
      std::vector<int> build_ops;
      for (const auto& op : g.ops()) {
        if (op.optional) build_ops.push_back(op.id);
      }
      for (InterleaveMode mode : {InterleaveMode::kNone,
                                  InterleaveMode::kOnline,
                                  InterleaveMode::kLp}) {
        for (double fraction : {1.0, 0.5}) {
          Interleaver il(opts, mode);
          auto got = il.Interleave(g, durations, fraction);
          ASSERT_TRUE(got.ok());
          auto skyline = SkylineScheduler(opts).ScheduleDag(
              g, durations, mode == InterleaveMode::kOnline);
          ASSERT_TRUE(skyline.ok());
          ASSERT_FALSE(skyline->empty());
          if (mode == InterleaveMode::kLp) {
            for (auto& s : *skyline) {
              s = il.PackIntoIdleSlots(std::move(s), g, durations, build_ops,
                                       fraction);
            }
          }
          const Schedule& want = skyline->front();
          EXPECT_EQ(testutil::Entries(*got), testutil::Entries(want))
              << AppTypeToString(app) << " seed " << seed << " mode "
              << static_cast<int>(mode) << " fraction " << fraction;
          EXPECT_EQ(got->makespan(), want.makespan());
          for (const Assignment& a : got->assignments()) {
            placed[static_cast<int>(mode)] += a.optional ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(placed[static_cast<int>(InterleaveMode::kLp)], 0);
  EXPECT_GT(placed[static_cast<int>(InterleaveMode::kOnline)], 0);
  EXPECT_EQ(placed[static_cast<int>(InterleaveMode::kNone)], 0);
}

}  // namespace
}  // namespace dfim
