// Bit-exact equivalence of the what-if table (dataflow/cost.h) and the
// tuner's what-if gains against the per-index reference engine in
// tests/oracles/whatif_ref.h. Every comparison is exact `==`: the table
// must reproduce the reference arithmetic in the same order, not merely
// approximately.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/tuner.h"
#include "dataflow/file_database.h"
#include "dataflow/generators.h"
#include "oracles/whatif_ref.h"

namespace dfim {
namespace {

/// Catalog states the equivalence is checked over.
enum class State {
  kNothingBuilt,
  kPartiallyBuilt,
  kFullyBuilt,
  kQuarantined,
  kBatchInvalidated,
  kStaleBuilt,
  kEqualSpeedupTies,
  kUnknownCandidate,
  kBuiltNonCandidate,
};

const char* StateName(State s) {
  switch (s) {
    case State::kNothingBuilt: return "nothing_built";
    case State::kPartiallyBuilt: return "partially_built";
    case State::kFullyBuilt: return "fully_built";
    case State::kQuarantined: return "quarantined";
    case State::kBatchInvalidated: return "batch_invalidated";
    case State::kStaleBuilt: return "stale_built";
    case State::kEqualSpeedupTies: return "equal_speedup_ties";
    case State::kUnknownCandidate: return "unknown_candidate";
    case State::kBuiltNonCandidate: return "built_non_candidate";
  }
  return "?";
}

void ExpectSameCost(const EffectiveCost& got, const EffectiveCost& want) {
  EXPECT_TRUE(got.cpu_time == want.cpu_time)
      << got.cpu_time << " vs " << want.cpu_time;
  EXPECT_TRUE(got.input_mb == want.input_mb)
      << got.input_mb << " vs " << want.input_mb;
  EXPECT_EQ(got.index_used, want.index_used);
  EXPECT_TRUE(got.index_fraction == want.index_fraction)
      << got.index_fraction << " vs " << want.index_fraction;
}

class WhatIfEquivalenceTest : public ::testing::TestWithParam<State> {
 protected:
  /// A freshly populated catalog, nothing built.
  void Reset() {
    catalog_ = Catalog();
    db_ = std::make_unique<FileDatabase>(&catalog_, FileDatabaseOptions{});
    ASSERT_TRUE(db_->Populate().ok());
    opts_ = TunerOptions{};
    opts_.sched.max_containers = 8;
    opts_.sched.skyline_cap = 2;
    tuner_ = std::make_unique<OnlineIndexTuner>(&catalog_, opts_);
  }

  void BuildPartitions(const std::string& idx, int every, int offset) {
    auto st = catalog_.GetIndexState(idx);
    ASSERT_TRUE(st.ok());
    const auto n = static_cast<int>((*st)->num_partitions());
    for (int p = 0; p < n; ++p) {
      if ((p + offset) % every != 0) continue;
      ASSERT_TRUE(catalog_.MarkIndexPartitionBuilt(idx, p, 1.0).ok());
    }
  }

  std::string TableOf(const std::string& idx) {
    auto def = catalog_.GetIndexDef(idx);
    return def.ok() ? (*def)->table : "";
  }

  /// Puts the catalog (and, for some states, the dataflow's candidate
  /// list) into `state`. Returns extra non-candidate ids to probe.
  std::vector<std::string> Apply(State state, Dataflow* df) {
    std::vector<std::string> probes = {"no-such-index"};
    const std::vector<std::string> cands = df->candidate_indexes;
    switch (state) {
      case State::kNothingBuilt:
        break;
      case State::kPartiallyBuilt:
        for (size_t k = 0; k < cands.size(); ++k) {
          if (k % 3 == 2) continue;
          BuildPartitions(cands[k], 2, static_cast<int>(k));
        }
        break;
      case State::kFullyBuilt:
        for (const auto& idx : cands) BuildPartitions(idx, 1, 0);
        break;
      case State::kQuarantined:
        for (size_t k = 0; k < cands.size(); k += 2) {
          BuildPartitions(cands[k], 1, 0);
          catalog_.QuarantinePartition(cands[k], 0);
        }
        break;
      case State::kBatchInvalidated:
        for (size_t k = 0; k < cands.size(); ++k) {
          if (k % 4 != 3) BuildPartitions(cands[k], 1, 0);
        }
        for (const auto& table : df->input_tables) {
          EXPECT_TRUE(catalog_.ApplyBatchUpdate(table, {0}).ok());
        }
        break;
      case State::kStaleBuilt: {
        // Built partitions whose table partition moved on without the
        // invalidation sweep: built (IsBuilt) but not current (fraction).
        for (size_t k = 0; k < cands.size(); k += 2) {
          BuildPartitions(cands[k], 1, 0);
        }
        Catalog::RuntimeState built = catalog_.SaveState();
        for (const auto& table : df->input_tables) {
          EXPECT_TRUE(catalog_.ApplyBatchUpdate(table, {0}).ok());
        }
        Catalog::RuntimeState bumped = catalog_.SaveState();
        bumped.states = built.states;
        catalog_.RestoreState(bumped);
        break;
      }
      case State::kEqualSpeedupTies:
        // Same speedup everywhere and a network so fast that reading is
        // free: every candidate of a table has the same marginal gain, so
        // the size rule decides. A twin of every candidate (same table and
        // columns, so also the same size) leaves the id rule to decide.
        opts_.sched.net_mb_per_sec = 1e300;
        tuner_ = std::make_unique<OnlineIndexTuner>(&catalog_, opts_);
        for (const auto& idx : cands) {
          auto def = catalog_.GetIndexDef(idx);
          EXPECT_TRUE(def.ok());
          IndexDef twin = **def;
          twin.id = idx + "#twin";
          EXPECT_TRUE(catalog_.DefineIndex(twin).ok());
          df->candidate_indexes.push_back(twin.id);
        }
        for (const auto& idx : df->candidate_indexes) {
          df->index_speedup[idx] = 94.44;
        }
        BuildPartitions(cands.front(), 2, 0);
        break;
      case State::kUnknownCandidate:
        // An id the catalog never defined, and a repeated built candidate
        // (excluding it must exclude every copy).
        df->candidate_indexes.insert(df->candidate_indexes.begin() + 1,
                                     "ghost-index");
        df->index_speedup["ghost-index"] = 627.14;
        df->candidate_indexes.push_back(cands.front());
        BuildPartitions(cands.front(), 1, 0);
        BuildPartitions(cands.back(), 1, 0);
        break;
      case State::kBuiltNonCandidate: {
        // A fully built index, with a speedup entry, on a table the
        // dataflow reads but missing from its candidate list.
        const std::string table = TableOf(cands.front());
        IndexDef extra{"extra:" + table, table,
                       {FileDatabase::IndexableColumns().back()}};
        EXPECT_TRUE(catalog_.DefineIndex(extra).ok());
        BuildPartitions(extra.id, 1, 0);
        df->index_speedup[extra.id] = 627.14;
        BuildPartitions(cands[1], 2, 0);
        break;
      }
    }
    // Every built index that is not a candidate scores exactly 0.
    for (const auto& idx : catalog_.IndexIds()) {
      if (tuner_->IsBuilt(idx) &&
          std::find(df->candidate_indexes.begin(), df->candidate_indexes.end(),
                    idx) == df->candidate_indexes.end()) {
        probes.push_back(idx);
      }
    }
    return probes;
  }

  void CheckEquivalence(const Dataflow& df,
                        const std::vector<std::string>& probes) {
    const double net = opts_.sched.net_mb_per_sec;
    const Seconds q = opts_.sched.quantum;

    // Gains: every candidate and probe, both marginal directions.
    std::vector<std::string> ids = df.candidate_indexes;
    ids.insert(ids.end(), probes.begin(), probes.end());
    for (const auto& idx : ids) {
      SCOPED_TRACE(idx);
      EXPECT_TRUE(tuner_->EstimateDataflowGain(df, idx) ==
                  whatif_ref::EstimateDataflowGain(df, catalog_, net, q, idx));
      for (bool built : {false, true}) {
        EXPECT_TRUE(tuner_->MarginalGainQuanta(df, idx, built) ==
                    whatif_ref::MarginalGainQuanta(df, catalog_, net, q, idx,
                                                   built));
      }
    }
    const std::vector<double> batch = tuner_->EstimateDataflowGains(df);
    ASSERT_EQ(batch.size(), df.candidate_indexes.size());
    int credited = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string& idx = df.candidate_indexes[i];
      EXPECT_TRUE(batch[i] == whatif_ref::EstimateDataflowGain(df, catalog_,
                                                               net, q, idx))
          << idx;
      if (batch[i] > 0) ++credited;
    }
    EXPECT_GT(credited, 0);

    // Op costs: the one-shot wrappers, and the table under every
    // (exclude, include) pair of the op's own table's candidates.
    WhatIfTable table(df, catalog_);
    for (const auto& op : df.dag.ops()) {
      SCOPED_TRACE(op.name);
      ExpectSameCost(EffectiveOpCost(op, df, catalog_),
                     whatif_ref::EffectiveOpCostFiltered(op, df, catalog_, "",
                                                         ""));
      std::vector<std::string> same_table = {""};
      for (const auto& idx : df.candidate_indexes) {
        if (TableOf(idx) == op.input_table) same_table.push_back(idx);
      }
      for (const auto& ex : same_table) {
        for (const auto& in : same_table) {
          ExpectSameCost(
              table.OpCost(op, table.Slot(ex), table.Slot(in)),
              whatif_ref::EffectiveOpCostFiltered(op, df, catalog_, ex, in));
        }
      }
      if (same_table.size() > 1) {
        const std::string& idx = same_table[1];
        ExpectSameCost(
            EffectiveOpCostFiltered(op, df, catalog_, idx, ""),
            whatif_ref::EffectiveOpCostFiltered(op, df, catalog_, idx, ""));
        ExpectSameCost(
            EffectiveOpCostFiltered(op, df, catalog_, "", idx),
            whatif_ref::EffectiveOpCostFiltered(op, df, catalog_, "", idx));
      }
    }

    // Simulator costs: same durations, index and cache key per op.
    std::vector<Seconds> durations;
    std::vector<SimOpCost> costs;
    BuildDataflowCosts(df.dag, df, catalog_, net, &durations, &costs);
    for (const auto& op : df.dag.ops()) {
      const auto i = static_cast<size_t>(op.id);
      EffectiveCost want =
          whatif_ref::EffectiveOpCostFiltered(op, df, catalog_, "", "");
      EXPECT_TRUE(durations[i] == want.cpu_time + want.input_mb / net);
      EXPECT_TRUE(costs[i].cpu_time == want.cpu_time);
      EXPECT_TRUE(costs[i].input_mb == want.input_mb);
      EXPECT_EQ(costs[i].index_used, want.index_used);
      if (!want.index_used.empty()) {
        EXPECT_NE(costs[i].cache_key.find("|" + want.index_used),
                  std::string::npos);
      }
    }

    // The decision's batched gains match the one-shot EvaluateIndex.
    auto d = tuner_->OnDataflow(df, {}, 0.0);
    ASSERT_TRUE(d.ok());
    for (const auto& [idx, g] : d->gains) {
      IndexGains one = tuner_->EvaluateIndex(idx, {}, &df, 0.0);
      EXPECT_TRUE(g.g == one.g) << idx;
      EXPECT_TRUE(g.gt == one.gt) << idx;
      EXPECT_TRUE(g.gm == one.gm) << idx;
    }
  }

  Catalog catalog_;
  std::unique_ptr<FileDatabase> db_;
  TunerOptions opts_;
  std::unique_ptr<OnlineIndexTuner> tuner_;
};

TEST_P(WhatIfEquivalenceTest, TableMatchesPerIndexReference) {
  const State state = GetParam();
  uint64_t seed = 1000 + static_cast<uint64_t>(state);
  for (AppType app : {AppType::kMontage, AppType::kLigo, AppType::kCybershake}) {
    SCOPED_TRACE(std::string(AppTypeToString(app)) + "/" + StateName(state));
    // A fresh catalog per application so states do not accumulate.
    Reset();
    DataflowGenerator gen(db_.get(), seed++);
    Dataflow df = gen.Generate(app, 0, 0);
    ASSERT_FALSE(df.candidate_indexes.empty());
    std::vector<std::string> probes = Apply(state, &df);
    CheckEquivalence(df, probes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CatalogStates, WhatIfEquivalenceTest,
    ::testing::Values(State::kNothingBuilt, State::kPartiallyBuilt,
                      State::kFullyBuilt, State::kQuarantined,
                      State::kBatchInvalidated, State::kStaleBuilt,
                      State::kEqualSpeedupTies, State::kUnknownCandidate,
                      State::kBuiltNonCandidate),
    [](const ::testing::TestParamInfo<State>& info) {
      return std::string(StateName(info.param));
    });

}  // namespace
}  // namespace dfim
