#include "core/tuner.h"

#include <algorithm>
#include <optional>
#include <set>

#include "dataflow/build_index_ops.h"

namespace dfim {
namespace {

/// Cache key for an op's external input under the current catalog state:
/// table path + versions + the index it reads alongside.
std::string CacheKeyFor(const Operator& op, const EffectiveCost& cost,
                        const Catalog& catalog) {
  if (op.input_table.empty()) return "";
  int64_t version_sum = 0;
  auto table = catalog.GetTable(op.input_table);
  if (table.ok()) {
    for (const auto& p : (*table)->partitions()) version_sum += p.version;
  }
  std::string key = op.input_table + "|v" + std::to_string(version_sum);
  if (!cost.index_used.empty()) key += "|" + cost.index_used;
  return key;
}

}  // namespace

void BuildDataflowCosts(const Dag& dag, const Dataflow& df,
                        const Catalog& catalog, double net_mb_per_sec,
                        std::vector<Seconds>* durations,
                        std::vector<SimOpCost>* costs) {
  durations->assign(dag.num_ops(), 0);
  costs->assign(dag.num_ops(), SimOpCost{});
  WhatIfTable whatif(df, catalog);
  for (const auto& op : dag.ops()) {
    auto i = static_cast<size_t>(op.id);
    if (op.optional) {
      // Build ops: the cost model's build time already includes their IO.
      (*durations)[i] = op.time;
      (*costs)[i] = SimOpCost{op.time, 0, ""};
      continue;
    }
    EffectiveCost c = whatif.OpCost(op);
    (*durations)[i] = c.cpu_time + c.input_mb / net_mb_per_sec;
    SimOpCost& sc = (*costs)[i];
    sc.cpu_time = c.cpu_time;
    sc.input_mb = c.input_mb;
    sc.cache_key = CacheKeyFor(op, c, catalog);
    // Which index backs the read — the integrity layer binds verification
    // verdicts per distinct index (empty = base scan, nothing to verify).
    sc.index_used = c.index_used;
  }
}

namespace {

// Normalizes the scheduler knobs before they reach the interleaver's
// SkylineScheduler: zero/negative thread counts mean "serial" and the
// skyline must keep at least one survivor per round.
SchedulerOptions NormalizedSched(SchedulerOptions s) {
  s.num_threads = std::max(1, s.num_threads);
  s.skyline_cap = std::max(1, s.skyline_cap);
  return s;
}

}  // namespace

OnlineIndexTuner::OnlineIndexTuner(Catalog* catalog, TunerOptions options)
    : catalog_(catalog),
      opts_(options),
      gain_model_(options.gain, options.pricing),
      interleaver_(NormalizedSched(options.sched), options.mode) {
  opts_.sched = NormalizedSched(opts_.sched);
}

namespace {

/// Every Eq. 4-5 what-if gain of one dataflow under one catalog state, from
/// one what-if table. Each candidate's marginal value is computed once and
/// memoised; the per-table competition of unbuilt candidates reads those
/// values instead of recomputing every rival's.
class WhatIfGains {
 public:
  WhatIfGains(const Dataflow& df, const Catalog& catalog,
              const SchedulerOptions& sched)
      : df_(df),
        table_(df, catalog),
        net_(sched.net_mb_per_sec),
        quantum_(sched.quantum),
        value_(static_cast<size_t>(table_.num_candidates())) {}

  const WhatIfTable& table() const { return table_; }

  /// Retention value of candidate `slot` when `built` (cost without it
  /// minus cost with it), build value otherwise (cost now minus cost with
  /// it fully built), in quanta.
  double Marginal(int slot, bool built) {
    const int g = table_.group(slot);
    constexpr int kNone = WhatIfTable::kNone;
    double saving = 0;
    for (int i : table_.group_ops(g)) {
      const Seconds t = df_.dag.ops()[static_cast<size_t>(i)].time;
      WhatIfTable::Choice a, b;
      if (built) {
        a = table_.Choose(g, t, slot, kNone);
        b = table_.Choose(g, t, kNone, kNone);
      } else {
        a = table_.Choose(g, t, kNone, kNone);
        b = table_.Choose(g, t, kNone, slot);
      }
      double delta =
          (a.cpu_time + a.input_mb / net_) - (b.cpu_time + b.input_mb / net_);
      if (delta > 0) saving += delta;
    }
    return saving / quantum_;
  }

  /// What-if gain of candidate `slot` for the dataflow (feeds Eq. 4-5); a
  /// kNone slot (not a defined candidate) earns exactly 0.
  double Estimate(int slot) {
    if (slot == WhatIfTable::kNone) return 0;
    if (table_.built(slot)) return Value(slot);
    // Unbuilt candidates compete: only the one with the best marginal
    // improvement for this dataflow's table earns the gain, because an
    // operator reads at most one index (crediting runners-up would build
    // redundant indexes — the index-interaction issue the paper defers,
    // §2: "delete indexes that become obsolete when index interactions...
    // are identified"). Ties go to the smaller index, then the smaller id.
    const double my = Value(slot);
    if (my <= 0) return 0;
    const MegaBytes mine = table_.full_size(slot);
    const int g = table_.group(slot);
    for (int other = table_.group_begin(g); other < table_.group_end(g);
         ++other) {
      if (other == slot || table_.built(other)) continue;
      const double others = Value(other);
      if (others > my) return 0;
      if (others == my) {
        const MegaBytes theirs = table_.full_size(other);
        if (theirs < mine ||
            (theirs == mine && table_.id(other) < table_.id(slot))) {
          return 0;
        }
      }
    }
    return my;
  }

 private:
  /// Memoised Marginal(slot, built(slot)).
  double Value(int slot) {
    std::optional<double>& v = value_[static_cast<size_t>(slot)];
    if (!v) v = Marginal(slot, table_.built(slot));
    return *v;
  }

  const Dataflow& df_;
  WhatIfTable table_;
  const double net_;
  const Seconds quantum_;
  std::vector<std::optional<double>> value_;
};

}  // namespace

double OnlineIndexTuner::MarginalGainQuanta(const Dataflow& df,
                                            const std::string& index_id,
                                            bool built) const {
  WhatIfGains whatif(df, *catalog_, opts_.sched);
  const int slot = whatif.table().Slot(index_id);
  // A non-candidate excludes or forces nothing: both sides of every delta
  // are the same cost, so its marginal value is exactly 0.
  return slot == WhatIfTable::kNone ? 0 : whatif.Marginal(slot, built);
}

bool OnlineIndexTuner::IsBuilt(const std::string& index_id) const {
  auto st = catalog_->GetIndexState(index_id);
  return st.ok() && (*st)->NumBuilt() > 0;
}

double OnlineIndexTuner::EstimateDataflowGain(const Dataflow& df,
                                              const std::string& index_id) const {
  // A non-candidate scores exactly 0 (see MarginalGainQuanta), so it needs
  // no table.
  const auto& cands = df.candidate_indexes;
  if (std::find(cands.begin(), cands.end(), index_id) == cands.end()) return 0;
  WhatIfGains whatif(df, *catalog_, opts_.sched);
  return whatif.Estimate(whatif.table().Slot(index_id));
}

std::vector<double> OnlineIndexTuner::EstimateDataflowGains(
    const Dataflow& df) const {
  WhatIfGains whatif(df, *catalog_, opts_.sched);
  std::vector<double> out(df.candidate_indexes.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = whatif.Estimate(whatif.table().SlotAt(i));
  }
  return out;
}

double OnlineIndexTuner::FullBuildQuanta(const std::string& index_id) const {
  // ti(idx) is a constant of the index (Eq. 5 / Table 1), not the remaining
  // work: a built index keeps justifying its build effort against its faded
  // gains, which is exactly what lets gt(idx, t) drop to <= 0 and trigger
  // deletion once the workload moves on.
  auto t = catalog_->FullBuildTime(index_id, opts_.sched.net_mb_per_sec);
  return t.ok() ? *t / opts_.sched.quantum : 0;
}

IndexGains OnlineIndexTuner::EvaluateIndex(
    const std::string& index_id, const std::deque<DataflowRecord>& history,
    const Dataflow* current, Seconds now) const {
  return EvaluateIndexWith(
      index_id, history,
      current != nullptr ? EstimateDataflowGain(*current, index_id) : 0, now);
}

IndexGains OnlineIndexTuner::EvaluateIndexWith(
    const std::string& index_id, const std::deque<DataflowRecord>& history,
    double current_gain, Seconds now) const {
  std::vector<GainContribution> uses;
  std::vector<double> reference_times;  // quanta, for adaptive fading
  for (const auto& rec : history) {
    auto it = rec.time_gain.find(index_id);
    if (it == rec.time_gain.end()) continue;
    GainContribution c;
    c.gtd_quanta = it->second;
    auto im = rec.money_gain.find(index_id);
    c.gmd_quanta = im == rec.money_gain.end() ? it->second : im->second;
    c.delta_t_quanta = (now - rec.finished_at) / opts_.sched.quantum;
    if (c.delta_t_quanta < 0) c.delta_t_quanta = 0;
    uses.push_back(c);
    reference_times.push_back(rec.finished_at / opts_.sched.quantum);
  }
  if (current_gain > 0) {
    uses.push_back(GainContribution{current_gain, current_gain, 0});
  }
  double ti = FullBuildQuanta(index_id);
  auto size = catalog_->FullSize(index_id);
  double d_override = 0;
  if (opts_.gain.adaptive_fading && reference_times.size() >= 2) {
    // Learn D from the index's mean inter-reference gap: an index used
    // every G quanta should not be fully faded between uses.
    double gap_sum = 0;
    for (size_t i = 1; i < reference_times.size(); ++i) {
      gap_sum += reference_times[i] - reference_times[i - 1];
    }
    double mean_gap = gap_sum / static_cast<double>(reference_times.size() - 1);
    d_override = std::clamp(mean_gap, opts_.gain.fade_d_quanta,
                            opts_.gain.adaptive_fading_max_quanta);
  }
  return gain_model_.Evaluate(uses, ti, /*build_cost_quanta=*/ti,
                              size.ok() ? *size : 0, d_override);
}

Result<TunerDecision> OnlineIndexTuner::OnDataflow(
    const Dataflow& df, const std::deque<DataflowRecord>& history, Seconds now,
    const BuildProgress* progress, double build_fraction,
    int max_containers) const {
  TunerDecision d;

  // The potential set Pi: the dataflow's candidates plus indexes seen in
  // the history window plus everything currently built.
  std::set<std::string> potential(df.candidate_indexes.begin(),
                                  df.candidate_indexes.end());
  for (const auto& rec : history) {
    for (const auto& [idx, _] : rec.time_gain) potential.insert(idx);
  }
  std::vector<std::string> available;  // Ai: indexes with built partitions
  for (const auto& idx : catalog_->IndexIds()) {
    auto st = catalog_->GetIndexState(idx);
    if (st.ok() && (*st)->NumBuilt() > 0) {
      available.push_back(idx);
      potential.insert(idx);
    }
  }

  // Lines 2-9: evaluate gains, collect beneficial indexes.
  std::vector<std::pair<std::string, double>> beneficial;  // (idx, g)
  {
    WhatIfGains whatif(df, *catalog_, opts_.sched);
    for (const auto& idx : potential) {
      const double est = whatif.Estimate(whatif.table().Slot(idx));
      IndexGains g = EvaluateIndexWith(idx, history, est, now);
      d.gains[idx] = g;
      if (g.beneficial) beneficial.emplace_back(idx, g.g);
    }
  }
  std::stable_sort(
      beneficial.begin(), beneficial.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });

  // Overload brownout: under queue pressure only the top fraction of
  // beneficial indexes (by gain) keeps its build ops; the rest are shed
  // before any build op is materialized.
  if (build_fraction < 1.0 && !beneficial.empty()) {
    auto keep = static_cast<size_t>(std::ceil(
        std::max(0.0, build_fraction) * static_cast<double>(beneficial.size())));
    if (keep < beneficial.size()) {
      d.builds_shed = static_cast<int>(beneficial.size() - keep);
      beneficial.resize(keep);
    }
  }

  // Build the combined DAG: dataflow ops + build ops of beneficial indexes.
  d.combined = df.dag;
  int next_id = static_cast<int>(d.combined.num_ops());
  for (const auto& [idx, g] : beneficial) {
    auto ops = MakeBuildIndexOps(*catalog_, idx, opts_.sched.net_mb_per_sec,
                                 &next_id, progress);
    if (!ops.ok() || ops->empty()) continue;
    double per_op_gain = g / static_cast<double>(ops->size());
    for (auto& op : *ops) {
      op.gain = per_op_gain;
      d.combined.AddOperator(std::move(op));
    }
  }
  // Recompute next ids after AddOperator reassigned them densely.
  BuildDataflowCosts(d.combined, df, *catalog_, opts_.sched.net_mb_per_sec,
                     &d.durations, &d.costs);

  // Lines 10-11: interleave and select the fastest schedule. An elastic
  // fleet bound below the configured cap swaps in a one-shot interleaver so
  // the skyline never plans onto containers the service does not have; the
  // default (0 = configured cap) keeps the member interleaver bit-identical.
  if (max_containers > 0 && max_containers != opts_.sched.max_containers) {
    SchedulerOptions bounded = opts_.sched;
    bounded.max_containers = max_containers;
    Interleaver scoped(bounded, opts_.mode);
    DFIM_ASSIGN_OR_RETURN(
        d.chosen, scoped.Interleave(d.combined, d.durations, build_fraction));
  } else {
    DFIM_ASSIGN_OR_RETURN(
        d.chosen,
        interleaver_.Interleave(d.combined, d.durations, build_fraction));
  }
  for (const auto& a : d.chosen.assignments()) {
    if (a.optional) ++d.build_ops_scheduled;
  }

  // Lines 13-19: flag non-beneficial available indexes for deletion.
  if (opts_.delete_nonbeneficial) {
    for (const auto& idx : available) {
      auto it = d.gains.find(idx);
      if (it != d.gains.end() && it->second.deletable) {
        d.to_delete.push_back(idx);
      }
    }
  }
  return d;
}

Result<std::vector<std::string>> OnlineIndexTuner::EvaluateDeletions(
    const std::deque<DataflowRecord>& history, Seconds now) const {
  std::vector<std::string> out;
  if (!opts_.delete_nonbeneficial) return out;
  for (const auto& idx : catalog_->IndexIds()) {
    auto st = catalog_->GetIndexState(idx);
    if (!st.ok() || (*st)->NumBuilt() == 0) continue;
    IndexGains g = EvaluateIndex(idx, history, nullptr, now);
    if (g.deletable) out.push_back(idx);
  }
  return out;
}

}  // namespace dfim
