// Reference skyline engine: the copy-everything expansion the probe/commit
// search replaced. Every candidate deep-copies its base state, inserts the
// placement, then recomputes every money/gap summary from scratch over all
// containers. Kept as the oracle SkylineScheduler must match bit for bit.
// Test-only; never linked into src/.

#ifndef DFIM_TESTS_ORACLES_SKYLINE_REF_H_
#define DFIM_TESTS_ORACLES_SKYLINE_REF_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dataflow/dag.h"
#include "sched/partial_state.h"
#include "sched/schedule.h"

namespace dfim::skyline_ref {

/// Rebuilds every cached summary (gap, money, max_gap) from the timelines.
inline void RecomputeCaches(PartialState* s, Seconds quantum) {
  s->gap.resize(s->timelines.size());
  s->money = 0;
  s->max_gap = 0;
  for (size_t i = 0; i < s->timelines.size(); ++i) {
    const Timeline& tl = s->timelines[i];
    s->gap[i] = tl.MaxGap(quantum);
    s->money += tl.Quanta(quantum);
    s->max_gap = std::max(s->max_gap, s->gap[i]);
  }
}

/// Places `op` (effective duration `dur`) from `base` onto container `c`
/// into `*out`. False when infeasible, or when an optional op would raise
/// the bill.
inline bool NaiveAssign(const PartialState& base, const Dag& dag,
                        const Operator& op, Seconds dur, int c,
                        Seconds quantum, double net, PartialState* out) {
  Seconds est = 0;
  Seconds transfer_in = 0;
  std::vector<int> newly_delivered;
  const std::vector<int>* delivered_c =
      c < static_cast<int>(base.delivered.size())
          ? &base.delivered[static_cast<size_t>(c)]
          : nullptr;
  for (int fid : dag.in_flows(op.id)) {
    const Flow& f = dag.flows()[static_cast<size_t>(fid)];
    Seconds pf = base.op_finish[static_cast<size_t>(f.from)];
    if (pf < 0) return false;
    est = std::max(est, pf);
    if (base.op_container[static_cast<size_t>(f.from)] != c) {
      bool staged =
          delivered_c != nullptr &&
          std::binary_search(delivered_c->begin(), delivered_c->end(), f.from);
      if (!staged) {
        transfer_in += f.size / net;
        newly_delivered.push_back(f.from);
      }
    }
  }
  Seconds occupancy = dur + transfer_in;
  *out = base;
  if (c >= static_cast<int>(out->timelines.size())) {
    out->timelines.resize(static_cast<size_t>(c) + 1);
    out->delivered.resize(static_cast<size_t>(c) + 1);
  }
  auto& tl = out->timelines[static_cast<size_t>(c)];
  auto& dl = out->delivered[static_cast<size_t>(c)];
  for (int p : newly_delivered) {
    dl.insert(std::lower_bound(dl.begin(), dl.end(), p), p);
  }
  Seconds start = tl.FindSlot(est, occupancy);
  Assignment a;
  a.op_id = op.id;
  a.container = c;
  a.start = start;
  a.end = start + occupancy;
  a.optional = op.optional;
  tl.Insert(a);
  RecomputeCaches(out, quantum);
  if (op.optional) {
    if (out->money > base.money) return false;
  } else {
    out->makespan = std::max(base.makespan, a.end);
  }
  out->op_finish[static_cast<size_t>(op.id)] = a.end;
  out->op_container[static_cast<size_t>(op.id)] = c;
  out->num_ops = base.num_ops + 1;
  return true;
}

/// SkylineScheduler::ScheduleDag with the naive expansion: same operator
/// order, candidate enumeration and prune, every candidate materialized.
inline Result<std::vector<Schedule>> ScheduleDag(
    const SchedulerOptions& opts, const Dag& dag,
    const std::vector<Seconds>& durations, bool place_optional = true) {
  if (durations.size() != dag.num_ops()) {
    return Status::InvalidArgument("durations size != number of ops");
  }
  if (opts.max_containers < 1) {
    return Status::InvalidArgument("max_containers must be >= 1");
  }
  DFIM_ASSIGN_OR_RETURN(std::vector<int> order, dag.TopologicalOrder());
  std::vector<int> mandatory;
  std::vector<int> optional;
  for (int id : order) {
    (dag.op(id).optional ? optional : mandatory).push_back(id);
  }
  std::stable_sort(optional.begin(), optional.end(), [&dag](int a, int b) {
    return dag.op(a).gain > dag.op(b).gain;
  });

  PartialState empty;
  empty.Reset(dag.num_ops());
  std::vector<PartialState> skyline{empty};
  auto expand = [&](int op_id, bool keep_base) {
    const Operator& op = dag.op(op_id);
    Seconds dur = durations[static_cast<size_t>(op_id)];
    std::vector<PartialState> pool;
    for (const PartialState& base : skyline) {
      if (keep_base) pool.push_back(base);
      int used = static_cast<int>(base.timelines.size());
      int limit = std::min(opts.max_containers, used + 1);
      for (int c = 0; c < limit; ++c) {
        PartialState next;
        if (NaiveAssign(base, dag, op, dur, c, opts.quantum,
                        opts.net_mb_per_sec, &next)) {
          pool.push_back(std::move(next));
        }
      }
    }
    if (!pool.empty()) {
      SkylinePrune(&pool, opts.skyline_cap);
      skyline = std::move(pool);
    }
  };
  for (int id : mandatory) expand(id, /*keep_base=*/false);
  if (place_optional) {
    for (int id : optional) expand(id, /*keep_base=*/true);
  }

  std::vector<Schedule> out;
  out.reserve(skyline.size());
  for (PartialState& p : skyline) out.emplace_back(std::move(p.timelines));
  return out;
}

}  // namespace dfim::skyline_ref

#endif  // DFIM_TESTS_ORACLES_SKYLINE_REF_H_
