#include "sched/skyline_scheduler.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace dfim {

Result<std::vector<Schedule>> SkylineScheduler::ScheduleDag(
    const Dag& dag, const std::vector<Seconds>& durations,
    bool place_optional) const {
  if (durations.size() != dag.num_ops()) {
    return Status::InvalidArgument("durations size != number of ops");
  }
  if (opts_.max_containers < 1) {
    return Status::InvalidArgument("max_containers must be >= 1");
  }
  DFIM_ASSIGN_OR_RETURN(std::vector<int> order, dag.TopologicalOrder());

  // Split mandatory (scheduled in topological order) from optional ops
  // (offered afterwards, best gain first).
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

  // Probe every candidate copy-free, prune the probes, materialize only the
  // survivors. Buffers are pooled across rounds.
  std::unique_ptr<ProbePool> pool;
  if (opts_.num_threads > 1) {
    pool = std::make_unique<ProbePool>(opts_.num_threads);
  }
  std::vector<PlacementProbe> probes;
  std::vector<size_t> slot_off;
  std::vector<PartialState> next_sky;

  auto expand = [this, &dag, &durations, &skyline, &pool, &probes, &slot_off,
                 &next_sky](int op_id, bool keep_base) {
    const Operator& op = dag.op(op_id);
    Seconds dur = durations[static_cast<size_t>(op_id)];
    // Slot layout per base: [keep-base?] then one slot per candidate
    // container. Slot order is the serial enumeration order, which makes
    // the parallel merge (and thus the whole search) bit-identical to the
    // serial run.
    const size_t kb = keep_base ? 1 : 0;
    slot_off.clear();
    size_t total = 0;
    for (const PartialState& base : skyline) {
      slot_off.push_back(total);
      int used = static_cast<int>(base.timelines.size());
      total += kb + static_cast<size_t>(std::min(opts_.max_containers, used + 1));
    }
    probes.assign(total, PlacementProbe{});
    auto eval = [&](size_t k) {
      auto it = std::upper_bound(slot_off.begin(), slot_off.end(), k);
      auto b = static_cast<size_t>(it - slot_off.begin()) - 1;
      size_t rel = k - slot_off[b];
      PlacementProbe* out = &probes[k];
      const PartialState& base = skyline[b];
      if (kb != 0 && rel == 0) {
        out->base = static_cast<int>(b);
        out->container = PlacementProbe::kKeepBase;
        out->makespan = base.makespan;
        out->money = base.money;
        out->num_ops = base.num_ops;
        out->max_gap = base.max_gap;
        out->valid = true;
        return;
      }
      int c = static_cast<int>(rel - kb);
      ProbePlacement(base, static_cast<int>(b), dag, op, dur, c, opts_.quantum,
                     opts_.net_mb_per_sec, out);
    };
    if (pool != nullptr) {
      pool->Run(total, eval);
    } else {
      for (size_t k = 0; k < total; ++k) eval(k);
    }
    probes.erase(std::remove_if(probes.begin(), probes.end(),
                                [](const PlacementProbe& p) { return !p.valid; }),
                 probes.end());
    if (probes.empty()) return;
    SkylinePrune(&probes, opts_.skyline_cap);
    next_sky.clear();
    next_sky.reserve(probes.size());
    for (const PlacementProbe& p : probes) {
      if (p.container == PlacementProbe::kKeepBase) {
        next_sky.push_back(skyline[static_cast<size_t>(p.base)]);
      } else {
        next_sky.emplace_back();
        CommitPlacement(skyline[static_cast<size_t>(p.base)], dag, p,
                        &next_sky.back());
      }
    }
    skyline.swap(next_sky);
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

}  // namespace dfim
