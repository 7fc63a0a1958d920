#include "sched/load_balance_scheduler.h"

#include <algorithm>
#include <utility>

namespace dfim {

int LoadBalanceScheduler::AutoContainerCount(const Dag& dag,
                                             int max_containers) {
  auto order = dag.TopologicalOrder();
  if (!order.ok() || order->empty()) return 1;
  // Depth = longest path (in hops) from an entry op; width = the most
  // mandatory ops sharing a depth.
  std::vector<int> depth(dag.num_ops(), 0);
  int max_depth = 0;
  for (int id : *order) {
    for (int p : dag.parents(id)) {
      depth[static_cast<size_t>(id)] =
          std::max(depth[static_cast<size_t>(id)],
                   depth[static_cast<size_t>(p)] + 1);
    }
    max_depth = std::max(max_depth, depth[static_cast<size_t>(id)]);
  }
  std::vector<int> width(static_cast<size_t>(max_depth) + 1, 0);
  int best = 1;
  for (const auto& op : dag.ops()) {
    if (op.optional) continue;
    int w = ++width[static_cast<size_t>(depth[static_cast<size_t>(op.id)])];
    best = std::max(best, w);
  }
  return std::max(1, std::min(best, max_containers));
}

Result<Schedule> LoadBalanceScheduler::ScheduleDag(
    const Dag& dag, const std::vector<Seconds>& durations,
    int num_containers) const {
  if (durations.size() != dag.num_ops()) {
    return Status::InvalidArgument("durations size != number of ops");
  }
  if (num_containers == kAutoContainers) {
    num_containers = AutoContainerCount(dag, opts_.max_containers);
  }
  if (num_containers < 1) {
    return Status::InvalidArgument("need at least one container");
  }
  num_containers = std::min(num_containers, opts_.max_containers);
  DFIM_ASSIGN_OR_RETURN(std::vector<int> order, dag.TopologicalOrder());

  auto nc = static_cast<size_t>(num_containers);
  // Per-container timelines; appends are monotone, so Timeline::last_end()
  // is the container's availability point.
  std::vector<Timeline> tls(nc);
  std::vector<Seconds> load(nc, 0);  // accumulated work per container
  std::vector<Seconds> finish(dag.num_ops(), 0);
  std::vector<int> placed(dag.num_ops(), 0);
  // Producer outputs staged per container (transfer paid once, then local;
  // sorted vectors, same representation as PartialState::delivered).
  std::vector<std::vector<int>> delivered(nc);

  for (int id : order) {
    const Operator& op = dag.op(id);
    if (op.optional) continue;  // the baseline does not build indexes
    // Load balance: pick the least-loaded container, ignoring data
    // placement and dependency readiness.
    size_t c = 0;
    for (size_t i = 1; i < nc; ++i) {
      if (load[i] < load[c]) c = i;
    }
    Seconds est = tls[c].last_end();
    Seconds transfer_in = 0;
    for (int fid : dag.in_flows(id)) {
      const Flow& f = dag.flows()[static_cast<size_t>(fid)];
      est = std::max(est, finish[static_cast<size_t>(f.from)]);
      if (placed[static_cast<size_t>(f.from)] != static_cast<int>(c)) {
        auto& dl = delivered[c];
        auto it = std::lower_bound(dl.begin(), dl.end(), f.from);
        if (it == dl.end() || *it != f.from) {
          // Cross-container flows serialize on the consumer's NIC and are
          // staged once per container.
          dl.insert(it, f.from);
          transfer_in += f.size / opts_.net_mb_per_sec;
        }
      }
    }
    Seconds dur = durations[static_cast<size_t>(id)] + transfer_in;
    Assignment a;
    a.op_id = id;
    a.container = static_cast<int>(c);
    a.start = est;
    a.end = est + dur;
    a.optional = false;
    tls[c].Insert(a);
    load[c] += dur;
    finish[static_cast<size_t>(id)] = a.end;
    placed[static_cast<size_t>(id)] = static_cast<int>(c);
  }
  return Schedule(std::move(tls));
}

}  // namespace dfim
