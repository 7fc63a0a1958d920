#ifndef DFIM_DATAFLOW_COST_H_
#define DFIM_DATAFLOW_COST_H_

#include <string>
#include <string_view>
#include <vector>

#include "data/catalog.h"
#include "dataflow/dataflow.h"

namespace dfim {

/// \brief Effective resource needs of an operator given available indexes.
struct EffectiveCost {
  /// CPU runtime in seconds after index speedup.
  Seconds cpu_time = 0;
  /// MB read from the storage service (file and/or index partitions).
  MegaBytes input_mb = 0;
  /// The index applied (empty when none).
  std::string index_used;
  /// Built-and-current fraction of that index at evaluation time.
  double index_fraction = 0;
};

/// \brief A dataflow's candidate indexes resolved against one catalog state:
/// the what-if table every Eq. 4-5 input and every effective op cost is
/// computed from (DESIGN.md §5 item 4).
///
/// Each distinct candidate of `df.candidate_indexes` the catalog defines
/// gets one slot holding its speedup, whether it is built, its
/// built-and-current fraction, built size and full size. Slots are grouped
/// by table, in candidate order within a group, so an op's cost under any
/// (exclude, include) pair is a loop over its own table's few candidates. A
/// group's catalog state is resolved on its first use, so a one-shot query
/// touches one table only.
///
/// The table keeps pointers into `df` and `catalog`. It must not outlive
/// either, nor any catalog mutation (build, drop, quarantine, batch update,
/// restore): build a new table per catalog state instead.
class WhatIfTable {
 public:
  /// "No candidate": a base scan, no exclude/include, or an id that is not
  /// a defined candidate of the dataflow.
  static constexpr int kNone = -1;

  /// An op's what-if cost: the candidate slot it reads (kNone for a base
  /// scan) and that candidate's fraction.
  struct Choice {
    Seconds cpu_time = 0;
    MegaBytes input_mb = 0;
    int slot = kNone;
    double fraction = 0;
  };

  WhatIfTable(const Dataflow& df, const Catalog& catalog);

  int num_candidates() const { return static_cast<int>(cands_.size()); }
  /// Slot of position `i` of df.candidate_indexes (kNone when the catalog
  /// does not define that id; a repeated id shares its first slot).
  int SlotAt(size_t i) const { return slot_at_[i]; }
  /// Slot of `id`, or kNone when `id` is not a defined candidate.
  int Slot(const std::string& id) const;
  const std::string& id(int slot) const { return cands_[slot].def->id; }
  /// Table group of a slot.
  int group(int slot) const { return cands_[slot].group; }
  /// Slots of group `g` are [begin, end), in candidate order.
  int group_begin(int g) const { return groups_[g].begin; }
  int group_end(int g) const { return groups_[g].end; }
  /// Non-optional ops of `df.dag` reading group `g`'s table, in op order.
  const std::vector<int>& group_ops(int g) const { return groups_[g].ops; }

  /// True when the candidate has at least one built partition.
  bool built(int slot);
  /// Modelled full size (MB) of the candidate.
  MegaBytes full_size(int slot);

  /// Cost of an op of `op_time` seconds reading group `g`'s table, under
  /// the current catalog state minus candidate `exclude` (as if dropped)
  /// and with candidate `include` treated as fully built. The candidate
  /// with the lowest CPU time wins; ties keep the earlier candidate.
  Choice Choose(int g, Seconds op_time, int exclude, int include);

  /// Choose() for any operator, as an EffectiveCost. An op whose table no
  /// candidate covers costs its base scan.
  EffectiveCost OpCost(const Operator& op, int exclude = kNone,
                       int include = kNone);

 private:
  struct Candidate {
    const IndexDef* def = nullptr;
    int group = kNone;
    bool built = false;
    double speedup = 1.0;
    double fraction = 0;
    MegaBytes built_mb = 0;
    MegaBytes full_mb = 0;
  };
  struct Group {
    std::string_view table;
    int begin = 0;
    int end = 0;
    std::vector<int> ops;
    bool resolved = false;
    bool table_known = false;
    MegaBytes file_mb = 0;
  };

  /// Group reading `table`, or kNone.
  int FindGroup(std::string_view table) const;
  /// Resolves group `g`'s table and its candidates' catalog state once.
  Group& Resolved(int g);

  const Dataflow* df_;
  const Catalog* catalog_;
  /// Slots, grouped by table; groups sorted by table name.
  std::vector<Candidate> cands_;
  std::vector<int> slot_at_;
  std::vector<Group> groups_;
};

/// \brief Computes an operator's effective cost under the currently built
/// indexes (Algorithm 2, lines 1-5: "update op runtimes based on the
/// available index partitions").
///
/// An entry operator reading table F with a candidate index i (speedup s,
/// built-and-current fraction φ) runs in `t·((1-φ) + φ/s)` and reads
/// `|F|·((1-φ) + φ/s) + φ·|i|` MB — the indexed part of the input is
/// located via the index instead of scanned (paper §1 categories), at the
/// price of also reading the index partitions (paper §6.1: "the container
/// reads the index in addition to the input of the operator"). The best
/// candidate (minimum cpu_time) is chosen. Non-entry operators are
/// unaffected. One-shot form of WhatIfTable::OpCost.
EffectiveCost EffectiveOpCost(const Operator& op, const Dataflow& df,
                              const Catalog& catalog);

/// \brief Same, but pretending index `forced_index` is fully built
/// (fraction 1). Used for what-if gain estimation (Eq. 4-5 inputs).
EffectiveCost EffectiveOpCostWithIndex(const Operator& op, const Dataflow& df,
                                       const Catalog& catalog,
                                       const std::string& forced_index);

/// \brief What-if variant for marginal gain estimation: evaluates the op
/// under the currently built indexes, optionally excluding one candidate
/// (`exclude`, as if it were dropped) and/or treating one candidate as
/// fully built (`include`). Pass empty strings for no-ops. One-shot form of
/// WhatIfTable::OpCost.
EffectiveCost EffectiveOpCostFiltered(const Operator& op, const Dataflow& df,
                                      const Catalog& catalog,
                                      const std::string& exclude,
                                      const std::string& include);

/// \brief Baseline cost with no indexes at all.
EffectiveCost BaseOpCost(const Operator& op, const Catalog& catalog);

}  // namespace dfim

#endif  // DFIM_DATAFLOW_COST_H_
