// Reference what-if engine: the per-index loops the what-if table replaced
// (one catalog lookup per (op, candidate) pair), kept verbatim as the oracle
// the table must match bit for bit. Test-only; never linked into src/.

#ifndef DFIM_TESTS_ORACLES_WHATIF_REF_H_
#define DFIM_TESTS_ORACLES_WHATIF_REF_H_

#include <string>

#include "common/units.h"
#include "data/catalog.h"
#include "dataflow/cost.h"
#include "dataflow/dataflow.h"

namespace dfim::whatif_ref {

/// Scales cost for an index with speedup `s` covering fraction `phi`.
inline double Scale(double phi, double s) { return (1.0 - phi) + phi / s; }

inline EffectiveCost CostWith(const Operator& op, const Dataflow& df,
                              const Catalog& catalog,
                              const std::string& index_id,
                              double forced_fraction) {
  EffectiveCost base;
  base.cpu_time = op.time;
  base.input_mb = 0;
  if (op.input_table.empty()) return base;
  auto table = catalog.GetTable(op.input_table);
  if (!table.ok()) return base;
  MegaBytes file_mb = (*table)->TotalSize();
  base.input_mb = file_mb;
  if (index_id.empty()) return base;

  double phi = forced_fraction;
  MegaBytes idx_mb = 0;
  if (phi < 0) {  // use the real catalog state
    auto frac = catalog.BuiltFraction(index_id);
    if (!frac.ok()) return base;
    phi = *frac;
    auto built = catalog.BuiltSize(index_id);
    idx_mb = built.ok() ? *built : 0;
  } else {
    auto full = catalog.FullSize(index_id);
    idx_mb = full.ok() ? *full * phi : 0;
  }
  if (phi <= 0) return base;

  double s = df.SpeedupOf(index_id);
  if (s <= 1.0) return base;
  EffectiveCost out;
  out.cpu_time = op.time * Scale(phi, s);
  out.input_mb = file_mb * Scale(phi, s) + idx_mb;
  out.index_used = index_id;
  out.index_fraction = phi;
  return out;
}

inline EffectiveCost EffectiveOpCostFiltered(const Operator& op,
                                             const Dataflow& df,
                                             const Catalog& catalog,
                                             const std::string& exclude,
                                             const std::string& include) {
  EffectiveCost best = dfim::BaseOpCost(op, catalog);
  if (op.input_table.empty()) return best;
  for (const auto& idx : df.candidate_indexes) {
    if (idx == exclude) continue;
    auto def = catalog.GetIndexDef(idx);
    if (!def.ok() || (*def)->table != op.input_table) continue;
    EffectiveCost c =
        CostWith(op, df, catalog, idx, idx == include ? 1.0 : -1.0);
    if (c.cpu_time < best.cpu_time) best = c;
  }
  return best;
}

inline bool IsBuilt(const Catalog& catalog, const std::string& index_id) {
  auto st = catalog.GetIndexState(index_id);
  return st.ok() && (*st)->NumBuilt() > 0;
}

inline double MarginalGainQuanta(const Dataflow& df, const Catalog& catalog,
                                 double net_mb_per_sec, Seconds quantum,
                                 const std::string& index_id, bool built) {
  auto def = catalog.GetIndexDef(index_id);
  if (!def.ok()) return 0;
  double net = net_mb_per_sec;
  double saving = 0;
  for (const auto& op : df.dag.ops()) {
    if (op.optional || op.input_table != (*def)->table) continue;
    EffectiveCost a, b;
    if (built) {
      a = whatif_ref::EffectiveOpCostFiltered(op, df, catalog, index_id, "");
      b = whatif_ref::EffectiveOpCostFiltered(op, df, catalog, "", "");
    } else {
      a = whatif_ref::EffectiveOpCostFiltered(op, df, catalog, "", "");
      b = whatif_ref::EffectiveOpCostFiltered(op, df, catalog, "", index_id);
    }
    double delta =
        (a.cpu_time + a.input_mb / net) - (b.cpu_time + b.input_mb / net);
    if (delta > 0) saving += delta;
  }
  return saving / quantum;
}

inline double EstimateDataflowGain(const Dataflow& df, const Catalog& catalog,
                                   double net_mb_per_sec, Seconds quantum,
                                   const std::string& index_id) {
  auto def = catalog.GetIndexDef(index_id);
  if (!def.ok()) return 0;
  if (IsBuilt(catalog, index_id)) {
    return MarginalGainQuanta(df, catalog, net_mb_per_sec, quantum, index_id,
                              /*built=*/true);
  }
  double my = MarginalGainQuanta(df, catalog, net_mb_per_sec, quantum,
                                 index_id, /*built=*/false);
  if (my <= 0) return 0;
  auto my_size = catalog.FullSize(index_id);
  for (const auto& other : df.candidate_indexes) {
    if (other == index_id || IsBuilt(catalog, other)) continue;
    auto odef = catalog.GetIndexDef(other);
    if (!odef.ok() || (*odef)->table != (*def)->table) continue;
    double others = MarginalGainQuanta(df, catalog, net_mb_per_sec, quantum,
                                       other, /*built=*/false);
    if (others > my) return 0;
    if (others == my) {
      auto osize = catalog.FullSize(other);
      MegaBytes mine = my_size.ok() ? *my_size : 0;
      MegaBytes theirs = osize.ok() ? *osize : 0;
      if (theirs < mine || (theirs == mine && other < index_id)) return 0;
    }
  }
  return my;
}

}  // namespace dfim::whatif_ref

#endif  // DFIM_TESTS_ORACLES_WHATIF_REF_H_
