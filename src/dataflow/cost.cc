#include "dataflow/cost.h"

#include <algorithm>

namespace dfim {
namespace {

/// Scales cost for an index with speedup `s` covering fraction `phi`.
double Scale(double phi, double s) { return (1.0 - phi) + phi / s; }

}  // namespace

WhatIfTable::WhatIfTable(const Dataflow& df, const Catalog& catalog)
    : df_(&df), catalog_(&catalog) {
  const auto& ids = df.candidate_indexes;
  // Every defined candidate as (table, position), sorted so that each
  // table's candidates form one run in candidate order. Undefined ids never
  // match a table, so they cost nothing and score 0.
  struct Entry {
    std::string_view table;
    int pos;
    const IndexDef* def;
  };
  std::vector<Entry> entries;
  entries.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto def = catalog.GetIndexDef(ids[i]);
    if (def.ok()) entries.push_back({(*def)->table, static_cast<int>(i), *def});
  }
  auto by_table = [](const Entry& a, const Entry& b) {
    const int c = a.table.compare(b.table);
    return c != 0 ? c < 0 : a.pos < b.pos;
  };
  // Generated dataflows list candidates file by file, already in order.
  if (!std::is_sorted(entries.begin(), entries.end(), by_table)) {
    std::sort(entries.begin(), entries.end(), by_table);
  }
  slot_at_.assign(ids.size(), kNone);
  cands_.reserve(entries.size());
  groups_.reserve(entries.size());
  for (const Entry& e : entries) {
    if (groups_.empty() || groups_.back().table != e.table) {
      groups_.emplace_back();
      groups_.back().table = e.table;
      groups_.back().begin = static_cast<int>(cands_.size());
      groups_.back().end = groups_.back().begin;
    }
    Group& g = groups_.back();
    // A repeated id shares its first slot: the copy can never beat it
    // (same cost, strict `<`), and exclude/include match every copy alike.
    int slot = g.begin;
    while (slot < g.end && cands_[static_cast<size_t>(slot)].def != e.def) {
      ++slot;
    }
    if (slot == g.end) {
      Candidate c;
      c.def = e.def;
      c.group = static_cast<int>(groups_.size()) - 1;
      cands_.push_back(c);
      g.end = static_cast<int>(cands_.size());
    }
    slot_at_[static_cast<size_t>(e.pos)] = slot;
  }
  const auto& ops = df.dag.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].optional || ops[i].input_table.empty()) continue;
    const int g = FindGroup(ops[i].input_table);
    if (g != kNone) {
      groups_[static_cast<size_t>(g)].ops.push_back(static_cast<int>(i));
    }
  }
}

int WhatIfTable::FindGroup(std::string_view table) const {
  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), table,
      [](const Group& g, std::string_view t) { return g.table < t; });
  if (it == groups_.end() || it->table != table) return kNone;
  return static_cast<int>(it - groups_.begin());
}

int WhatIfTable::Slot(const std::string& id) const {
  auto def = catalog_->GetIndexDef(id);
  if (!def.ok()) return kNone;
  const int g = FindGroup((*def)->table);
  if (g == kNone) return kNone;
  for (int s = group_begin(g); s < group_end(g); ++s) {
    if (cands_[static_cast<size_t>(s)].def == *def) return s;
  }
  return kNone;
}

WhatIfTable::Group& WhatIfTable::Resolved(int group) {
  Group& g = groups_[static_cast<size_t>(group)];
  if (g.resolved) return g;
  g.resolved = true;
  auto table = catalog_->GetTable(cands_[static_cast<size_t>(g.begin)].def->table);
  g.table_known = table.ok();
  if (g.table_known) g.file_mb = (*table)->TotalSize();
  for (int s = g.begin; s < g.end; ++s) {
    Candidate& c = cands_[static_cast<size_t>(s)];
    const std::string& id = c.def->id;
    auto st = catalog_->GetIndexState(id);
    c.built = st.ok() && (*st)->NumBuilt() > 0;
    c.speedup = df_->SpeedupOf(id);
    auto frac = catalog_->BuiltFraction(id);
    c.fraction = frac.ok() ? *frac : 0;
    auto built = catalog_->BuiltSize(id);
    c.built_mb = built.ok() ? *built : 0;
    auto full = catalog_->FullSize(id);
    c.full_mb = full.ok() ? *full : 0;
  }
  return g;
}

bool WhatIfTable::built(int slot) {
  Resolved(group(slot));
  return cands_[static_cast<size_t>(slot)].built;
}

MegaBytes WhatIfTable::full_size(int slot) {
  Resolved(group(slot));
  return cands_[static_cast<size_t>(slot)].full_mb;
}

WhatIfTable::Choice WhatIfTable::Choose(int group, Seconds op_time,
                                        int exclude, int include) {
  const Group& g = Resolved(group);
  Choice best;
  best.cpu_time = op_time;
  if (!g.table_known) return best;
  best.input_mb = g.file_mb;
  for (int s = g.begin; s < g.end; ++s) {
    if (s == exclude) continue;
    const Candidate& c = cands_[static_cast<size_t>(s)];
    const bool forced = s == include;
    // A forced candidate reads its full size; otherwise the built and
    // current fraction of it, at its built size.
    const double phi = forced ? 1.0 : c.fraction;
    if (phi <= 0 || c.speedup <= 1.0) continue;
    const Seconds cpu = op_time * Scale(phi, c.speedup);
    if (cpu < best.cpu_time) {
      const MegaBytes idx_mb = forced ? c.full_mb * phi : c.built_mb;
      best = Choice{cpu, g.file_mb * Scale(phi, c.speedup) + idx_mb, s, phi};
    }
  }
  return best;
}

EffectiveCost WhatIfTable::OpCost(const Operator& op, int exclude,
                                  int include) {
  const int g = op.input_table.empty() ? kNone : FindGroup(op.input_table);
  if (g == kNone) return BaseOpCost(op, *catalog_);
  Choice c = Choose(g, op.time, exclude, include);
  EffectiveCost out;
  out.cpu_time = c.cpu_time;
  out.input_mb = c.input_mb;
  if (c.slot != kNone) {
    out.index_used = id(c.slot);
    out.index_fraction = c.fraction;
  }
  return out;
}

EffectiveCost BaseOpCost(const Operator& op, const Catalog& catalog) {
  EffectiveCost c;
  c.cpu_time = op.time;
  if (!op.input_table.empty()) {
    auto table = catalog.GetTable(op.input_table);
    if (table.ok()) c.input_mb = (*table)->TotalSize();
  }
  return c;
}

EffectiveCost EffectiveOpCost(const Operator& op, const Dataflow& df,
                              const Catalog& catalog) {
  return WhatIfTable(df, catalog).OpCost(op);
}

EffectiveCost EffectiveOpCostFiltered(const Operator& op, const Dataflow& df,
                                      const Catalog& catalog,
                                      const std::string& exclude,
                                      const std::string& include) {
  // A name that is not a candidate (including "") excludes or forces
  // nothing, exactly as if it matched no entry of the candidate list.
  WhatIfTable table(df, catalog);
  return table.OpCost(op, table.Slot(exclude), table.Slot(include));
}

EffectiveCost EffectiveOpCostWithIndex(const Operator& op, const Dataflow& df,
                                       const Catalog& catalog,
                                       const std::string& forced_index) {
  EffectiveCost base = BaseOpCost(op, catalog);
  auto def = catalog.GetIndexDef(forced_index);
  if (!def.ok() || (*def)->table != op.input_table) return base;
  if (!catalog.GetTable(op.input_table).ok()) return base;
  const double s = df.SpeedupOf(forced_index);
  if (s <= 1.0) return base;
  auto full = catalog.FullSize(forced_index);
  EffectiveCost out;
  out.cpu_time = op.time * Scale(1.0, s);
  out.input_mb = base.input_mb * Scale(1.0, s) + (full.ok() ? *full : 0);
  out.index_used = forced_index;
  out.index_fraction = 1.0;
  return out;
}

}  // namespace dfim
