#include "checks.h"

#include <cstring>
#include <set>

namespace cpbench {
namespace {

void Fail(std::vector<std::string>* failures, const std::string& what,
          long long slack) {
  failures->push_back(what + " (slack " + std::to_string(slack) + ")");
}

class Fnv {
 public:
  template <typename T>
  void Add(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace

void CheckRun(const dfim::ServiceMetrics& m, const dfim::ServiceOptions& so,
              const dfim::Catalog& catalog, const dfim::QaasService& service,
              std::vector<std::string>* failures) {
  long long flow = static_cast<long long>(m.dataflows_arrived) -
                   m.dataflows_finished - m.dataflows_failed -
                   m.dataflows_overran - m.dataflows_shed;
  if (so.admission.open_loop ? flow != 0 : (flow < 0 || flow > 1)) {
    Fail(failures, "dataflow accounting", flow);
  }

  long long corruption = m.corruptions_injected -
                         m.corruptions_detected_on_read -
                         m.corruptions_detected_by_scrub - m.corruptions_dead -
                         m.corruptions_latent;
  if (corruption != 0) Fail(failures, "corruption ledger", corruption);
  long long quarantine = static_cast<long long>(m.partitions_quarantined) -
                         m.repairs_completed - m.quarantine_evicted -
                         static_cast<long long>(catalog.quarantined().size());
  if (quarantine != 0) Fail(failures, "quarantine ledger", quarantine);

  const dfim::FleetLedger& fleet = service.fleet().ledger();
  if (fleet.RequestSlack() != 0) {
    Fail(failures, "fleet request ledger", fleet.RequestSlack());
  }
  long long grant = fleet.GrantSlack(service.fleet().HeldCount());
  if (grant != 0) Fail(failures, "fleet grant ledger", grant);

  for (const auto& idx : catalog.IndexIds()) {
    auto def = catalog.GetIndexDef(idx);
    auto state = catalog.GetIndexState(idx);
    if (!def.ok() || !state.ok()) continue;
    for (size_t p = 0; p < (*state)->num_partitions(); ++p) {
      if ((*state)->part(p).built &&
          !service.storage().Exists(
              (*def)->PartitionPath(static_cast<int>(p)))) {
        failures->push_back("catalog entry without storage object: " + idx +
                            " partition " + std::to_string(p));
      }
    }
  }

  if (service.journal().LedgerSlack() != 0) {
    Fail(failures, "journal ledger", service.journal().LedgerSlack());
  }
  if (m.ctl_crashes != m.replayed_records) {
    Fail(failures, "ctl_crashes != replayed_records",
         m.ctl_crashes - m.replayed_records);
  }
}

uint64_t Fingerprint(const dfim::ServiceMetrics& m) {
  Fnv h;
#define CPBENCH_HASH_COUNTER(type, name) h.Add(m.name);
  DFIM_MIRRORED_COUNTERS(CPBENCH_HASH_COUNTER)
  h.Add(m.storage_cost);
  h.Add(m.queue_delay_quanta);
  h.Add(m.storage_clock_clamps);
  h.Add(m.corruptions_injected);
  h.Add(m.corruptions_dead);
  h.Add(m.corruptions_latent);
  h.Add(m.quarantine_evicted);
  h.Add(m.timeline.size());
  for (const auto& pt : m.timeline) {
    h.Add(pt.t);
    h.Add(pt.indexes_built);
    h.Add(pt.index_mb);
    h.Add(pt.storage_cost);
    h.Add(pt.queue_len);
    h.Add(pt.queue_delay_quanta);
    h.Add(pt.makespan_quanta);
    h.Add(pt.corruptions_injected);
#define CPBENCH_HASH_POINT(type, name) h.Add(pt.name);
    DFIM_MIRRORED_COUNTERS(CPBENCH_HASH_POINT)
#undef CPBENCH_HASH_POINT
  }
#undef CPBENCH_HASH_COUNTER
  return h.value();
}

uint64_t CombineFingerprints(const std::vector<uint64_t>& fingerprints) {
  Fnv h;
  for (uint64_t f : fingerprints) h.Add(f);
  return h.value();
}

std::vector<std::string> DifferingCounters(const dfim::ServiceMetrics& a,
                                           const dfim::ServiceMetrics& b) {
  static const std::set<std::string> kJournalOnly = {
      "ctl_crashes",      "journal_records",  "journal_bytes",
      "replayed_records", "persists_deduped", "recovery_replay_quanta"};
  std::vector<std::string> out;
#define CPBENCH_DIFF_COUNTER(type, name)                                  \
  if (a.name != b.name && kJournalOnly.count(#name) == 0) {               \
    out.push_back(std::string(#name) + "=" + std::to_string(a.name) +    \
                  "/" + std::to_string(b.name));                          \
  }
  DFIM_MIRRORED_COUNTERS(CPBENCH_DIFF_COUNTER)
#undef CPBENCH_DIFF_COUNTER
  return out;
}

}  // namespace cpbench
