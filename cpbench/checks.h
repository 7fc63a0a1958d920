#ifndef DFIM_CPBENCH_CHECKS_H_
#define DFIM_CPBENCH_CHECKS_H_

// Self-checks run on every service run, and the fingerprint that shows two
// runs gave the same simulated answer.

#include <cstdint>
#include <string>
#include <vector>

#include "core/service.h"
#include "data/catalog.h"

namespace cpbench {

/// Appends one message per broken invariant of a finished run:
///   - dataflow accounting: arrived == finished + failed + overran (+ shed)
///     with zero slack in the open loop, and at most the one arrival the
///     horizon cuts off in the closed loop;
///   - the corruption and quarantine ledgers balance to zero;
///   - both fleet ledger identities balance to zero;
///   - every partition the catalog calls built exists in storage;
///   - the journal record ledger balances and every control-plane crash
///     was recovered by replaying a snapshot.
void CheckRun(const dfim::ServiceMetrics& m, const dfim::ServiceOptions& so,
              const dfim::Catalog& catalog, const dfim::QaasService& service,
              std::vector<std::string>* failures);

/// FNV-1a over every mirrored counter of `m`, its non-mirrored totals and
/// every field of every timeline point. Equal fingerprints mean equal
/// simulated outputs (doubles are hashed by their bit patterns).
uint64_t Fingerprint(const dfim::ServiceMetrics& m);

/// FNV-1a over a sequence of fingerprints: one value for several runs.
uint64_t CombineFingerprints(const std::vector<uint64_t>& fingerprints);

/// Names of the mirrored counters on which `a` and `b` differ, as
/// "name=a_value/b_value". The six recovery counters, which only the
/// journal moves, are skipped.
std::vector<std::string> DifferingCounters(const dfim::ServiceMetrics& a,
                                           const dfim::ServiceMetrics& b);

}  // namespace cpbench

#endif  // DFIM_CPBENCH_CHECKS_H_
