#ifndef DFIM_CPBENCH_WORKLOADS_H_
#define DFIM_CPBENCH_WORKLOADS_H_

// The benchmark's named workloads: service options plus the client that
// generates the dataflow stream, both derived from the workload seed.

#include <cstdint>
#include <memory>
#include <string>

#include "core/service.h"
#include "dataflow/generators.h"
#include "dataflow/workload.h"

namespace cpbench {

struct Workload {
  enum class Kind { kPhaseLp, kRandomOnline, kOpenLoopChaos };
  std::string name;
  Kind kind = Kind::kPhaseLp;
  /// Simulated horizon, in quanta.
  double horizon_quanta = 0;
};

/// The workload called `name`, or null when there is none.
const Workload* FindWorkload(const std::string& name);

/// Comma-separated workload names, for usage messages.
std::string WorkloadNames();

/// The stream seed used when none is given: the seed the workloads were
/// sized with.
constexpr uint64_t kDefaultStreamSeed = 23;

/// Service options of `w`. `run_seed` seeds the simulated environment: the
/// execution-time estimation error and every fault draw. `journal` false
/// turns the control-plane journal (and with it crash injection) off, for
/// the journal on/off comparison of the traced run.
dfim::ServiceOptions MakeOptions(const Workload& w, uint64_t run_seed,
                                 bool journal = true);

/// The dataflow stream of `w` for stream seed `seed` (`gen` must have been
/// seeded with it too).
std::unique_ptr<dfim::WorkloadClient> MakeClient(const Workload& w,
                                                 dfim::DataflowGenerator* gen,
                                                 uint64_t seed);

}  // namespace cpbench

#endif  // DFIM_CPBENCH_WORKLOADS_H_
