// Control-plane benchmark driver: runs one workload through
// QaasService::Run, self-checks every run, and prints the metrics.
//
//   cpbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workload-seed <n>] [--out-dir <dir>]
//
// --workload-seed picks the dataflow stream (default 23). --seed picks the
// simulated environments the stream runs in: their execution-time
// estimation error and every fault draw.
//
// --trace 0 makes one warm-up run in the first environment, then runs the
// stream in six environments and cycles through them again until --seconds
// have passed (every repeat, the first environment's included, must
// reproduce the earlier run exactly), times a block of set-ups between
// runs, and prints the end-to-end metrics.
// --trace 1 makes one untraced reference run in the first environment,
// then traced runs of it until --seconds have passed, and prints the
// per-layer metrics. The last stdout line is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; the line before it names the record
// file. Exit code 1 when a self-check fails, 2 on bad usage or a build that
// must not report numbers.

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checks.h"
#include "gap_client.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace cpbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up is timed in blocks of back-to-back rig builds, one sample per
/// block: a single build takes about a millisecond, too short to time alone.
constexpr size_t kSetupsPerBlock = 40;

/// Environments per end-to-end run. The simulated metrics pool them: one
/// environment can tip the tuner into a different index set, so a single
/// one would make those metrics jump between seeds.
constexpr size_t kEnvironments = 6;

/// Run seed of environment `i` of a run with seed `seed` (splitmix64).
uint64_t EnvironmentSeed(uint64_t seed, size_t i) {
  uint64_t z = seed * kEnvironments + i + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t workload_seed = kDefaultStreamSeed;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--workload-seed") {
      a->workload_seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1" ? 1 : 0;
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a->seconds > 0 && a->trace >= 0 &&
         !a->workload.empty();
}

/// Why this build must not report numbers, or empty when it may.
std::string BuildRefusal() {
  if (std::string(CPBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + CPBENCH_BUILD_TYPE +
           "', not Release";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::strstr(CPBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build";
  }
  return "";
}

/// One service run of the workload stream.
struct Rep {
  dfim::ServiceMetrics m;
  double run_s = 0;
  /// Wall ms per executed dataflow, from the gaps between Next calls.
  std::vector<double> wall_ms;
  uint64_t fingerprint = 0;
  std::vector<std::string> failures;

  int Executed() const { return m.dataflows_arrived - m.dataflows_shed; }
  double DataflowsPerSecond() const {
    return Ratio(Executed(), run_s);
  }
};

struct Seeds {
  /// Picks the dataflow stream.
  uint64_t stream = 0;
  /// Seeds the simulated environment.
  uint64_t run = 0;
};

/// Everything a service run needs, built in the constructor: the populated
/// database and generator, the workload client and the service.
struct Rig {
  dfim::bench::PaperSetup setup;
  dfim::ServiceOptions so;
  std::unique_ptr<dfim::WorkloadClient> client;
  dfim::QaasService service;

  Rig(const Workload& w, const Seeds& seeds, bool journal)
      : setup(seeds.stream),
        so(MakeOptions(w, seeds.run, journal)),
        client(MakeClient(w, setup.generator.get(), seeds.stream)),
        service(&setup.catalog, so) {}
};

/// Builds a rig, runs the stream, and self-checks the result. With a
/// tracer the client is wrapped in the shadow-call decorator.
Rep RunRep(const Workload& w, const Seeds& seeds, bool journal,
           Tracer* tracer) {
  Rep rep;
  Rig rig(w, seeds, journal);
  std::optional<TracingClient> traced;
  dfim::WorkloadClient* inner = rig.client.get();
  if (tracer != nullptr) {
    traced.emplace(inner, &rig.service, &rig.setup.catalog, rig.so, tracer);
    inner = &*traced;
  }
  GapClient gaps(inner, &rig.service);

  Clock::time_point start = Clock::now();
  dfim::Result<dfim::ServiceMetrics> m = rig.service.Run(&gaps);
  Clock::time_point end = Clock::now();
  gaps.Finish(end);
  rep.run_s = std::chrono::duration<double>(end - start).count();
  if (!m.ok()) {
    rep.failures.push_back("QaasService::Run: " + m.status().ToString());
    return rep;
  }
  rep.m = std::move(*m);
  rep.wall_ms = gaps.samples_ms();
  rep.fingerprint = Fingerprint(rep.m);
  if (traced.has_value() && !traced->status().ok()) {
    rep.failures.push_back("shadow call: " + traced->status().ToString());
  }
  CheckRun(rep.m, rig.so, rig.setup.catalog, rig.service, &rep.failures);
  if (!Reportable(rep.wall_ms.size(), 90)) {
    rep.failures.push_back("only " + std::to_string(rep.wall_ms.size()) +
                           " wall samples: fewer than 10 beyond p90");
  }
  return rep;
}

/// One set-up sample: the mean wall seconds to build a rig that is never
/// run, over a block of builds. Each rig is dropped, untimed, before the
/// next is built.
double SetupSample(const Workload& w, const Seeds& seeds) {
  Clock::duration built{};
  for (size_t i = 0; i < kSetupsPerBlock; ++i) {
    Clock::time_point begin = Clock::now();
    Rig rig(w, seeds, true);
    built += Clock::now() - begin;
  }
  return std::chrono::duration<double>(built).count() /
         static_cast<double>(kSetupsPerBlock);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Simulated per-dataflow response time (queue delay + makespan), quanta.
std::vector<double> SimLatencies(const dfim::ServiceMetrics& m) {
  std::vector<double> out;
  out.reserve(m.timeline.size());
  for (const auto& pt : m.timeline) {
    out.push_back(pt.queue_delay_quanta + pt.makespan_quanta);
  }
  return out;
}

/// Peak resident set of this process (VmHWM), in MB. getrusage's
/// ru_maxrss is not used: it keeps the parent's peak across fork and exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Wall metrics are medians over every run; simulated metrics pool the
/// first kEnvironments runs, one per environment.
std::vector<Metric> EndToEnd(const std::vector<Rep>& reps,
                             const std::vector<double>& setup,
                             const dfim::ServiceOptions& so) {
  std::vector<double> dfps, p50, p90;
  for (const auto& r : reps) {
    dfps.push_back(r.DataflowsPerSecond());
    p50.push_back(Percentile(r.wall_ms, 50));
    p90.push_back(Percentile(r.wall_ms, 90));
  }
  std::vector<double> lat;
  double finished = 0, good = 0, arrived = 0, cost = 0;
  for (size_t i = 0; i < kEnvironments; ++i) {
    const dfim::ServiceMetrics& m = reps[i].m;
    std::vector<double> l = SimLatencies(m);
    lat.insert(lat.end(), l.begin(), l.end());
    finished += m.dataflows_finished;
    good += m.dataflows_finished - m.deadlines_missed;
    arrived += m.dataflows_arrived;
    cost += m.AvgCostQuantaPerDataflow(so.tuner.pricing);
  }
  const double n = static_cast<double>(kEnvironments);
  return {
      {"setup_s", Median(setup), "s"},
      {"df_per_s", Median(dfps), "dataflows/s"},
      {"df_wall_p50_ms", Median(p50), "ms"},
      {"df_wall_p90_ms", Median(p90), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"dataflows_finished", finished / n, "count"},
      {"cost_per_df_q", cost / n, "quanta-eq"},
      {"sim_latency_mean_q", Mean(lat), "quanta"},
      {"sim_latency_p90_q", Percentile(lat, 90), "quanta"},
      {"goodput_frac", Ratio(good, arrived), "ratio"},
  };
}

std::vector<Metric> PerLayer(const Rep& ref, const std::vector<Rep>& traced,
                             const Tracer& tracer,
                             std::optional<double> journal_overhead_pct) {
  const LayerCounts& n = tracer.counts();
  const double dfs = static_cast<double>(n.dataflows);
  auto ms_per_df = [&](Layer l) { return Mean(tracer.PerDataflowMs(l)); };
  auto p90 = [&](Layer l) { return Percentile(tracer.PerDataflowMs(l), 90); };

  std::vector<double> traced_dfps, gaps;
  for (const auto& r : traced) {
    traced_dfps.push_back(r.DataflowsPerSecond());
    gaps.insert(gaps.end(), r.wall_ms.begin(), r.wall_ms.end());
  }
  const double untraced_dfps = ref.DataflowsPerSecond();
  const dfim::ServiceMetrics& m = ref.m;
  return {
      {"core.tuner.ms_per_df", ms_per_df(kTuner), "ms"},
      {"core.tuner.p90_ms", p90(kTuner), "ms"},
      {"core.tuner.whatif_ms_per_df", ms_per_df(kWhatIf), "ms"},
      {"core.gain.ms_per_df", ms_per_df(kGain), "ms"},
      {"core.gain.evals_per_df", Ratio(n.gain_evals, dfs), "count"},
      {"core.gain.pairs_per_df", Ratio(n.gain_pairs, dfs), "count"},
      {"core.gain.beneficial_ratio", Ratio(n.gain_beneficial, n.gain_evals),
       "ratio"},
      {"dataflow.cost.ms_per_df", ms_per_df(kCost), "ms"},
      {"dataflow.cost.ops_per_df", Ratio(n.cost_ops, dfs), "count"},
      {"sched.skyline.ms_per_df", ms_per_df(kSkyline), "ms"},
      {"sched.skyline.points_per_df", Ratio(n.skyline_points, dfs), "count"},
      {"core.knapsack.ms_per_df", ms_per_df(kKnapsack), "ms"},
      {"core.knapsack.p90_ms", p90(kKnapsack), "ms"},
      {"core.knapsack.calls_per_df", Ratio(n.knapsack_calls, dfs), "count"},
      {"core.knapsack.offered_per_df", Ratio(n.knapsack_offered, dfs),
       "count"},
      {"core.knapsack.packed_ratio",
       Ratio(n.knapsack_packed, n.knapsack_offered), "ratio"},
      {"sched.exec.ms_per_df", ms_per_df(kExec), "ms"},
      {"sched.exec.killed_ratio", Ratio(m.killed_ops, m.total_ops), "ratio"},
      {"sched.exec.spec_win_ratio", Ratio(m.spec_wins, m.ops_speculated),
       "ratio"},
      {"sched.exec.reexecuted_ops", static_cast<double>(m.ops_reexecuted),
       "count"},
      {"core.journal.records", static_cast<double>(m.journal_records),
       "count"},
      {"core.journal.bytes_per_record",
       Ratio(static_cast<double>(m.journal_bytes),
             static_cast<double>(m.journal_records)),
       "bytes"},
      {"core.journal.overhead_pct", journal_overhead_pct.value_or(0), "%"},
      {"core.admission.batched_ratio",
       Ratio(m.batched_dataflows, ref.Executed()), "ratio"},
      {"core.admission.peak_queue", static_cast<double>(m.peak_queue_len),
       "count"},
      {"core.admission.builds_shed", static_cast<double>(m.builds_shed),
       "count"},
      {"cloud.storage.reads", static_cast<double>(m.storage_reads), "count"},
      {"cloud.storage.retries", static_cast<double>(m.storage_retries),
       "count"},
      {"cloud.storage.degraded_ratio",
       Ratio(m.degraded_reads, m.verified_reads), "ratio"},
      {"cloud.storage.scrub_reads", static_cast<double>(m.scrub_reads),
       "count"},
      {"cloud.cluster.vm_quanta", static_cast<double>(m.total_vm_quanta),
       "quanta"},
      {"cloud.cluster.recovery_share",
       Ratio(static_cast<double>(m.recovery_quanta),
             static_cast<double>(m.total_vm_quanta)),
       "ratio"},
      {"core.service.residual_ms_per_df",
       Mean(gaps) - ms_per_df(kTuner) - ms_per_df(kWhatIf) - ms_per_df(kExec),
       "ms"},
      {"trace.overhead_pct",
       100.0 * Ratio(untraced_dfps - Median(traced_dfps), untraced_dfps), "%"},
  };
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", " : "") + JsonString(metrics[i].name) + ": {\"value\": " +
           buf + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + JsonString(items[i]);
  }
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.9g", v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

/// Flags `r` when its simulated outputs differ from `first`'s, which ran
/// the same stream in the same environment.
void CheckSameAnswer(const Rep& first, Rep* r, const std::string& what) {
  if (!r->failures.empty() || r->fingerprint == first.fingerprint) return;
  r->failures.push_back(what + " fingerprint " + Hex(r->fingerprint) +
                        " != " + Hex(first.fingerprint));
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cpbench_driver --workload <%s> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workload-seed <n>] "
                 "[--out-dir <dir>]\n",
                 WorkloadNames().c_str());
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (one of %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "refusing to report numbers: %s\n", refusal.c_str());
    return 2;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string provenance =
      "{\"compiler\": " + JsonString(CPBENCH_COMPILER) +
      ", \"build_type\": " + JsonString(CPBENCH_BUILD_TYPE) +
      ", \"cxx_flags\": " + JsonString(CPBENCH_CXX_FLAGS) +
      ", \"nproc\": " + std::to_string(nproc) + "}";
  std::printf("provenance %s\n", provenance.c_str());

  const Seeds seeds{args.workload_seed, EnvironmentSeed(args.seed, 0)};
  const dfim::ServiceOptions so = MakeOptions(*w, seeds.run);
  std::vector<Rep> reps;  // the measured runs
  std::vector<double> setups;  // set-up samples, one per block
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  Tracer tracer;

  if (args.trace == 0) {
    // The warm-up run is not measured: the first run of a process is
    // slower. The measured runs cycle through the environments until
    // --seconds have passed; each repeats the warm-up or an earlier run and
    // must give its answer. A set-up sample is taken before each measured
    // run and after the last, so that set-up and runs see the same host.
    Rep warmup = RunRep(*w, seeds, true, nullptr);
    Clock::time_point measure_start = Clock::now();
    do {
      setups.push_back(SetupSample(*w, seeds));
      const size_t env = reps.size() % kEnvironments;
      const Seeds run{args.workload_seed, EnvironmentSeed(args.seed, env)};
      reps.push_back(RunRep(*w, run, true, nullptr));
      const Rep& earlier = reps.size() > kEnvironments ? reps[env] : warmup;
      if (env == 0 || reps.size() > kEnvironments) {
        CheckSameAnswer(earlier, &reps.back(), "repeated run");
      }
    } while (reps.size() < kEnvironments ||
             SecondsSince(measure_start) < args.seconds);
    setups.push_back(SetupSample(*w, seeds));
    metrics = EndToEnd(reps, setups, so);
    reps.push_back(std::move(warmup));  // last in the record
  } else {
    Rep ref = RunRep(*w, seeds, true, nullptr);
    std::vector<Rep> traced;
    Clock::time_point measure_start = Clock::now();
    do {
      traced.push_back(RunRep(*w, seeds, true, &tracer));
    } while (SecondsSince(measure_start) < args.seconds);
    for (auto& r : traced) CheckSameAnswer(ref, &r, "traced run");
    std::optional<double> journal_overhead;
    std::optional<Rep> off;
    if (so.journal.enabled && ref.failures.empty()) {
      // Same stream and seed with the journal (and crash injection) off.
      off = RunRep(*w, seeds, false, nullptr);
      if (off->failures.empty()) {
        journal_overhead = 100.0 * (Ratio(off->DataflowsPerSecond(),
                                          ref.DataflowsPerSecond()) -
                                    1.0);
        std::vector<std::string> diff =
            DifferingCounters(ref.m, off->m);
        std::string line = "journal on/off divergence (on/off):";
        for (const auto& d : diff) line += " " + d;
        if (diff.empty()) line += " none";
        notes.push_back(line);
      }
    }
    metrics = PerLayer(ref, traced, tracer, journal_overhead);
    reps.push_back(std::move(ref));
    for (auto& r : traced) reps.push_back(std::move(r));
    if (off.has_value()) reps.push_back(std::move(*off));
  }

  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  for (size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].m.dataflows_arrived;
    if (reps[i].failures.empty()) continue;
    failed += std::max(reps[i].m.dataflows_arrived, 1);
    for (const auto& f : reps[i].failures) {
      failures.push_back("run " + std::to_string(i) + ": " + f);
    }
  }
  attempted = std::max(attempted, failed);
  const bool correct = failures.empty();

  // One fingerprint per environment: all six in an end-to-end call, the
  // reference run's in a traced call (every traced run matched it).
  const size_t environments = args.trace == 0 ? kEnvironments : 1;
  std::vector<uint64_t> env_fingerprints;
  for (size_t i = 0; i < environments; ++i) {
    env_fingerprints.push_back(reps[i].fingerprint);
  }
  std::vector<std::string> env_hex;
  for (uint64_t f : env_fingerprints) env_hex.push_back(Hex(f));
  const std::string fingerprint = Hex(CombineFingerprints(env_fingerprints));

  const Rep& first = reps.front();
  std::printf("workload %s workload-seed %" PRIu64 " seed %" PRIu64
              " trace %d: %zu runs\n",
              w->name.c_str(), args.workload_seed, args.seed, args.trace,
              reps.size());
  std::printf("sim_fingerprint %s\n", fingerprint.c_str());
  std::printf("dataflows arrived %d executed %d finished %d; wall samples "
              "per run %zu (%zu beyond p90)\n",
              first.m.dataflows_arrived, first.Executed(),
              first.m.dataflows_finished, first.wall_ms.size(),
              SamplesBeyond(first.wall_ms.size(), 90));
  for (const auto& note : notes) std::printf("%s\n", note.c_str());
  for (const auto& f : failures) std::printf("CHECK FAILED %s\n", f.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // The full record: provenance, fingerprint, checks and every run.
  std::string path = args.out_dir + "/" + w->name + "-w" +
                     std::to_string(args.workload_seed) + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     std::to_string(args.trace);
  std::vector<double> run, dfps;
  for (const auto& r : reps) {
    run.push_back(r.run_s);
    dfps.push_back(r.DataflowsPerSecond());
  }
  std::string record =
      "{\"workload\": " + JsonString(w->name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"workload_seed\": " + std::to_string(args.workload_seed) +
      ", \"trace\": " + std::to_string(args.trace) +
      ", \"provenance\": " + provenance +
      ", \"sim_fingerprint\": " + JsonString(fingerprint) +
      ", \"environment_fingerprints\": " + JsonList(env_hex) +
      ", \"wall_samples_per_run\": " + std::to_string(first.wall_ms.size()) +
      ", \"setup_s\": " + JsonNumbers(setups) +
      ", \"run_s\": " + JsonNumbers(run) +
      ", \"df_per_s\": " + JsonNumbers(dfps) +
      ", \"notes\": " + JsonList(notes) +
      ", \"failures\": " + JsonList(failures) +
      ", \"metrics\": " + JsonMetrics(metrics) + "}\n";
  if (std::FILE* f = std::fopen((path + ".json").c_str(), "w")) {
    std::fputs(record.c_str(), f);
    std::fclose(f);
    std::printf("record %s.json\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s.json\n", path.c_str());
  }
  if (args.trace == 1 && !tracer.WriteTsv(path + "-spans.tsv")) {
    std::fprintf(stderr, "cannot write %s-spans.tsv\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              JsonMetrics(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace cpbench

int main(int argc, char** argv) {
  return cpbench::Main(argc, argv);
}
