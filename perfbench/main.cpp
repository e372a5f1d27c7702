//===- perfbench/main.cpp - Repository benchmark --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one seeded workload against the public APIs and prints its
/// metrics. Untraced (--trace=0) it reports the end-to-end metrics; traced
/// (--trace=1) it first measures untraced throughput for half the time,
/// then arms the span recorder, the fcl::prof profiler and the counting
/// allocator for the other half and reports the per-layer metrics, plus
/// the tracing overhead between the two halves. The last stdout line is
/// one JSON object: {"correct", "attempted", "failed", "metrics"}.
///
///   fcl_perfbench --workload=serve_mixed --seed=1 --seconds=10 --trace=0
///
/// Normally run through perfbench/run.py, which builds this binary first.
///
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "Spans.h"
#include "Workloads.h"

#include "prof/BenchReport.h"
#include "prof/Profiler.h"
#include "support/ArgParser.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sched.h>
#include <string>
#include <vector>

using namespace fcl;
using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Nearest-rank percentile (P in [0, 100]) of unsorted values.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

/// Host throughput of a window: its fastest pass. Every pass runs the same
/// calls, and interference from the rest of the host only ever adds time,
/// so the fastest pass is the least-disturbed reading of the code's cost.
double bestRate(const std::vector<double> &PassRates) {
  return PassRates.empty()
             ? 0
             : *std::max_element(PassRates.begin(), PassRates.end());
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

int onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return CPU_COUNT(&Set);
}

/// Everything one measurement window saw.
struct Window {
  std::vector<double> PassJobsPerSec;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Jobs = 0; // completed, all passes
  int Passes = 0;
  /// First pass only: the seed's deterministic simulated outcome.
  std::vector<double> E2eMs, QueueMs, ServiceMs;
  double MakespanMs = 0;
  uint64_t Digest = 0xCBF29CE484222325ull;
  /// Summed over all passes.
  LayerCounts Layers;
};

class Harness {
public:
  Harness(Workload &W, std::vector<uint64_t> RefDigests)
      : W(W), Ref(std::move(RefDigests)) {}

  /// Runs whole passes over the batch until \p Seconds have elapsed (at
  /// least one pass).
  Window run(double Seconds, bool Tracing) {
    Window Win;
    int64_t Start = prof::wallNowNs();
    do {
      int64_t ApiNs = 0;
      uint64_t PassJobs = 0;
      for (int I = 0; I < W.calls(); ++I) {
        Meter M(Tracing);
        CallResult R = W.call(I, NextJobId, M);
        NextJobId += std::max<uint64_t>(1, R.Submitted);
        ApiNs += R.ApiNs;
        PassJobs += R.Completed;
        account(R, I, Win);
      }
      Win.PassJobsPerSec.push_back(ratio(static_cast<double>(PassJobs),
                                         static_cast<double>(ApiNs) * 1e-9));
      Win.Jobs += PassJobs;
      ++Win.Passes;
    } while (static_cast<double>(prof::wallNowNs() - Start) * 1e-9 <
             Seconds);
    return Win;
  }

  /// Records a violated check ("<check>: <detail>").
  void note(const std::string &V) {
    std::string Check = V.substr(0, V.find(':'));
    auto &Slot = Violations[Check];
    if (Slot.first++ == 0)
      Slot.second = V;
  }

  /// Violations by check name, with the first message of each.
  std::map<std::string, std::pair<uint64_t, std::string>> Violations;

private:
  void account(const CallResult &R, int I, Window &Win) {
    Win.Attempted += R.Submitted;
    uint64_t Failed = R.Rejected + R.ValidationFailures + R.CheckFailedJobs;
    for (const std::string &V : R.Violations)
      note(V);
    // Determinism: a call repeated with the same seed (the warm-up call,
    // earlier passes) must reproduce the same digest.
    size_t Idx = static_cast<size_t>(I);
    if (Ref.size() <= Idx)
      Ref.resize(Idx + 1, 0);
    if (Ref[Idx] == 0) {
      Ref[Idx] = R.Digest;
    } else if (Ref[Idx] != R.Digest) {
      note("determinism: call " + std::to_string(I) +
           " digest differs from an earlier run of the same seed");
      Failed = R.Submitted;
    }
    Win.Failed += std::min(Failed, R.Submitted);
    Win.Layers += R.Layers;
    if (Win.Passes == 0) {
      Win.E2eMs.insert(Win.E2eMs.end(), R.E2eMs.begin(), R.E2eMs.end());
      Win.QueueMs.insert(Win.QueueMs.end(), R.QueueMs.begin(),
                         R.QueueMs.end());
      Win.ServiceMs.insert(Win.ServiceMs.end(), R.ServiceMs.begin(),
                           R.ServiceMs.end());
      Win.MakespanMs += R.MakespanMs;
      Win.Digest = digestMix(Win.Digest, R.Digest);
    }
  }

  Workload &W;
  std::vector<uint64_t> Ref;
  uint64_t NextJobId = 1;
};

/// Sums a phase's self (or inclusive) time over every path it appears on.
struct PhaseTotals {
  double SelfNs = 0;
  double InclNs = 0;
  double Count = 0;
};

PhaseTotals phase(const prof::Snapshot &S, const std::string &Name) {
  PhaseTotals T;
  for (const prof::PhaseStats &P : S.Phases)
    if (P.Name == Name) {
      T.SelfNs += static_cast<double>(P.ExclusiveNs);
      T.InclNs += static_cast<double>(P.InclusiveNs);
      T.Count += static_cast<double>(P.Count);
    }
  return T;
}

double counter(const prof::Snapshot &S, const std::string &Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : static_cast<double>(It->second);
}

double meanOf(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

std::vector<Metric> endToEnd(const Window &Win, double SetupS) {
  double Ok = 1.0 - ratio(static_cast<double>(Win.Failed),
                          static_cast<double>(Win.Attempted));
  return {
      {"jobs_per_s", bestRate(Win.PassJobsPerSec), "jobs/s"},
      {"setup_s", SetupS, "s"},
      {"peak_rss_mb", static_cast<double>(prof::peakRssBytes()) / 1048576.0,
       "MiB"},
      {"ok_ratio", Ok, "fraction"},
      {"sim_e2e_ms_p50", percentile(Win.E2eMs, 50), "sim_ms"},
      {"sim_e2e_ms_p99", percentile(Win.E2eMs, 99), "sim_ms"},
      {"sim_makespan_ms", Win.MakespanMs, "sim_ms"},
  };
}

/// \p Warm is the set-up's warm-up call, the first call of the process:
/// only there does RSS growth show retained state rather than heap reuse.
std::vector<Metric> perLayer(const Window &Win, const prof::Snapshot &Prof,
                             const AllocTally &Mem, double UntracedJps,
                             const LayerCounts &Warm) {
  const LayerCounts &L = Win.Layers;
  const SpanRecorder &Sp = SpanRecorder::instance();
  double Jobs = static_cast<double>(Win.Jobs);
  double Events = counter(Prof, "sim.events_executed");
  auto PerJob = [&](double X) { return ratio(X, Jobs); };
  auto SpanSelfNs = [&](const char *Name) { return Sp.selfNs(Name); };
  auto SelfUsPerJob = [&](const char *Name) {
    return PerJob(phase(Prof, Name).SelfNs * 1e-3);
  };
  std::vector<double> LaunchUs = Sp.durationsNs("fluidicl.launch_kernel");
  for (double &X : LaunchUs)
    X *= 1e-3;
  PhaseTotals WorkerEpoch = phase(Prof, "cluster.worker_epoch");
  double ClusterRunNs = SpanSelfNs("cluster.run");
  double ServeJobs = L.ServeJobs;
  const double MiB = 1048576.0;

  return {
      // sim: event core (sim.run self time also holds all of mcl).
      {"sim.events_per_job", PerJob(Events), "events/job"},
      {"sim.ns_per_event", ratio(phase(Prof, "sim.run").InclNs, Events),
       "ns/event"},
      {"sim.cancelled_per_job", PerJob(counter(Prof, "sim.events_cancelled")),
       "events/job"},
      {"sim.tombstone_skips_per_job",
       PerJob(counter(Prof, "sim.tombstone_skips")), "count/job"},
      {"sim.compactions_per_job", PerJob(counter(Prof, "sim.compaction_runs")),
       "count/job"},
      {"sim.run_self_us_per_job", SelfUsPerJob("sim.run"), "us/job"},
      // mcl
      {"mcl.context_ctor_us", meanOf(Sp.durationsNs("mcl.context_ctor")) * 1e-3,
       "us"},
      {"mcl.pcie_bytes_per_job", PerJob(L.PcieBytes), "B/job"},
      // fluidicl
      {"fluidicl.runtime_ctor_us",
       meanOf(Sp.durationsNs("fluidicl.runtime_ctor")) * 1e-3, "us"},
      {"fluidicl.buffers_us_per_job",
       PerJob(SpanSelfNs("fluidicl.buffers") * 1e-3), "us/job"},
      {"fluidicl.launch_us_p50", percentile(LaunchUs, 50), "us"},
      {"fluidicl.launch_us_p99", percentile(LaunchUs, 99), "us"},
      {"fluidicl.readback_us_per_job",
       PerJob((SpanSelfNs("fluidicl.readback") +
               SpanSelfNs("fluidicl.finish")) *
              1e-3),
       "us/job"},
      {"fluidicl.useful_wg_ratio", ratio(L.TotalGroups, L.GroupsExecuted),
       "ratio"},
      {"fluidicl.gpu_wg_aborted_per_launch", ratio(L.GpuAborted, L.Launches),
       "count/launch"},
      {"fluidicl.cpu_subkernels_per_launch", ratio(L.CpuSubkernels, L.Launches),
       "count/launch"},
      {"fluidicl.hd_bytes_per_launch", ratio(L.HdBytes, L.Launches),
       "B/launch"},
      {"fluidicl.dh_bytes_per_launch", ratio(L.DhBytes, L.Launches),
       "B/launch"},
      {"fluidicl.merge_bytes_per_launch", ratio(L.MergeBytes, L.Launches),
       "B/launch"},
      {"fluidicl.bufferpool_hit_rate", ratio(L.PoolHits, L.PoolLookups),
       "ratio"},
      {"fluidicl.hd_send_self_us_per_job", SelfUsPerJob("fcl.hd_send"),
       "us/job"},
      {"fluidicl.chunk_launch_self_us_per_job",
       SelfUsPerJob("fcl.chunk_launch"), "us/job"},
      {"fluidicl.launch_setup_self_us_per_job",
       SelfUsPerJob("fcl.launch_setup"), "us/job"},
      {"fluidicl.merge_self_us_per_job", SelfUsPerJob("fcl.merge"), "us/job"},
      // kern (computed from NDRanges and buffer sizes, not measured)
      {"kern.launches_per_job", PerJob(L.KernLaunches), "count/job"},
      {"kern.work_groups_per_job", PerJob(L.KernGroups), "count/job"},
      {"kern.computed_mb_per_job", PerJob(L.KernBytes / MiB), "MiB/job"},
      // serve
      {"serve.engine_ctor_ms",
       meanOf(Sp.durationsNs("serve.engine_ctor")) * 1e-6, "ms"},
      {"serve.run_ms_per_sim_s",
       ratio(SpanSelfNs("serve.run") * 1e-6, L.ServeMakespanMs * 1e-3), "ms/s"},
      {"serve.chunk_yields_per_job", ratio(L.ChunkYields, ServeJobs),
       "count/job"},
      {"serve.coop_share", ratio(L.CoopJobs, ServeJobs), "ratio"},
      {"serve.backfill_share", ratio(L.BackfillJobs, ServeJobs), "ratio"},
      {"serve.admission_self_us_per_job", SelfUsPerJob("serve.admission"),
       "us/job"},
      {"serve.dispatch_self_us_per_job", SelfUsPerJob("serve.dispatch"),
       "us/job"},
      {"serve.chunk_yield_self_us_per_job", SelfUsPerJob("serve.chunk_yield"),
       "us/job"},
      {"serve.callback_self_us_per_job", SelfUsPerJob("serve.callback"),
       "us/job"},
      {"serve.queue_wait_ms_p99", percentile(Win.QueueMs, 99), "sim_ms"},
      {"serve.service_ms_p99", percentile(Win.ServiceMs, 99), "sim_ms"},
      {"serve.gpu_util", ratio(L.GpuBusyMs, L.ServeMakespanMs), "ratio"},
      {"serve.cpu_util", ratio(L.CpuBusyMs, L.ServeMakespanMs), "ratio"},
      {"serve.retained_kb_per_job",
       ratio(Warm.RetainedBytes / 1024.0, Warm.ServeJobs), "KiB/job"},
      // dag
      {"dag.nodes_per_job", ratio(L.DagNodes, ServeJobs), "count/job"},
      {"dag.transfers_per_job", ratio(L.DagTransfers, ServeJobs), "count/job"},
      {"dag.skip_ratio", ratio(L.DagSkipped, L.DagSkipped + L.DagTransfers),
       "ratio"},
      {"dag.pcie_mb_per_job", ratio(L.DagPcieBytes / MiB, ServeJobs),
       "MiB/job"},
      {"dag.saved_mb_per_job", ratio(L.DagSavedBytes / MiB, ServeJobs),
       "MiB/job"},
      {"dag.gpu_node_share", ratio(L.DagGpuNodes, L.DagNodes), "ratio"},
      // cluster
      {"cluster.ctor_ms", meanOf(Sp.durationsNs("cluster.ctor")) * 1e-6, "ms"},
      {"cluster.host_us_per_epoch", ratio(ClusterRunNs * 1e-3, L.Epochs),
       "us/epoch"},
      {"cluster.master_us_per_epoch",
       ratio(phase(Prof, "cluster.master_phase").InclNs * 1e-3, L.Epochs),
       "us/epoch"},
      {"cluster.worker_epoch_us", ratio(WorkerEpoch.InclNs * 1e-3,
                                        WorkerEpoch.Count),
       "us"},
      {"cluster.barrier_wait_share",
       ClusterRunNs > 0 ? 1.0 - WorkerEpoch.InclNs / (2.0 * ClusterRunNs) : 0,
       "ratio"},
      {"cluster.messages_per_job", ratio(L.Messages, L.Epochs > 0 ? Jobs : 0),
       "count/job"},
      {"cluster.steals_per_1k_jobs",
       ratio(L.Steals * 1000.0, L.Epochs > 0 ? Jobs : 0), "count/1k"},
      {"cluster.rebalance_share", ratio(L.RebalanceEpochs, L.Epochs), "ratio"},
      {"cluster.worker_skew", ratio(L.WorkerSkew, L.Epochs > 0 ? L.Calls : 0),
       "ratio"},
      // mem (counting operator new, armed inside API calls only)
      {"mem.allocs_per_job", PerJob(static_cast<double>(Mem.Allocs)),
       "count/job"},
      {"mem.alloc_bytes_per_job", PerJob(static_cast<double>(Mem.Bytes)),
       "B/job"},
      {"mem.allocs_per_event", ratio(static_cast<double>(Mem.Allocs), Events),
       "count/event"},
      // trace
      {"trace.overhead_pct",
       ratio(UntracedJps - bestRate(Win.PassJobsPerSec), UntracedJps) * 100.0,
       "%"},
  };
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("metric %-40s %18.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(),
                std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("fcl_perfbench", "seeded FluidiCL repository benchmark");
  Args.addOption("workload", "coop_kernels|serve_mixed|dag_functional|"
                             "cluster_2w",
                 "");
  Args.addOption("seed", "workload seed; measured call i uses seed + i", "1");
  Args.addOption("seconds", "measurement time (whole passes, at least one)",
                 "10");
  Args.addOption("trace", "0: end-to-end metrics; 1: per-layer metrics", "0");
  Args.addOption("spans-out", "traced run: write spans to this file", "");
  Args.addOption("rev", "source revision for the fingerprint", "unknown");
  Args.addFlag("smoke", "smallest sizes (benchmark self-test)");
  if (!Args.parse(Argc - 1, Argv + 1)) {
    std::fprintf(stderr, "error: %s\n%s", Args.error().c_str(),
                 Args.helpText().c_str());
    return 2;
  }
  if (Args.helpRequested()) {
    std::printf("%s", Args.helpText().c_str());
    return 0;
  }
  const std::string Name = Args.str("workload");
  const uint64_t Seed = static_cast<uint64_t>(Args.i64("seed"));
  const double Seconds = Args.f64("seconds");
  const bool Trace = Args.i64("trace") != 0;
  const bool Smoke = Args.flag("smoke");

  // Host/build fingerprint: results from different hosts or builds must
  // never compare silently. The same fields head the spans file.
  const std::string Fingerprint = formatString(
      "\"cpu\": \"%s\", \"nproc\": %d, \"compiler\": \"%s\", "
      "\"build\": \"%s\", \"rev\": \"%s\", \"seed\": %llu",
      cpuModel().c_str(), onlineCpus(), FCL_PB_COMPILER, FCL_PB_BUILD_TYPE,
      Args.str("rev").c_str(), static_cast<unsigned long long>(Seed));
  std::printf("fingerprint {%s}\n", Fingerprint.c_str());

  // Set-up: inputs from the seed plus one warm-up call (call 0). Untraced
  // runs repeat it for at least a second (5 to 200 times) and report the
  // median; the last set-up's workload is the one measured.
  std::unique_ptr<Workload> W;
  std::vector<double> SetupS;
  double SetupTotal = 0;
  std::vector<uint64_t> RefDigests;
  CallResult Warm;
  while (SetupS.empty() ||
         (!Trace && SetupS.size() < 200 &&
          (SetupS.size() < 5 || SetupTotal < 1.0))) {
    int64_t T0 = prof::wallNowNs();
    W = makeWorkload(Name, Seed, Smoke);
    if (!W) {
      std::fprintf(stderr, "error: unknown --workload '%s'\n", Name.c_str());
      return 2;
    }
    Meter M(false);
    Warm = W->call(0, 0, M);
    SetupS.push_back(static_cast<double>(prof::wallNowNs() - T0) * 1e-9);
    SetupTotal += SetupS.back();
    RefDigests = {Warm.Digest};
  }

  Harness H(*W, RefDigests);
  for (const std::string &V : Warm.Violations)
    H.note(V);
  std::vector<Metric> Metrics;
  Window Main;
  if (!Trace) {
    Main = H.run(Seconds, false);
    Metrics = endToEnd(Main, median(SetupS));
  } else {
    Window Untraced = H.run(Seconds / 2, false);
    prof::Profiler &Prof = prof::Profiler::instance();
    Prof.reset();
    Prof.setEnabled(true);
    SpanRecorder::instance().setEnabled(true);
    AllocTally Before = allocTotals();
    Main = H.run(Seconds / 2, true);
    AllocTally After = allocTotals();
    SpanRecorder::instance().setEnabled(false);
    Prof.setEnabled(false);
    AllocTally Mem{After.Allocs - Before.Allocs, After.Bytes - Before.Bytes};
    Metrics = perLayer(Main, Prof.snapshot(), Mem,
                       bestRate(Untraced.PassJobsPerSec), Warm.Layers);
    Main.Attempted += Untraced.Attempted;
    Main.Failed += Untraced.Failed;
  }

  std::printf("workload %s seed=%llu calls=%d passes=%d jobs=%llu "
              "setup_runs=%zu\n",
              Name.c_str(), static_cast<unsigned long long>(Seed), W->calls(),
              Main.Passes, static_cast<unsigned long long>(Main.Jobs),
              SetupS.size());
  std::printf("pass_jobs_per_s");
  for (double R : Main.PassJobsPerSec)
    std::printf(" %.1f", R);
  std::printf("\nsetup_s_median_of %zu\n", SetupS.size());
  std::printf("sim_digest %016llx\n",
              static_cast<unsigned long long>(Main.Digest));
  // The p99 needs at least ten samples beyond it.
  size_t Samples = Main.E2eMs.size();
  std::printf("sim_e2e samples=%zu beyond_p99=%zu\n", Samples,
              Samples - static_cast<size_t>(std::ceil(0.99 * Samples)));
  if (!Smoke && Samples < 1000)
    H.note("p99_samples: fewer than 1000 jobs in a pass");
  std::printf("failed_ratio %.6f (%llu of %llu)\n",
              ratio(static_cast<double>(Main.Failed),
                    static_cast<double>(Main.Attempted)),
              static_cast<unsigned long long>(Main.Failed),
              static_cast<unsigned long long>(Main.Attempted));
  for (const char *Check : {"conservation", "wg_accounting", "validation",
                            "determinism", "p99_samples"}) {
    auto It = H.Violations.find(Check);
    if (It == H.Violations.end())
      std::printf("check %s ok\n", Check);
    else
      std::printf("check %s FAILED x%llu: %s\n", Check,
                  static_cast<unsigned long long>(It->second.first),
                  It->second.second.c_str());
  }
  bool Correct = H.Violations.empty();

  const std::string SpansOut = Args.str("spans-out");
  if (Trace && !SpansOut.empty()) {
    if (!SpanRecorder::instance().write(SpansOut, Fingerprint)) {
      std::fprintf(stderr, "error: cannot write %s\n", SpansOut.c_str());
      return 1;
    }
    std::printf("spans %zu -> %s\n", SpanRecorder::instance().spans().size(),
                SpansOut.c_str());
  }
  printResult(Correct, Main.Attempted, Main.Failed, Metrics);
  return Correct ? 0 : 1;
}
