//===- perfbench/Workloads.h - Seeded benchmark workloads -------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads. Each is a fixed, seed-derived batch of
/// calls into a public API; measured call i uses seed * 65536 + i, so
/// different seeds never share a call. A call returns
/// what it simulated (latencies, a digest of per-job results, the layer
/// counts its reports expose) and the host time it spent inside the API,
/// which excludes the benchmark's own bookkeeping.
///
///   coop_kernels    fluidicl::Runtime on a fresh mcl::Context per job
///   serve_mixed     serve::Engine::run, corun policy, mixed templates
///   dag_functional  serve::Engine::run, pipeline mix, functional + validate
///   cluster_2w      cluster::Cluster::run, 2 workers with stealing
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PERFBENCH_WORKLOADS_H
#define FCL_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Additive per-layer quantities a call's public reports expose. Simulated
/// quantities are deterministic for a seed; the rest are host-side.
struct LayerCounts {
  // fluidicl (per-launch records of coop_kernels)
  double Launches = 0;
  double TotalGroups = 0;
  double GroupsExecuted = 0; // GPU + CPU executed, overlap included
  double GpuAborted = 0;
  double CpuSubkernels = 0;
  double HdBytes = 0;
  double DhBytes = 0;
  double MergeBytes = 0;
  double PoolHits = 0;
  double PoolLookups = 0;
  // mcl: every byte that crossed the simulated PCIe link
  double PcieBytes = 0;
  // kern: computed from the launched NDRanges and their buffer arguments
  double KernLaunches = 0;
  double KernGroups = 0;
  double KernBytes = 0;
  // serve
  double ServeJobs = 0; // completed requests behind the serve ratios below
  double ChunkYields = 0;
  double CoopJobs = 0;
  double BackfillJobs = 0;
  double GpuBusyMs = 0;
  double CpuBusyMs = 0;
  double ServeMakespanMs = 0;
  /// RSS growth across Engine construction and run().
  double RetainedBytes = 0;
  // dag
  double DagNodes = 0;
  double DagGpuNodes = 0;
  double DagTransfers = 0;
  double DagSkipped = 0;
  double DagPcieBytes = 0;
  double DagSavedBytes = 0;
  // cluster
  double Epochs = 0;
  double Messages = 0;
  double Steals = 0;
  double RebalanceEpochs = 0;
  double WorkerSkew = 0; // summed over calls; divide by Calls
  double Calls = 0;

  LayerCounts &operator+=(const LayerCounts &O);
};

/// What one call produced.
struct CallResult {
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  uint64_t Rejected = 0;
  uint64_t ValidationFailures = 0;
  /// Jobs that failed a correctness check (each also named in Violations).
  uint64_t CheckFailedJobs = 0;
  std::vector<std::string> Violations;
  /// Simulated end-to-end latency of every completed job.
  std::vector<double> E2eMs;
  /// Simulated queue wait and service time (serving workloads only).
  std::vector<double> QueueMs;
  std::vector<double> ServiceMs;
  double MakespanMs = 0;
  uint64_t Digest = 0;
  /// Host nanoseconds spent inside public API calls.
  int64_t ApiNs = 0;
  LayerCounts Layers;
};

/// Brackets the host time a call spends inside the API. While tracing it
/// also arms the counting allocator, so the benchmark's own bookkeeping
/// is neither timed nor counted.
class Meter {
public:
  explicit Meter(bool Tracing) : Tracing(Tracing) {}
  void begin();
  void end();
  int64_t totalNs() const { return TotalNs; }

private:
  bool Tracing;
  int64_t StartNs = 0;
  int64_t TotalNs = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Calls in one pass over the batch.
  virtual int calls() const = 0;
  /// Runs measured call \p I. \p JobBase numbers the jobs of
  /// this call in the span trace.
  virtual CallResult call(int I, uint64_t JobBase, Meter &M) = 0;
};

/// Builds the workload's inputs from \p Seed (machine model, kernel
/// registry, job templates, DAG graphs). \p Smoke picks the smallest sizes
/// for the self-test. Returns null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       bool Smoke);

/// FNV-1a step over one 64-bit value.
uint64_t digestMix(uint64_t H, uint64_t V);

} // namespace perfbench

#endif // FCL_PERFBENCH_WORKLOADS_H
