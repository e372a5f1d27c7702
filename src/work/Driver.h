//===- work/Driver.h - Experiment driver ------------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a Workload under any runtime on a fresh simulated machine and
/// reports the total running time (including all data transfers, as the
/// paper measures; platform initialization is excluded). Also provides the
/// comparison helpers every bench harness uses: CPU-only/GPU-only
/// baselines, static-partition sweeps (OracleSP), FluidiCL with arbitrary
/// options, and calibrated SOCL runs. makeRuntime is the one place a
/// runtime is built from a kind or a tool's --runtime name.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_WORK_DRIVER_H
#define FCL_WORK_DRIVER_H

#include "fluidicl/Options.h"
#include "hw/Machine.h"
#include "kern/Kernel.h"
#include "mcl/Context.h"
#include "runtime/ProfiledSplit.h"
#include "socl/PerfModel.h"
#include "stats/Report.h"
#include "work/Workload.h"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace fcl {
namespace work {

/// Outcome of one application run.
struct RunResult {
  std::string RuntimeName;
  /// Total running time: buffer setup + transfers + kernels + readback.
  Duration Total;
  /// Whether functional validation was performed and its outcome.
  bool Validated = false;
  bool Valid = false;
  double MaxAbsError = 0;
};

/// Deterministic pseudo-random host data for every buffer of \p W.
std::vector<std::vector<std::byte>> initHostData(const Workload &W);

/// Executes one call of \p Kernel (the kernel \p Call names, resolved by
/// the caller) directly on \p HostBufs, the buffers \p Call's buffer
/// arguments index.
void executeOnHost(const kern::KernelInfo &Kernel, const KernelCall &Call,
                   std::vector<std::vector<std::byte>> &HostBufs);

/// Executes \p W's kernel sequence directly on \p HostBufs (the reference
/// a correct runtime must match bit-for-bit up to float associativity -
/// our kernels are executed with identical operation order everywhere, so
/// the match is exact).
void computeReference(const Workload &W,
                      std::vector<std::vector<std::byte>> &HostBufs);

/// Outcome of comparing read-back results with the host reference.
struct Validation {
  /// Every float within 1e-5 absolute plus 1e-5 relative of the reference.
  bool Valid = true;
  double MaxAbsError = 0;
};

/// Computes \p W's host reference in place over \p Host (its initial
/// data) and compares \p Results, one vector per W.ResultBuffers entry,
/// against it. Shared by runWorkload and the serving job executors.
Validation validateResults(const Workload &W,
                           std::vector<std::vector<std::byte>> &Host,
                           const std::vector<std::vector<std::byte>> &Results);

/// Runs \p W under \p RT; validates read-back results against the host
/// reference when \p Validate and the context is functional.
RunResult runWorkload(runtime::HeteroRuntime &RT, const Workload &W,
                      bool Validate);

/// Which runtime to construct for a run.
enum class RuntimeKind {
  CpuOnly,
  GpuOnly,
  StaticPartition,
  FluidiCL,
  SoclEager,
  SoclDmda,
};

/// One --runtime spelling and the kind it selects.
struct RuntimeName {
  const char *Name;
  RuntimeKind Kind;
};

/// Every runtime a tool can name, in --runtime=all order: cpu, gpu,
/// static, socl-eager, socl-dmda, fluidicl.
const std::vector<RuntimeName> &runtimeTable();

/// Fills \p Out for a runtimeTable() name and returns true; false for
/// unknown names (the caller reports the error).
bool runtimeByName(const std::string &Name, RuntimeKind &Out);

/// The names runtimeByName accepts, for usage/error text
/// ("cpu|gpu|static|...").
const char *runtimeNames();

/// Static split of RuntimeKind::StaticPartition unless a caller passes its
/// own (the tools' --gpu-fraction default).
constexpr double DefaultGpuFraction = 0.5;

/// A runtime made by makeRuntime. Owns the SOCL performance model the
/// runtime borrows; declared first, so it outlives the runtime.
struct BuiltRuntime {
  std::unique_ptr<socl::PerfModel> SoclModel;
  std::unique_ptr<runtime::HeteroRuntime> RT;
};

/// Builds runtime \p K on \p Ctx. \p GpuFraction is the StaticPartition
/// split and \p FclOpts configure FluidiCL; other kinds ignore them.
/// SOCL-dmda first runs 10 calibration passes of \p W (the paper uses at
/// least 10), each on a fresh context with \p Ctx's machine and mode, to
/// populate its performance model.
BuiltRuntime makeRuntime(RuntimeKind K, mcl::Context &Ctx, const Workload &W,
                         const fluidicl::Options &FclOpts,
                         double GpuFraction = DefaultGpuFraction);

/// Configuration for timed comparison runs.
struct RunConfig {
  hw::Machine M = hw::paperMachine();
  mcl::ExecMode Mode = mcl::ExecMode::TimingOnly;
  fluidicl::Options FclOpts;
};

/// Total running time of \p W under runtime \p K on a fresh machine
/// (StaticPartition splits at DefaultGpuFraction; timeStaticPartition
/// takes the fraction).
Duration timeUnder(RuntimeKind K, const Workload &W,
                   const RunConfig &C = RunConfig());

/// Packs everything a finished run produced into a RunReport: the
/// runtime's counters and per-launch records, the workload name, the
/// measured wall time, and per-lane utilization when a tracer observed
/// the run.
stats::RunReport collectRunReport(const runtime::HeteroRuntime &RT,
                                  const Workload &W, Duration Wall,
                                  const trace::Tracer *T = nullptr);

/// Like timeUnder, but returns the full run report. When \p T is non-null
/// it is attached to the fresh context for the run's whole lifetime, so
/// the report gains per-lane utilization and the tracer gains the run's
/// slices and counter tracks.
stats::RunReport reportUnder(RuntimeKind K, const Workload &W,
                             const RunConfig &C = RunConfig(),
                             trace::Tracer *T = nullptr);

/// Total running time under a manual static partition at \p GpuFraction.
Duration timeStaticPartition(const Workload &W, double GpuFraction,
                             const RunConfig &C = RunConfig());

/// Best static partition over fractions 0, Step, 2*Step, ..., 100 percent
/// (the OracleSP bar). Reports the winning fraction via \p BestFraction.
Duration oracleStaticPartition(const Workload &W,
                               const RunConfig &C = RunConfig(),
                               int StepPct = 10,
                               double *BestFraction = nullptr);

/// Qilin-style training pass: measures each of \p W's kernels on both
/// devices of a fresh machine and records the rates into \p Model.
void trainSplitModel(const Workload &W, const hw::Machine &M,
                     runtime::SplitModel &Model);

/// Total running time of \p W under the Qilin-style profiled splitter
/// (training on \p TrainW, which may differ from W to expose the scheme's
/// input-sensitivity).
Duration timeProfiledSplit(const Workload &W, const Workload &TrainW,
                           const RunConfig &C = RunConfig());

} // namespace work
} // namespace fcl

#endif // FCL_WORK_DRIVER_H
