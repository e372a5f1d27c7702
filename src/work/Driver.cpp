//===- work/Driver.cpp - Experiment driver ----------------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "work/Driver.h"

#include "fluidicl/Runtime.h"
#include "kern/Registry.h"
#include "runtime/SingleDevice.h"
#include "runtime/StaticPartition.h"
#include "socl/SoclRuntime.h"
#include "support/Error.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>

using namespace fcl;
using namespace fcl::work;

namespace {

/// Calibration runs before a measured SOCL-dmda run.
constexpr int DmdaCalibrationRuns = 10;

} // namespace

std::vector<std::vector<std::byte>> fcl::work::initHostData(const Workload &W) {
  std::vector<std::vector<std::byte>> Bufs;
  Bufs.reserve(W.Buffers.size());
  for (size_t I = 0; I < W.Buffers.size(); ++I) {
    const BufferSpec &Spec = W.Buffers[I];
    std::vector<std::byte> Data(Spec.Bytes);
    Rng R(0xC0FFEE ^ (static_cast<uint64_t>(I) * 0x9E3779B9u));
    auto *F = reinterpret_cast<float *>(Data.data());
    for (uint64_t J = 0; J < Spec.Bytes / sizeof(float); ++J)
      F[J] = static_cast<float>(R.nextInRange(0.05, 1.0));
    Bufs.push_back(std::move(Data));
  }
  return Bufs;
}

void fcl::work::executeOnHost(const kern::KernelInfo &Kernel,
                              const KernelCall &Call,
                              std::vector<std::vector<std::byte>> &HostBufs) {
  std::vector<kern::ArgValue> Values;
  for (const runtime::KArg &A : Call.Args) {
    if (A.IsBuffer) {
      std::vector<std::byte> &B = HostBufs[A.Buf];
      Values.push_back(kern::ArgValue::buffer(B.data(), B.size()));
    } else {
      kern::ArgValue V;
      V.IntValue = A.IntValue;
      V.FpValue = A.FpValue;
      Values.push_back(V);
    }
  }
  kern::executeGroups(Kernel, Call.Range, kern::ArgsView(std::move(Values)), 0,
                      Call.Range.totalGroups());
}

void fcl::work::computeReference(const Workload &W,
                                 std::vector<std::vector<std::byte>> &HostBufs) {
  FCL_CHECK(HostBufs.size() == W.Buffers.size(), "buffer count mismatch");
  for (const KernelCall &Call : W.Calls)
    executeOnHost(kern::Registry::builtin().get(Call.Kernel), Call, HostBufs);
}

Validation fcl::work::validateResults(
    const Workload &W, std::vector<std::vector<std::byte>> &Host,
    const std::vector<std::vector<std::byte>> &Results) {
  computeReference(W, Host);
  Validation V;
  for (size_t R = 0; R < W.ResultBuffers.size(); ++R) {
    const auto *Got = reinterpret_cast<const float *>(Results[R].data());
    const auto *Want =
        reinterpret_cast<const float *>(Host[W.ResultBuffers[R]].data());
    uint64_t Count = Results[R].size() / sizeof(float);
    for (uint64_t J = 0; J < Count; ++J) {
      double Err = std::fabs(static_cast<double>(Got[J]) - Want[J]);
      if (Err > V.MaxAbsError)
        V.MaxAbsError = Err;
      // Identical operation order on every path: results must agree to
      // tiny float noise (merge copies bytes verbatim).
      double Tol = 1e-5 + 1e-5 * std::fabs(Want[J]);
      if (Err > Tol)
        V.Valid = false;
    }
  }
  return V;
}

RunResult fcl::work::runWorkload(runtime::HeteroRuntime &RT, const Workload &W,
                                 bool Validate) {
  mcl::Context &Ctx = RT.context();
  bool Functional = Ctx.functional();

  std::vector<std::vector<std::byte>> Host;
  if (Functional)
    Host = initHostData(W);

  TimePoint Start = RT.now();

  std::vector<runtime::BufferId> Ids;
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    Ids.push_back(RT.createBuffer(W.Buffers[I].Bytes, W.Buffers[I].Name));
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    RT.writeBuffer(Ids[I], Functional ? Host[I].data() : nullptr,
                   W.Buffers[I].Bytes);

  for (const KernelCall &Call : W.Calls) {
    // Remap workload-local buffer indices to runtime buffer ids.
    std::vector<runtime::KArg> Args = Call.Args;
    for (runtime::KArg &A : Args)
      if (A.IsBuffer)
        A.Buf = Ids[A.Buf];
    RT.launchKernel(Call.Kernel, Call.Range, Args);
  }

  std::vector<std::vector<std::byte>> Results;
  for (size_t RIdx : W.ResultBuffers) {
    std::vector<std::byte> Out;
    if (Functional)
      Out.resize(W.Buffers[RIdx].Bytes);
    RT.readBuffer(Ids[RIdx], Functional ? Out.data() : nullptr,
                  W.Buffers[RIdx].Bytes);
    Results.push_back(std::move(Out));
  }

  // Total running time ends when the application has its results (as the
  // paper measures); draining trailing cooperative work (e.g. a CPU
  // subkernel whose results the GPU already produced) happens afterwards.
  RunResult Res;
  Res.RuntimeName = RT.name();
  Res.Total = RT.now() - Start;
  RT.finish();

  if (Validate && Functional) {
    Validation V = validateResults(W, Host, Results);
    Res.Validated = true;
    Res.Valid = V.Valid;
    Res.MaxAbsError = V.MaxAbsError;
  }
  return Res;
}

const std::vector<RuntimeName> &fcl::work::runtimeTable() {
  static const std::vector<RuntimeName> Table = {
      {"cpu", RuntimeKind::CpuOnly},
      {"gpu", RuntimeKind::GpuOnly},
      {"static", RuntimeKind::StaticPartition},
      {"socl-eager", RuntimeKind::SoclEager},
      {"socl-dmda", RuntimeKind::SoclDmda},
      {"fluidicl", RuntimeKind::FluidiCL},
  };
  return Table;
}

bool fcl::work::runtimeByName(const std::string &Name, RuntimeKind &Out) {
  for (const RuntimeName &R : runtimeTable())
    if (Name == R.Name) {
      Out = R.Kind;
      return true;
    }
  return false;
}

const char *fcl::work::runtimeNames() {
  static const std::string Names = [] {
    std::string Joined;
    for (const RuntimeName &R : runtimeTable())
      Joined += (Joined.empty() ? "" : "|") + std::string(R.Name);
    return Joined;
  }();
  return Names.c_str();
}

BuiltRuntime fcl::work::makeRuntime(RuntimeKind K, mcl::Context &Ctx,
                                    const Workload &W,
                                    const fluidicl::Options &FclOpts,
                                    double GpuFraction) {
  BuiltRuntime Out;
  switch (K) {
  case RuntimeKind::CpuOnly:
  case RuntimeKind::GpuOnly:
    Out.RT = std::make_unique<runtime::SingleDeviceRuntime>(
        Ctx, K == RuntimeKind::CpuOnly ? mcl::DeviceKind::Cpu
                                       : mcl::DeviceKind::Gpu);
    return Out;
  case RuntimeKind::StaticPartition:
    Out.RT = std::make_unique<runtime::StaticPartitionRuntime>(Ctx,
                                                               GpuFraction);
    return Out;
  case RuntimeKind::FluidiCL:
    Out.RT = std::make_unique<fluidicl::Runtime>(Ctx, FclOpts);
    return Out;
  case RuntimeKind::SoclEager:
  case RuntimeKind::SoclDmda: {
    socl::Policy P =
        K == RuntimeKind::SoclEager ? socl::Policy::Eager : socl::Policy::Dmda;
    Out.SoclModel = std::make_unique<socl::PerfModel>();
    if (P == socl::Policy::Dmda)
      for (int I = 0; I < DmdaCalibrationRuns; ++I) {
        mcl::Context CalCtx(Ctx.machine(), Ctx.execMode());
        socl::SoclRuntime Cal(CalCtx, P, *Out.SoclModel,
                              /*Calibrating=*/true,
                              /*TaskSeed=*/static_cast<uint64_t>(I));
        runWorkload(Cal, W, false);
      }
    Out.RT = std::make_unique<socl::SoclRuntime>(Ctx, P, *Out.SoclModel);
    return Out;
  }
  }
  FCL_UNREACHABLE("covered switch");
}

namespace {

/// Builds \p K on a fresh machine configured by \p C and hands it to
/// \p Use: the one body behind timeUnder, reportUnder and
/// timeStaticPartition.
template <typename UseFn>
auto onFreshMachine(RuntimeKind K, const Workload &W, const RunConfig &C,
                    double GpuFraction, UseFn &&Use) {
  mcl::Context Ctx(C.M, C.Mode);
  BuiltRuntime Built = makeRuntime(K, Ctx, W, C.FclOpts, GpuFraction);
  return Use(*Built.RT);
}

Duration timeOnFreshMachine(RuntimeKind K, const Workload &W,
                            const RunConfig &C, double GpuFraction) {
  return onFreshMachine(K, W, C, GpuFraction, [&](runtime::HeteroRuntime &RT) {
    return runWorkload(RT, W, false).Total;
  });
}

} // namespace

Duration fcl::work::timeUnder(RuntimeKind K, const Workload &W,
                              const RunConfig &C) {
  return timeOnFreshMachine(K, W, C, DefaultGpuFraction);
}

stats::RunReport
fcl::work::collectRunReport(const runtime::HeteroRuntime &RT,
                            const Workload &W, Duration Wall,
                            const trace::Tracer *T) {
  stats::RunReport Rep;
  Rep.WorkloadName = W.Name;
  Rep.Wall = Wall;
  RT.collectStats(Rep);
  // Event-queue health of the runtime's simulator (exported so run reports
  // show tombstone pressure).
  sim::Simulator &Sim = RT.context().simulator();
  Rep.Counters.add("sim_events_executed", Sim.eventsExecuted());
  Rep.Counters.add("sim_tombstone_skips", Sim.tombstoneSkips());
  Rep.Counters.set("sim_pending_tombstones",
                static_cast<double>(Sim.pendingTombstones()));
  if (T)
    Rep.addUtilizationFromTracer(*T, Wall);
  return Rep;
}

stats::RunReport fcl::work::reportUnder(RuntimeKind K, const Workload &W,
                                        const RunConfig &C,
                                        trace::Tracer *T) {
  return onFreshMachine(K, W, C, DefaultGpuFraction,
                        [&](runtime::HeteroRuntime &RT) {
                          if (T)
                            RT.context().setTracer(T);
                          Duration Total = runWorkload(RT, W, false).Total;
                          return collectRunReport(RT, W, Total, T);
                        });
}

Duration fcl::work::timeStaticPartition(const Workload &W, double GpuFraction,
                                        const RunConfig &C) {
  return timeOnFreshMachine(RuntimeKind::StaticPartition, W, C, GpuFraction);
}

Duration fcl::work::oracleStaticPartition(const Workload &W,
                                          const RunConfig &C, int StepPct,
                                          double *BestFraction) {
  FCL_CHECK(StepPct > 0 && StepPct <= 100, "bad oracle step");
  Duration Best = Duration::nanoseconds(INT64_MAX);
  double BestFrac = 0;
  for (int Pct = 0; Pct <= 100; Pct += StepPct) {
    Duration T = timeStaticPartition(W, Pct / 100.0, C);
    if (T < Best) {
      Best = T;
      BestFrac = Pct / 100.0;
    }
  }
  if (BestFraction)
    *BestFraction = BestFrac;
  return Best;
}

void fcl::work::trainSplitModel(const Workload &W, const hw::Machine &M,
                                runtime::SplitModel &Model) {
  for (int D = 0; D < 2; ++D) {
    mcl::DeviceKind Kind =
        D == 0 ? mcl::DeviceKind::Cpu : mcl::DeviceKind::Gpu;
    mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
    runtime::SingleDeviceRuntime RT(Ctx, Kind);
    for (size_t B = 0; B < W.Buffers.size(); ++B)
      RT.createBuffer(W.Buffers[B].Bytes, W.Buffers[B].Name);
    for (const KernelCall &Call : W.Calls)
      Model.record(Call.Kernel, Kind,
                   RT.kernelOnlyDuration(Call.Kernel, Call.Range, Call.Args));
  }
}

Duration fcl::work::timeProfiledSplit(const Workload &W,
                                      const Workload &TrainW,
                                      const RunConfig &C) {
  runtime::SplitModel Model;
  trainSplitModel(TrainW, C.M, Model);
  mcl::Context Ctx(C.M, C.Mode);
  runtime::ProfiledSplitRuntime RT(Ctx, Model);
  return runWorkload(RT, W, false).Total;
}
