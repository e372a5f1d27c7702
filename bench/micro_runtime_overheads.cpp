//===- bench/micro_runtime_overheads.cpp - Runtime microbenchmarks --------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks for the runtime substrate itself (experiment E12, an
/// extension beyond the paper's tables): discrete-event throughput, queue
/// command overhead, flattened-ID math, slice computation, the functional
/// merge kernel, and a full cooperative kernel execution. Each is timed
/// by hand on the host wall clock, best of 3 over fixed iteration
/// batches, and printed as one table row. The numbers describe this host
/// only; perfbench/ is the benchmark that compares builds.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "fluidicl/Runtime.h"
#include "kern/NDRange.h"
#include "kern/Registry.h"
#include "mcl/CommandQueue.h"
#include "prof/Profiler.h"
#include "sim/Simulator.h"
#include "work/Driver.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

using namespace fcl;

namespace {

/// Keeps the optimizer from discarding a computed value.
template <typename T> inline void doNotOptimize(T const &Value) {
  asm volatile("" : : "r,m"(Value) : "memory");
}

struct Micro {
  const char *Name;     // table row, e.g. "sim_event_dispatch"
  uint64_t ItemsPerRun; // items processed by one Fn() call
  int Runs;             // Fn() calls per repeat (averaged)
  std::function<void()> Fn;
};

void benchSimulatorEventDispatch(std::vector<Micro> &Out) {
  Out.push_back({"sim_event_dispatch", 1024, 64, [] {
                   sim::Simulator Sim;
                   for (int I = 0; I < 1024; ++I)
                     Sim.scheduleAfter(Duration::nanoseconds(I), [] {});
                   Sim.run();
                 }});
}

void benchFlattenUnflatten(std::vector<Micro> &Out) {
  kern::Dim3 Groups{64, 32, 4};
  uint64_t Total = Groups.product();
  Out.push_back({"flatten_unflatten", Total, 16, [Groups, Total] {
                   uint64_t Sum = 0;
                   for (uint64_t Flat = 0; Flat < Total; ++Flat) {
                     kern::Dim3 Id = kern::unflattenGroupId(Flat, Groups);
                     Sum += kern::flattenGroupId(Id, Groups);
                   }
                   doNotOptimize(Sum);
                 }});
}

void benchSliceComputation(std::vector<Micro> &Out) {
  kern::NDRange Range = kern::NDRange::of2D(2048, 2048, 32, 8);
  uint64_t Total = Range.totalGroups();
  uint64_t Slices = 0;
  for (uint64_t Lo = 0; Lo + 128 < Total; Lo += 997)
    ++Slices;
  Out.push_back({"slice_computation", Slices, 32, [Range, Total] {
                   for (uint64_t Lo = 0; Lo + 128 < Total; Lo += 997)
                     doNotOptimize(kern::computeSlice(Range, Lo, Lo + 128));
                 }});
}

void benchQueueWriteCommands(std::vector<Micro> &Out) {
  Out.push_back({"queue_write_commands", 256, 16, [] {
                   mcl::Context Ctx(hw::paperMachine(),
                                    mcl::ExecMode::TimingOnly);
                   auto Queue = Ctx.createQueue(Ctx.gpu());
                   auto Buf = Ctx.createBuffer(Ctx.gpu(), 4096);
                   for (int I = 0; I < 256; ++I)
                     Queue->enqueueWrite(*Buf, nullptr, 4096);
                   Queue->finish();
                 }});
}

void benchFunctionalMergeKernel(std::vector<Micro> &Out) {
  const uint64_t Bytes = 1 << 20;
  auto Cpu = std::make_shared<std::vector<std::byte>>(Bytes, std::byte{1});
  auto Gpu = std::make_shared<std::vector<std::byte>>(Bytes, std::byte{0});
  auto Orig = std::make_shared<std::vector<std::byte>>(Bytes, std::byte{0});
  uint64_t Items = Bytes / kern::MergeChunkBytes;
  kern::NDRange Range = kern::NDRange::of1D(Items, 64);
  Out.push_back(
      {"functional_merge_kernel", Bytes, 8, [=] {
         const kern::KernelInfo &Merge =
             kern::Registry::builtin().get("md_merge_kernel");
         kern::ArgsView Args(std::vector<kern::ArgValue>{
             kern::ArgValue::buffer(Cpu->data(), Bytes),
             kern::ArgValue::buffer(Gpu->data(), Bytes),
             kern::ArgValue::buffer(Orig->data(), Bytes),
             kern::ArgValue::scalarInt(static_cast<int64_t>(Bytes)),
             kern::ArgValue::scalarInt(4)});
         kern::executeGroups(Merge, Range, Args, 0, Range.totalGroups());
       }});
}

void benchCooperativeKernel(std::vector<Micro> &Out) {
  auto W = std::make_shared<work::Workload>(work::makeSyrk(512, 512));
  Out.push_back({"cooperative_kernel_timing_only", 1, 2, [W] {
                   work::RunConfig C;
                   doNotOptimize(
                       work::timeUnder(work::RuntimeKind::FluidiCL, *W, C));
                 }});
}

} // namespace

int main() {
  bench::printHeader("E12", "runtime-substrate microbenchmarks (host wall "
                            "clock, best of 3)");
  // Best of this many timed batches per microbenchmark.
  const int Repeat = 3;

  std::vector<Micro> Micros;
  benchSimulatorEventDispatch(Micros);
  benchFlattenUnflatten(Micros);
  benchSliceComputation(Micros);
  benchQueueWriteCommands(Micros);
  benchFunctionalMergeKernel(Micros);
  benchCooperativeKernel(Micros);

  std::printf("%-32s %8s %14s %14s\n", "benchmark", "runs", "ns/op",
              "items/s");
  for (const Micro &M : Micros) {
    double BestNs = std::numeric_limits<double>::infinity();
    for (int R = 0; R < Repeat; ++R) {
      int64_t Start = prof::wallNowNs();
      for (int I = 0; I < M.Runs; ++I)
        M.Fn();
      double Ns = static_cast<double>(prof::wallNowNs() - Start) /
                  static_cast<double>(M.Runs);
      BestNs = std::min(BestNs, Ns);
    }
    double NsPerOp = BestNs / static_cast<double>(M.ItemsPerRun);
    double ItemsPerSec = NsPerOp > 0 ? 1e9 / NsPerOp : 0.0;
    std::printf("%-32s %8d %14.1f %14.0f\n", M.Name, M.Runs * Repeat,
                NsPerOp, ItemsPerSec);
  }
  return 0;
}
