//===- runtime/StaticPartition.cpp - Manual x% GPU split baseline ---------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/StaticPartition.h"

#include "kern/Registry.h"
#include "support/Error.h"
#include "support/Format.h"

#include <cmath>

using namespace fcl;
using namespace fcl::runtime;

StaticPartitionRuntime::StaticPartitionRuntime(mcl::Context &Ctx,
                                               double GpuFraction)
    : ManagedRuntime(Ctx, "sp-gpu", "sp-cpu"), GpuFraction(GpuFraction) {
  FCL_CHECK(GpuFraction >= 0.0 && GpuFraction <= 1.0,
            "GPU fraction out of [0,1]");
}

std::string StaticPartitionRuntime::name() const {
  return formatString("Static%2.0f", GpuFraction * 100.0);
}

double StaticPartitionRuntime::fractionFor(const std::string &) const {
  return GpuFraction;
}

mcl::EventPtr StaticPartitionRuntime::launchOn(mcl::Device &Dev,
                                               const kern::KernelInfo &Kernel,
                                               const kern::NDRange &Range,
                                               const std::vector<KArg> &Args,
                                               uint64_t FlatBegin,
                                               uint64_t FlatEnd) {
  mcl::LaunchDesc Desc = bindOn(Dev, Kernel, Range, Args);
  Desc.FlatBegin = FlatBegin;
  Desc.FlatEnd = FlatEnd;
  return queueFor(Dev).enqueueKernel(std::move(Desc));
}

void StaticPartitionRuntime::launchKernel(const std::string &KernelName,
                                          const kern::NDRange &Range,
                                          const std::vector<KArg> &Args) {
  const kern::KernelInfo &Kernel = beginLaunch(KernelName, Args);
  double Fraction = fractionFor(KernelName);

  uint64_t Total = Range.totalGroups();
  uint64_t GpuGroups = static_cast<uint64_t>(
      std::llround(Fraction * static_cast<double>(Total)));
  if (GpuGroups > Total)
    GpuGroups = Total;
  bool UsesGpu = GpuGroups > 0;
  bool UsesCpu = GpuGroups < Total;

  countLaunch(Total);
  Stats.add("gpu_workgroups_completed", GpuGroups);
  Stats.add("cpu_workgroups_completed", Total - GpuGroups);

  // Manual data management: the programmer makes the host copy current,
  // snapshots the pre-image of written buffers, and uploads inputs to the
  // devices that participate.
  std::vector<size_t> WrittenArgIdx;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (!Args[I].IsBuffer)
      continue;
    ManagedBuffer &B = buf(Args[I].Buf);
    ensureHost(B, &Ctx.gpu());
    if (UsesGpu)
      B.ensureOn(Ctx.gpu(), queueFor(Ctx.gpu()));
    if (UsesCpu)
      B.ensureOn(Ctx.cpu(), queueFor(Ctx.cpu()));
    if (kern::isWrittenAccess(Kernel.Args[I]))
      WrittenArgIdx.push_back(I);
  }

  // Pre-images for the host-side merge.
  std::vector<std::vector<std::byte>> PreImages;
  bool BothDevices = UsesGpu && UsesCpu;
  if (BothDevices && Ctx.functional()) {
    for (size_t I : WrittenArgIdx) {
      ManagedBuffer &B = buf(Args[I].Buf);
      PreImages.emplace_back(B.hostData(), B.hostData() + B.size());
    }
  }

  mcl::EventPtr GpuDone, CpuDone;
  if (UsesGpu)
    GpuDone = launchOn(Ctx.gpu(), Kernel, Range, Args, 0, GpuGroups);
  if (UsesCpu)
    CpuDone = launchOn(Ctx.cpu(), Kernel, Range, Args, GpuGroups, Total);
  if (GpuDone)
    GpuDone->wait();
  if (CpuDone)
    CpuDone->wait();

  if (!BothDevices) {
    markWritten(UsesGpu ? Ctx.gpu() : Ctx.cpu(), Kernel, Args);
    return;
  }

  // Read both halves back in full and merge on the host against the
  // pre-image (the generic manual scheme; per-row sub-buffer transfers are
  // an app-specific optimization FluidiCL does not get either).
  for (size_t W = 0; W < WrittenArgIdx.size(); ++W) {
    size_t I = WrittenArgIdx[W];
    ManagedBuffer &B = buf(Args[I].Buf);
    std::vector<std::byte> GpuCopy, CpuCopy;
    if (Ctx.functional()) {
      GpuCopy.resize(B.size());
      CpuCopy.resize(B.size());
    }
    mcl::EventPtr RG = queueFor(Ctx.gpu()).enqueueRead(
        B.on(Ctx.gpu()), GpuCopy.empty() ? nullptr : GpuCopy.data(),
        B.size());
    mcl::EventPtr RC = queueFor(Ctx.cpu()).enqueueRead(
        B.on(Ctx.cpu()), CpuCopy.empty() ? nullptr : CpuCopy.data(),
        B.size());
    RG->wait();
    RC->wait();
    if (Ctx.functional()) {
      const std::vector<std::byte> &Pre = PreImages[W];
      std::byte *Out = B.hostData();
      for (uint64_t Byte = 0; Byte < B.size(); ++Byte) {
        if (GpuCopy[Byte] != Pre[Byte])
          Out[Byte] = GpuCopy[Byte];
        else if (CpuCopy[Byte] != Pre[Byte])
          Out[Byte] = CpuCopy[Byte];
      }
    }
    // Charge the host merge pass (two reads + one write over the buffer).
    Stats.add("host_merge_bytes", B.size());
    Ctx.hostAdvance(Ctx.machine().Host.memcpyTime(3 * B.size()));
    B.markHostCurrent();
    B.invalidateDevices();
  }
}
