//===- runtime/SingleDevice.cpp - CPU-only / GPU-only baselines -----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/SingleDevice.h"

#include "kern/Registry.h"
#include "mcl/CpuEngine.h"
#include "mcl/GpuEngine.h"
#include "support/Error.h"

using namespace fcl;
using namespace fcl::runtime;

SingleDeviceRuntime::SingleDeviceRuntime(mcl::Context &Ctx,
                                         mcl::DeviceKind Kind)
    : ManagedRuntime(Ctx, Kind == mcl::DeviceKind::Gpu ? "app" : nullptr,
                     Kind == mcl::DeviceKind::Cpu ? "app" : nullptr),
      Dev(Kind == mcl::DeviceKind::Cpu ? Ctx.cpu() : Ctx.gpu()) {}

std::string SingleDeviceRuntime::name() const {
  return Dev.kind() == mcl::DeviceKind::Cpu ? "CPU" : "GPU";
}

void SingleDeviceRuntime::writeBuffer(BufferId Id, const void *Src,
                                      uint64_t Bytes) {
  Stats.add("app_bytes_written", Bytes);
  ManagedRuntime::writeBuffer(Id, Src, Bytes);
  buf(Id).ensureOn(Dev, queueFor(Dev));
}

void SingleDeviceRuntime::readBuffer(BufferId Id, void *Dst, uint64_t Bytes) {
  Stats.add("app_bytes_read", Bytes);
  ManagedRuntime::readBuffer(Id, Dst, Bytes);
}

void SingleDeviceRuntime::launchKernel(const std::string &KernelName,
                                       const kern::NDRange &Range,
                                       const std::vector<KArg> &Args) {
  const kern::KernelInfo &Kernel = beginLaunch(KernelName, Args);
  countLaunch(Range.totalGroups());
  Stats.add(Dev.kind() == mcl::DeviceKind::Cpu ? "cpu_workgroups_completed"
                                               : "gpu_workgroups_completed",
            Range.totalGroups());
  // Uploads for stale inputs, as a straightforward host program would issue.
  mcl::CommandQueue &Queue = queueFor(Dev);
  for (const KArg &A : Args)
    if (A.IsBuffer)
      buf(A.Buf).ensureOn(Dev, Queue);
  mcl::EventPtr Done = Queue.enqueueKernel(bindOn(Dev, Kernel, Range, Args));
  Done->wait(); // Kernel calls are blocking (paper section 7).
  markWritten(Dev, Kernel, Args);
}

Duration
SingleDeviceRuntime::kernelOnlyDuration(const std::string &KernelName,
                                        const kern::NDRange &Range,
                                        const std::vector<KArg> &Args) {
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  FCL_CHECK(Kernel.Args.size() == Args.size(), "argument arity mismatch");
  mcl::LaunchDesc Desc = bindOn(Dev, Kernel, Range, Args);
  if (Dev.kind() == mcl::DeviceKind::Gpu)
    return static_cast<mcl::GpuEngine &>(Dev).launchDuration(Desc);
  return static_cast<mcl::CpuEngine &>(Dev).launchDuration(Desc);
}
