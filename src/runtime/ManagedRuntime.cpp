//===- runtime/ManagedRuntime.cpp - Shared baseline-runtime core ----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ManagedRuntime.h"

#include "kern/Registry.h"
#include "support/Error.h"

#include <cstring>

using namespace fcl;
using namespace fcl::runtime;

ManagedRuntime::ManagedRuntime(mcl::Context &Ctx, const char *GpuQueueName,
                               const char *CpuQueueName)
    : HeteroRuntime(Ctx) {
  if (GpuQueueName)
    GpuQueue = Ctx.createQueue(Ctx.gpu(), GpuQueueName);
  if (CpuQueueName)
    CpuQueue = Ctx.createQueue(Ctx.cpu(), CpuQueueName);
}

ManagedRuntime::~ManagedRuntime() { ManagedRuntime::finish(); }

ManagedBuffer &ManagedRuntime::buf(BufferId Id) {
  FCL_CHECK(Id < Buffers.size(), "invalid buffer id");
  return *Buffers[Id];
}

mcl::CommandQueue &ManagedRuntime::queueFor(mcl::Device &Dev) {
  mcl::CommandQueue *Q = Dev.kind() == mcl::DeviceKind::Gpu ? GpuQueue.get()
                                                            : CpuQueue.get();
  FCL_CHECK(Q != nullptr, "runtime has no queue on this device");
  return *Q;
}

BufferId ManagedRuntime::createBuffer(uint64_t Size, std::string DebugName) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  Buffers.push_back(
      std::make_unique<ManagedBuffer>(Ctx, Size, std::move(DebugName)));
  return static_cast<BufferId>(Buffers.size() - 1);
}

void ManagedRuntime::writeBuffer(BufferId Id, const void *Src,
                                 uint64_t Bytes) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  buf(Id).writeFromHost(Src, Bytes);
}

void ManagedRuntime::readBuffer(BufferId Id, void *Dst, uint64_t Bytes) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  ManagedBuffer &B = buf(Id);
  FCL_CHECK(Bytes <= B.size(), "read overruns buffer");
  ensureHost(B, &Ctx.gpu());
  if (Dst && B.hostData())
    std::memcpy(Dst, B.hostData(), Bytes);
}

void ManagedRuntime::finish() {
  if (GpuQueue)
    GpuQueue->finish();
  if (CpuQueue)
    CpuQueue->finish();
}

const kern::KernelInfo &
ManagedRuntime::beginLaunch(const std::string &KernelName,
                            const std::vector<KArg> &Args) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  FCL_CHECK(Kernel.Args.size() == Args.size(), "argument arity mismatch");
  return Kernel;
}

void ManagedRuntime::countLaunch(uint64_t Groups) {
  Stats.add("kernel_launches");
  Stats.add("workgroups_total", Groups);
}

void ManagedRuntime::ensureHost(ManagedBuffer &B, mcl::Device *Preferred) {
  if (B.hostValid())
    return;
  mcl::Device *Src = B.anyValidDevice(Preferred);
  FCL_CHECK(Src != nullptr, "buffer has no valid copy anywhere");
  B.ensureHost(queueFor(*Src));
}

mcl::LaunchDesc ManagedRuntime::bindOn(mcl::Device &Dev,
                                       const kern::KernelInfo &Kernel,
                                       const kern::NDRange &Range,
                                       const std::vector<KArg> &Args) {
  return bindLaunch(Kernel, Range, Args,
                    [&](BufferId Id) { return &buf(Id).on(Dev); });
}

void ManagedRuntime::markWritten(mcl::Device &Dev,
                                 const kern::KernelInfo &Kernel,
                                 const std::vector<KArg> &Args) {
  for (size_t I = 0; I < Args.size(); ++I)
    if (Args[I].IsBuffer && kern::isWrittenAccess(Kernel.Args[I]))
      buf(Args[I].Buf).markDeviceExclusive(Dev);
}
