//===- mcl/Device.cpp - Simulated compute devices --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/Device.h"

#include "mcl/Buffer.h"
#include "mcl/Context.h"
#include "support/Error.h"

#include <algorithm>

using namespace fcl;
using namespace fcl::mcl;

Device::Device(Context &Ctx, DeviceKind Kind, std::string Name)
    : Ctx(Ctx), Kind(Kind), DeviceName(std::move(Name)) {}

Device::~Device() = default;

TimePoint Device::scheduleTransfer(TransferDir Dir, uint64_t Bytes) {
  TimePoint &Free = ChannelFree[Dir == TransferDir::HostToDevice ? 0 : 1];
  Free = std::max(Free, Ctx.now()) + transferTime(Bytes);
  return Free;
}

kern::ArgsView fcl::mcl::resolveArgs(const Device &Dev,
                                     const LaunchDesc &Desc) {
  const kern::KernelInfo &Kernel = *Desc.Kernel;
  FCL_CHECK(Kernel.Args.size() == Desc.Args.size(),
            "argument arity mismatch");
  std::vector<kern::ArgValue> Values;
  Values.reserve(Desc.Args.size());
  for (size_t I = 0; I < Desc.Args.size(); ++I) {
    const LaunchArg &A = Desc.Args[I];
    if (Kernel.Args[I] == kern::ArgAccess::Scalar) {
      FCL_CHECK(A.Buf == nullptr, "buffer bound to scalar argument");
      kern::ArgValue V;
      V.IntValue = A.IntValue;
      V.FpValue = A.FpValue;
      Values.push_back(V);
      continue;
    }
    FCL_CHECK(A.Buf != nullptr, "missing buffer argument");
    FCL_CHECK(&A.Buf->device() == &Dev, "buffer belongs to another device");
    Values.push_back(kern::ArgValue::buffer(A.Buf->data(), A.Buf->size()));
  }
  return kern::ArgsView(std::move(Values));
}

hw::WorkItemCost fcl::mcl::launchCost(const LaunchDesc &Desc) {
  kern::CostQuery Query;
  Query.Range = Desc.Range;
  for (const LaunchArg &A : Desc.Args) {
    kern::ArgValue V;
    V.IntValue = A.IntValue;
    V.FpValue = A.FpValue;
    Query.Scalars.push_back(V);
  }
  return Desc.Kernel->Cost(Query);
}
