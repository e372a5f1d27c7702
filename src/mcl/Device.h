//===- mcl/Device.h - Simulated compute devices -----------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract simulated device: executes kernel launches in virtual time
/// and models the transfer path between host memory and its own memory
/// (PCIe for the discrete GPU, cache-coherent memcpy for the CPU device).
/// Concrete engines: CpuEngine (mcl/CpuEngine.h) and GpuEngine
/// (mcl/GpuEngine.h).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_DEVICE_H
#define FCL_MCL_DEVICE_H

#include "mcl/Launch.h"
#include "support/SimTime.h"

#include <cstdint>
#include <functional>
#include <string>

namespace fcl {
namespace mcl {

class Context;

enum class DeviceKind {
  Cpu,
  Gpu,
};

/// Transfer direction relative to the device.
enum class TransferDir {
  HostToDevice,
  DeviceToHost,
};

/// A simulated OpenCL device.
class Device {
public:
  virtual ~Device();

  DeviceKind kind() const { return Kind; }
  const std::string &name() const { return DeviceName; }
  Context &context() const { return Ctx; }

  /// Number of parallel compute units (cores for the CPU, SMs for the GPU).
  virtual int computeUnits() const = 0;

  /// Reserves the transfer channel for \p Bytes starting no earlier than
  /// now, returning the simulated completion time. Transfers in the same
  /// direction serialize on the channel; opposite directions are
  /// independent (full duplex).
  TimePoint scheduleTransfer(TransferDir Dir, uint64_t Bytes);

  /// Channel time of one host<->device transfer of \p Bytes.
  virtual Duration transferTime(uint64_t Bytes) const = 0;

  /// Duration of an on-device buffer-to-buffer copy of \p Bytes.
  virtual Duration copyDuration(uint64_t Bytes) const = 0;

  /// Begins executing \p Desc at the current simulated time; calls
  /// \p Complete(ExecutedGroups) at the simulated completion time.
  /// Functional execution of surviving work-groups happens at their
  /// simulated completion. \p Desc is borrowed, not copied: the caller
  /// keeps it alive and unchanged until \p Complete has run (the command
  /// queue does, by holding the command until it completes).
  virtual void executeLaunch(const LaunchDesc &Desc,
                             std::function<void(uint64_t)> Complete) = 0;

protected:
  Device(Context &Ctx, DeviceKind Kind, std::string Name);

  Context &Ctx;

private:
  DeviceKind Kind;
  std::string DeviceName;
  /// When each direction's channel (host-to-device, device-to-host) frees.
  TimePoint ChannelFree[2];
};

/// Resolves launch arguments into the kernel-facing ArgsView (buffer data
/// pointers + scalars) and verifies buffers belong to \p Dev.
kern::ArgsView resolveArgs(const Device &Dev, const LaunchDesc &Desc);

/// The kernel's per-work-item cost for \p Desc (its cost descriptor over
/// the launch's range and arguments).
hw::WorkItemCost launchCost(const LaunchDesc &Desc);

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_DEVICE_H
