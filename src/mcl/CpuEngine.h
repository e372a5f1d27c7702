//===- mcl/CpuEngine.h - Simulated CPU OpenCL device ------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated multicore CPU device, modelled after the AMD APP CPU
/// OpenCL runtime the paper uses: each work-group executes as a single
/// thread (work-items in a loop) on one compute unit, each kernel launch
/// pays a fixed enqueue/dispatch overhead, and - with SplitWorkGroups set -
/// a work-group can be split across all compute units with barriers turned
/// into phase joins (paper section 6.3).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_CPUENGINE_H
#define FCL_MCL_CPUENGINE_H

#include "mcl/Device.h"

namespace fcl {
namespace mcl {

/// Simulated CPU device.
class CpuEngine final : public Device {
public:
  explicit CpuEngine(Context &Ctx);

  int computeUnits() const override;
  Duration transferTime(uint64_t Bytes) const override;
  Duration copyDuration(uint64_t Bytes) const override;
  void executeLaunch(const LaunchDesc &Desc,
                     std::function<void(uint64_t)> Complete) override;

  /// Computed duration of a launch (exposed for tests and for the SOCL
  /// dmda performance model's ground truth).
  Duration launchDuration(const LaunchDesc &Desc) const;
};

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_CPUENGINE_H
