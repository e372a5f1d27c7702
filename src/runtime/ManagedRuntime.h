//===- runtime/ManagedRuntime.h - Shared baseline-runtime core --*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host plumbing every baseline runtime shares: a table of
/// ManagedBuffers, one in-order queue per device it uses, buffer creation
/// and host writes, read-back from whichever device holds the current
/// copy, argument binding, and the post-launch "written buffers now live
/// only on the device" update. Subclasses add only their policy: which
/// device runs a kernel (SOCL), how a range splits (static partition,
/// Qilin-style split), and what is uploaded eagerly (single device).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RUNTIME_MANAGEDRUNTIME_H
#define FCL_RUNTIME_MANAGEDRUNTIME_H

#include "runtime/HeteroRuntime.h"
#include "runtime/ManagedBuffer.h"

#include <memory>
#include <vector>

namespace fcl {
namespace runtime {

/// HeteroRuntime over ManagedBuffers and per-device in-order queues.
class ManagedRuntime : public HeteroRuntime {
public:
  ~ManagedRuntime() override;

  BufferId createBuffer(uint64_t Size, std::string DebugName) override;
  void writeBuffer(BufferId Id, const void *Src, uint64_t Bytes) override;
  void readBuffer(BufferId Id, void *Dst, uint64_t Bytes) override;
  void finish() override;

protected:
  /// Creates a queue named \p GpuQueueName on the GPU, then one named
  /// \p CpuQueueName on the CPU; a null name leaves that device without a
  /// queue. Trace slices carry these names as `queue=...`.
  ManagedRuntime(mcl::Context &Ctx, const char *GpuQueueName,
                 const char *CpuQueueName);

  ManagedBuffer &buf(BufferId Id);
  mcl::CommandQueue &queueFor(mcl::Device &Dev);

  /// Charges the launch API call and resolves \p KernelName, checking the
  /// argument count.
  const kern::KernelInfo &beginLaunch(const std::string &KernelName,
                                      const std::vector<KArg> &Args);

  /// Counts one launch over \p Groups work-groups.
  void countLaunch(uint64_t Groups);

  /// Makes \p B's host shadow current, reading it back (blocking) from a
  /// device holding a valid copy, \p Preferred first.
  void ensureHost(ManagedBuffer &B, mcl::Device *Preferred);

  /// Binds \p Args to \p Dev's copies of their buffers.
  mcl::LaunchDesc bindOn(mcl::Device &Dev, const kern::KernelInfo &Kernel,
                         const kern::NDRange &Range,
                         const std::vector<KArg> &Args);

  /// Marks every buffer \p Kernel writes as held only by \p Dev.
  void markWritten(mcl::Device &Dev, const kern::KernelInfo &Kernel,
                   const std::vector<KArg> &Args);

private:
  std::unique_ptr<mcl::CommandQueue> GpuQueue;
  std::unique_ptr<mcl::CommandQueue> CpuQueue;
  std::vector<std::unique_ptr<ManagedBuffer>> Buffers;
};

} // namespace runtime
} // namespace fcl

#endif // FCL_RUNTIME_MANAGEDRUNTIME_H
