//===- serve/JobExec.h - Asynchronous per-job executors ---------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one admitted job (a work::Workload) to completion without ever
/// blocking the simulator: the serve engine drives many jobs concurrently
/// from inside simulator events, so every executor is a completion-callback
/// chain, not a drain loop.
///
///  * CoopJobExec   - the job owns a private fluidicl::Runtime (its own
///    command queues, buffers, version tracker and stats over the shared
///    simulated devices) and executes cooperatively across the CPU+GPU
///    pair via the runtime's async API.
///  * SingleJobExec - the job owns one in-order command queue on a single
///    device; writes, kernels and reads are enqueued back-to-back and the
///    last read's completion finishes the job.
///
/// Both build on the JobExec core below, as does the DAG executor
/// (dag/DagExec.h). In functional execution mode every executor can
/// validate its results against the host reference, proving that
/// concurrent streams do not corrupt each other's data.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_JOBEXEC_H
#define FCL_SERVE_JOBEXEC_H

#include "fluidicl/Options.h"
#include "fluidicl/Runtime.h"
#include "mcl/CommandQueue.h"
#include "mcl/Context.h"
#include "work/Workload.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace fcl {
namespace serve {

/// The one executor core under every job shape (CoopJobExec,
/// SingleJobExec and dag::DagJobExec): it owns the job's workload, the
/// pristine host inputs, the result slots and the completion callback, and
/// states the finish rule (validate, then fire OnDone once) for all three.
/// Lifetime: the engine keeps every executor alive until the whole run is
/// torn down, so trailing cooperative work (DH transfers after the client
/// already has its results) can drain on the shared clock without dangling
/// queues.
class JobExec {
public:
  using DoneFn = std::function<void()>;

  virtual ~JobExec() = default;

  /// Starts the job; \p OnDone fires exactly once, when the client has its
  /// results (trailing cooperative drain may continue afterwards, matching
  /// how the paper measures total running time).
  virtual void start(DoneFn OnDone) = 0;

  /// True when functional validation ran and the results were wrong.
  bool validationFailed() const { return ValidationFailed; }

  /// The job's FluidiCL runtime when it has one (cooperative executors
  /// only); the engine drains its check diagnostics into the serve report
  /// before tear-down. Null for the other executors.
  virtual fluidicl::Runtime *fclRuntime() { return nullptr; }

protected:
  JobExec(mcl::Context &Ctx, const work::Workload &W, bool Validate)
      : Ctx(Ctx), W(W), Validate(Validate) {}

  /// First step of every start(): keeps \p Done and, in functional mode,
  /// draws the host inputs and sizes one slot per result buffer.
  void begin(DoneFn Done);
  /// Last step of every job: validates Results against the host reference
  /// over Host (when asked, functional mode) and fires OnDone once.
  void finishJob();

  mcl::Context &Ctx;
  const work::Workload &W;
  bool Validate;
  /// Pristine host inputs (functional mode only): writes copy them, and
  /// validation replays the host reference from them.
  std::vector<std::vector<std::byte>> Host;
  /// One host slot per workload result buffer (sized in functional mode).
  std::vector<std::vector<std::byte>> Results;

private:
  bool ValidationFailed = false;
  DoneFn OnDone;
};

/// Cooperative CPU+GPU execution through a private FluidiCL runtime.
class CoopJobExec final : public JobExec {
public:
  CoopJobExec(mcl::Context &Ctx, const work::Workload &W,
              const fluidicl::Options &Opts, bool Validate);

  void start(DoneFn OnDone) override;

  /// The job's private runtime (the engine installs its chunk-yield hook
  /// here before start()).
  fluidicl::Runtime &runtime() { return *RT; }

  fluidicl::Runtime *fclRuntime() override { return RT.get(); }

private:
  void launchNext();
  void readNext();

  std::unique_ptr<fluidicl::Runtime> RT;
  std::vector<runtime::BufferId> Ids;
  size_t NextCall = 0;
  size_t NextRead = 0;
};

/// Whole job on one device through a private in-order queue.
class SingleJobExec final : public JobExec {
public:
  SingleJobExec(mcl::Context &Ctx, mcl::Device &Dev, const work::Workload &W,
                bool Validate);

  void start(DoneFn OnDone) override;

private:
  mcl::Device &Dev;
  std::unique_ptr<mcl::CommandQueue> Q;
  std::vector<std::unique_ptr<mcl::Buffer>> Bufs;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_JOBEXEC_H
