//===- serve/Engine.h - Multi-tenant serving engine -------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving engine: admits N concurrent client streams of kernel-launch
/// jobs, queues them through a bounded admission queue (arrivals beyond
/// the depth limit are rejected - backpressure), and dispatches them over
/// the simulated CPU+GPU pair under a pluggable Policy.
///
/// Devices are granted as job-level leases: at most one job computes on a
/// device at a time (the devices themselves model no cross-queue kernel
/// contention, so the engine is the arbiter). Under FluidicCorun the
/// cooperative head job leases the GPU while its CPU side yields between
/// subkernel chunks through fluidicl::Runtime's chunk-yield hook; the
/// engine slots whole short jobs into those yield windows ("backfill") and
/// resumes the cooperative CPU side when they finish.
///
/// Every job enters through injectJob. run() is a thin driver over it: it
/// injects the pre-drawn open-loop arrivals, or re-arms each closed-loop
/// stream from the outcome hook, then drains the simulator and calls
/// finish(). The cluster master (cluster/Cluster.h) drives the same calls
/// itself, in epoch quanta.
///
/// Everything runs as completion callbacks on the deterministic simulator:
/// same seed, same configuration => byte-identical report JSON.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_ENGINE_H
#define FCL_SERVE_ENGINE_H

#include "dag/Residency.h"
#include "fluidicl/Options.h"
#include "hw/Machine.h"
#include "mcl/Context.h"
#include "serve/JobExec.h"
#include "serve/LoadGen.h"
#include "serve/Metrics.h"
#include "serve/Policy.h"
#include "trace/Tracer.h"

#include <deque>
#include <functional>
#include <memory>
#include <vector>

namespace fcl {
namespace serve {

struct EngineConfig {
  hw::Machine M = hw::paperMachine();
  std::string MachineName = "paper";
  mcl::ExecMode Mode = mcl::ExecMode::TimingOnly;
  Policy P = Policy::FifoExclusive;
  /// Concurrent client streams.
  int Streams = 8;
  ArrivalSpec Arrival;
  /// Admission window: no arrivals are issued after this point; admitted
  /// jobs run to completion.
  Duration Horizon = Duration::milliseconds(250);
  uint64_t Seed = 1;
  /// Bounded admission queue depth; arrivals beyond it are rejected.
  int QueueDepth = 64;
  /// Jobs with >= this many work-groups (max over their launches) are
  /// "large" for DeviceAffine pinning and FluidicCorun backfill class.
  uint64_t LargeThreshold = 64;
  MixKind Mix = MixKind::Mixed;
  /// How compound (DAG) jobs place their nodes on the pair: residency-
  /// scored (transfer-skipping) or the residency-blind independent-jobs
  /// baseline. Only DAG-bearing mixes (pipeline) are affected.
  dag::Placement DagPlace = dag::Placement::Residency;
  fluidicl::Options FclOpts;
  /// fcl::race integration: Warn/Fail enable the happens-before analyzer
  /// around the run and collect its findings into the report (Fail makes
  /// the tool exit non-zero when any finding was recorded). The analyzer
  /// never perturbs simulated time, so same-seed reports are byte-identical
  /// with it on or off.
  check::Policy Races = check::Policy::Off;
  /// Validate results against the host reference (functional mode only).
  bool Validate = false;
  /// End-to-end SLO in milliseconds; 0 disables the check.
  double SloMs = 0;
  /// Optional tracer: serve lanes + queue-depth counter track.
  trace::Tracer *Tracer = nullptr;
};

/// What the cluster master needs to re-inject a stolen queued job into
/// another worker's engine.
struct StolenJob {
  uint64_t ClusterId = 0;
  int TemplateIdx = 0;
  int Stream = 0;
};

/// Completion/rejection record handed to the outcome hook. Fired inside
/// the engine's would-be lock (on a cluster worker's own thread); the hook
/// may inject further jobs but must touch no other engine's state.
struct JobOutcome {
  uint64_t ClusterId = 0;
  int Stream = 0;
  bool Rejected = false;
  TimePoint StartAt;
  TimePoint EndAt;
};

/// One engine instance runs one complete serve experiment.
class Engine {
public:
  explicit Engine(EngineConfig Cfg);
  ~Engine();

  /// Draws the configured load, injects it, runs the simulation to
  /// completion and returns finish()'s report. Arms the race analyzer when
  /// Cfg.Races asks for it. run() owns the outcome hook: closed loops
  /// re-arm their streams from it.
  ServeReport run();

  // --- Driving the engine step by step (cluster workers) ------------------
  //
  // The cluster master owns all engine state between epochs (workers
  // parked at the fabric barrier) and each worker owns its engine while
  // its epoch quantum runs; these calls are made from whichever side
  // currently holds ownership, never concurrently.

  /// Installs the completion/rejection hook. Call before any injectJob.
  void setOutcomeFn(std::function<void(const JobOutcome &)> Fn);
  /// Admits a job: schedules its arrival at \p At on this engine's
  /// simulator. \p TemplateIdx indexes templates(); \p ClusterId is
  /// echoed back in the job's outcome and in stealQueued.
  void injectJob(uint64_t ClusterId, int TemplateIdx, int Stream,
                 TimePoint At);
  /// Removes the newest still-queued request for migration to another
  /// worker. Returns false when the queue is empty.
  bool stealQueued(StolenJob &Out);
  /// Pumps this engine's simulator up to \p Deadline (the epoch quantum).
  /// Called on the worker's own thread.
  void advanceTo(TimePoint Deadline);
  /// Queued (admitted, not yet started) requests.
  size_t readyDepth() const { return Ready.size(); }
  /// Distinct requests currently holding a device.
  int runningJobs() const;
  /// Queued jobs stolen away from this engine so far.
  uint64_t stolenOut() const { return StolenOutN; }
  /// True when nothing is queued, running, or pending on the simulator.
  bool quiescent() const;
  TimePoint now() const;
  const std::vector<JobTemplate> &templates() const { return Templates; }
  /// The engine's would-be-lock section name (fcl::race): the master
  /// enters it around barrier-time mutations of this engine's state.
  const std::string &raceSectionName() const { return RaceSec; }
  /// Teardown, once the simulator is drained: collects check diagnostics
  /// (and race findings when Cfg.Races is on), builds the report and tears
  /// down the job executors.
  ServeReport finish();

private:
  struct Req {
    uint64_t Id = 0;
    int Stream = 0;
    const JobTemplate *T = nullptr;
    TimePoint ArrivalAt;
    TimePoint StartAt;
    TimePoint EndAt;
    bool Large = false;
    bool Rejected = false;
    bool Done = false;
    const char *Placement = "";
    std::unique_ptr<JobExec> Exec;
    uint64_t ClusterId = 0;
    int TemplateIdx = -1;
    /// Migrated away by stealQueued: excluded from local latency and
    /// completion accounting (the thief worker reports it).
    bool Stolen = false;
  };

  void onArrival(Req *R);
  void dispatch();
  void startCoop(Req *R);
  /// Starts a compound job: takes both device leases and hands the DAG to
  /// dag::DagJobExec.
  void startDag(Req *R);
  /// True when the next queued request is a compound (DAG) job.
  bool headIsDag() const;
  void startSingle(Req *R, bool OnGpu, bool Backfill);
  /// The one lease path. takeLease gives \p R the GPU's (\p Gpu) or the
  /// CPU's lease and starts its busy span; it is called before the job's
  /// executor starts, because job setup advances the simulated clock and
  /// can re-enter dispatch. dropLease releases it if \p R holds it and
  /// books the busy time.
  void takeLease(Req *R, bool Gpu);
  void dropLease(Req *R, bool Gpu);
  /// Hands \p R to \p Exec and starts it; jobDone fires on completion.
  void launch(Req *R, std::unique_ptr<JobExec> Exec);
  void jobDone(Req *R);
  /// fluidicl chunk-yield hook of the active cooperative job (corun only).
  void onChunkBoundary(std::function<void()> Resume);
  void drainResumes();
  void setCorunCpuBusy(bool Busy);
  /// Removes and returns the first queued request with the given class;
  /// null when none matches.
  Req *takeFirst(bool WantLarge);
  Req *popHead();
  void sampleQueueDepth();
  /// Drains per-job runtime check diagnostics and (when Cfg.Races is on)
  /// fcl::race findings into Found (called after the simulator is idle,
  /// before executors are torn down).
  void collectAnalysis();
  void emitOutcome(Req *R);
  ServeReport finalize();

  EngineConfig Cfg;
  std::vector<JobTemplate> Templates;
  std::unique_ptr<mcl::Context> Ctx;
  std::vector<std::unique_ptr<Req>> Requests;
  std::deque<Req *> Ready;

  // Device leases. A cooperative FifoExclusive job holds both.
  Req *GpuJob = nullptr;
  Req *CpuJob = nullptr;
  TimePoint GpuLeaseStart;
  TimePoint CpuLeaseStart;
  int64_t GpuBusyNs = 0;
  int64_t CpuBusyNs = 0;

  // Cooperative-CPU activity tracking (FluidicCorun): true while the
  // corun job's CPU side is between resume and the next chunk boundary.
  bool CorunCpuBusy = false;
  TimePoint CorunCpuStart;
  int64_t CorunCpuNs = 0;
  /// Deferred resumes of the cooperative CPU side, invoked when the
  /// backfill job occupying the CPU completes. Stale resumes (their
  /// kernel's GPU side finished meanwhile) no-op via their own guards.
  std::vector<std::function<void()>> PendingResumes;

  uint64_t NextId = 0;
  uint64_t Submitted = 0;
  uint64_t RejectedN = 0;
  uint64_t CompletedN = 0;
  uint64_t CoopN = 0;
  uint64_t GpuSingleN = 0;
  uint64_t CpuSingleN = 0;
  uint64_t BackfillN = 0;
  uint64_t DagN = 0;
  dag::DagStats DagTotals;
  uint64_t ChunkYields = 0;
  uint64_t StolenOutN = 0;
  TimePoint LastEnd;
  std::function<void(const JobOutcome &)> Outcome;

  /// fcl::race instrumentation names: the would-be engine lock (the
  /// threading plan is one mutex per engine around all queue/lease state)
  /// plus the two device leases and the admission-queue shadow object.
  /// Instance-numbered like fluidicl::Runtime's section.
  std::string RaceSec;
  std::string GpuLeaseName;
  std::string CpuLeaseName;
  std::string ReadyObj;

  /// Validation failures (counted per job) and the fcl::check / fcl::race
  /// outcome (collectAnalysis()); finalize copies it into the report.
  Verdicts Found;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_ENGINE_H
