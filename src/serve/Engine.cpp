//===- serve/Engine.cpp - Multi-tenant serving engine ---------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "dag/DagExec.h"
#include "prof/Profiler.h"
#include "race/Bridge.h"
#include "race/Race.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>

using namespace fcl;
using namespace fcl::serve;

Engine::Engine(EngineConfig C) : Cfg(std::move(C)) {
  FCL_CHECK(Cfg.Streams > 0, "need at least one stream");
  FCL_CHECK(Cfg.QueueDepth > 0, "queue depth must be positive");
  Templates = jobTemplates(Cfg.Mix);
  Ctx = std::make_unique<mcl::Context>(Cfg.M, Cfg.Mode);
  Ctx->setTracer(Cfg.Tracer);
  // The threading plan for the engine is one mutex around all queue and
  // lease state: every externally-entered callback declares this section
  // and the race analyzer checks that the shared structures stay inside.
  static uint64_t NextRaceId = 0;
  RaceSec = "serve.engine#" + std::to_string(NextRaceId++);
  GpuLeaseName = RaceSec + ".gpu";
  CpuLeaseName = RaceSec + ".cpu";
  ReadyObj = RaceSec + ".ready";
}

Engine::~Engine() = default;

void Engine::sampleQueueDepth() {
  if (Cfg.Tracer)
    Cfg.Tracer->counter("Serve queue depth", Ctx->now(),
                        static_cast<double>(Ready.size()));
}

void Engine::onArrival(Req *R) {
  FCL_PROF_SCOPE("serve.admission");
  race::Section RaceS(RaceSec);
  R->ArrivalAt = Ctx->now();
  ++Submitted;
  if (Ready.size() >= static_cast<size_t>(Cfg.QueueDepth)) {
    // Backpressure: the admission queue is full, shed the request.
    R->Rejected = true;
    R->Placement = "rejected";
    ++RejectedN;
    if (Cfg.Tracer)
      Cfg.Tracer->record("Serve admission", "reject", Ctx->now(), Ctx->now(),
                         formatString("req %llu stream %d (%s)",
                                      static_cast<unsigned long long>(R->Id),
                                      R->Stream, R->T->W.Name.c_str()));
    emitOutcome(R);
    return;
  }
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(ReadyObj, "push");
  Ready.push_back(R);
  sampleQueueDepth();
  dispatch();
}

Engine::Req *Engine::popHead() {
  if (Ready.empty())
    return nullptr;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(ReadyObj, "popHead");
  Req *R = Ready.front();
  Ready.pop_front();
  sampleQueueDepth();
  return R;
}

Engine::Req *Engine::takeFirst(bool WantLarge) {
  for (auto It = Ready.begin(); It != Ready.end(); ++It) {
    // Compound jobs need both devices at once; they only ever start from
    // the queue head (startDag), never as single-device picks.
    if ((*It)->T->Dag)
      continue;
    if ((*It)->Large == WantLarge) {
      if (race::Analyzer::enabled())
        race::Analyzer::instance().sharedWrite(ReadyObj, "takeFirst");
      Req *R = *It;
      Ready.erase(It);
      sampleQueueDepth();
      return R;
    }
  }
  return nullptr;
}

bool Engine::headIsDag() const {
  return !Ready.empty() && Ready.front()->T->Dag != nullptr;
}

void Engine::dispatch() {
  FCL_PROF_SCOPE("serve.dispatch");
  race::Section RaceS(RaceSec);
  switch (Cfg.P) {
  case Policy::FifoExclusive:
    // Status quo: the head-of-line job gets the whole pair, strictly FIFO.
    if (!GpuJob && !CpuJob)
      if (Req *R = popHead())
        R->T->Dag ? startDag(R) : startCoop(R);
    break;
  case Policy::DeviceAffine:
    // A compound head job claims the whole pair when it is free; the DAG
    // executor does its own per-node placement, so affinity classes do not
    // apply to it.
    if (!GpuJob && !CpuJob && headIsDag())
      startDag(popHead());
    // Strict pinning: large jobs queue for the GPU, small jobs for the
    // CPU; neither class can use the other device even when it idles.
    if (!GpuJob)
      if (Req *R = takeFirst(/*WantLarge=*/true))
        startSingle(R, /*OnGpu=*/true, /*Backfill=*/false);
    if (!CpuJob)
      if (Req *R = takeFirst(/*WantLarge=*/false))
        startSingle(R, /*OnGpu=*/false, /*Backfill=*/false);
    break;
  case Policy::FluidicCorun:
    // A compound head job waits for the whole pair (CPU backfill below
    // keeps running meanwhile); otherwise the head job runs cooperatively
    // on the pair and whole small jobs backfill the CPU while its CPU side
    // is idle.
    if (!GpuJob && !CpuJob && headIsDag())
      startDag(popHead());
    if (!GpuJob && !headIsDag())
      if (Req *R = popHead())
        startCoop(R);
    if (!CpuJob && !CorunCpuBusy)
      if (Req *R = takeFirst(/*WantLarge=*/false))
        startSingle(R, /*OnGpu=*/false, /*Backfill=*/true);
    break;
  }
}

void Engine::startDag(Req *R) {
  R->StartAt = Ctx->now();
  R->Placement = "dag";
  ++DagN;
  // A compound job owns both devices for its duration.
  takeLease(R, /*Gpu=*/true);
  takeLease(R, /*Gpu=*/false);
  launch(R, std::make_unique<dag::DagJobExec>(
                *Ctx, R->T->W, *R->T->Dag, Cfg.DagPlace, Cfg.Validate,
                &DagTotals, Cfg.Tracer));
}

void Engine::startCoop(Req *R) {
  R->StartAt = Ctx->now();
  R->Placement = Cfg.P == Policy::FifoExclusive ? "pair" : "corun";
  ++CoopN;
  takeLease(R, /*Gpu=*/true);
  if (Cfg.P == Policy::FifoExclusive)
    takeLease(R, /*Gpu=*/false);
  auto Exec = std::make_unique<CoopJobExec>(*Ctx, R->T->W, Cfg.FclOpts,
                                            Cfg.Validate);
  if (Cfg.P == Policy::FluidicCorun)
    Exec->runtime().setChunkYield([this](std::function<void()> Resume) {
      onChunkBoundary(std::move(Resume));
    });
  launch(R, std::move(Exec));
}

void Engine::startSingle(Req *R, bool OnGpu, bool Backfill) {
  R->StartAt = Ctx->now();
  R->Placement = Backfill ? "cpu-backfill" : (OnGpu ? "gpu" : "cpu");
  if (OnGpu) {
    ++GpuSingleN;
  } else {
    ++CpuSingleN;
    if (Backfill)
      ++BackfillN;
  }
  takeLease(R, OnGpu);
  launch(R, std::make_unique<SingleJobExec>(
                *Ctx, OnGpu ? Ctx->gpu() : Ctx->cpu(), R->T->W, Cfg.Validate));
}

void Engine::takeLease(Req *R, bool Gpu) {
  (Gpu ? GpuJob : CpuJob) = R;
  (Gpu ? GpuLeaseStart : CpuLeaseStart) = Ctx->now();
  if (race::Analyzer::enabled())
    race::Analyzer::instance().leaseAcquire(
        Gpu ? GpuLeaseName : CpuLeaseName,
        formatString("req %llu", static_cast<unsigned long long>(R->Id)));
}

void Engine::dropLease(Req *R, bool Gpu) {
  Req *&Holder = Gpu ? GpuJob : CpuJob;
  if (Holder != R)
    return;
  (Gpu ? GpuBusyNs : CpuBusyNs) +=
      (Ctx->now() - (Gpu ? GpuLeaseStart : CpuLeaseStart)).nanos();
  Holder = nullptr;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().leaseRelease(Gpu ? GpuLeaseName
                                                : CpuLeaseName);
}

void Engine::launch(Req *R, std::unique_ptr<JobExec> Exec) {
  R->Exec = std::move(Exec);
  R->Exec->start([this, R] { jobDone(R); });
}

void Engine::setCorunCpuBusy(bool Busy) {
  if (Busy == CorunCpuBusy)
    return;
  if (Busy) {
    CorunCpuStart = Ctx->now();
  } else {
    CorunCpuNs += (Ctx->now() - CorunCpuStart).nanos();
  }
  CorunCpuBusy = Busy;
}

void Engine::onChunkBoundary(std::function<void()> Resume) {
  FCL_PROF_SCOPE("serve.chunk_yield");
  race::Section RaceS(RaceSec);
  ++ChunkYields;
  // The cooperative CPU side is now idle: between subkernel chunks it
  // holds no partial state, so the CPU can be lent out whole.
  setCorunCpuBusy(false);
  if (CpuJob) {
    // A backfill job occupies the CPU; park the resume until it finishes.
    PendingResumes.push_back(std::move(Resume));
    return;
  }
  if (Req *S = takeFirst(/*WantLarge=*/false)) {
    PendingResumes.push_back(std::move(Resume));
    startSingle(S, /*OnGpu=*/false, /*Backfill=*/true);
    return;
  }
  // Nothing to backfill: continue the cooperative CPU side immediately.
  setCorunCpuBusy(true);
  Resume();
}

void Engine::drainResumes() {
  race::Section RaceS(RaceSec);
  if (PendingResumes.empty())
    return;
  std::vector<std::function<void()>> Rs = std::move(PendingResumes);
  PendingResumes.clear();
  // The cooperative CPU side gets priority over further backfill so a
  // stream of short jobs cannot starve the head job's CPU share; the next
  // chunk boundary re-opens the backfill window.
  setCorunCpuBusy(true);
  for (std::function<void()> &Fn : Rs)
    Fn();
}

void Engine::jobDone(Req *R) {
  FCL_PROF_SCOPE("serve.callback");
  race::Section RaceS(RaceSec);
  R->EndAt = Ctx->now();
  R->Done = true;
  ++CompletedN;
  if (R->Exec->validationFailed())
    ++Found.ValidationFailures;
  if (R->EndAt > LastEnd)
    LastEnd = R->EndAt;

  if (Cfg.Tracer) {
    std::string Detail =
        formatString("stream %d, %s, %llu groups, %s", R->Stream,
                     R->Large ? "large" : "small",
                     static_cast<unsigned long long>(R->T->MaxGroups),
                     R->Placement);
    std::string Name = formatString(
        "%s #%llu", R->T->W.Name.c_str(),
        static_cast<unsigned long long>(R->Id));
    // A job's lanes are the devices it leases, held until just below.
    if (GpuJob == R)
      Cfg.Tracer->record("Serve GPU", Name, R->StartAt, R->EndAt, Detail);
    if (CpuJob == R)
      Cfg.Tracer->record("Serve CPU", Name, R->StartAt, R->EndAt, Detail);
  }

  bool WasCoop = GpuJob == R && (Cfg.P != Policy::DeviceAffine);
  // Under corun the CPU alone is leased only by backfill jobs.
  bool WasBackfill =
      Cfg.P == Policy::FluidicCorun && CpuJob == R && GpuJob != R;
  dropLease(R, /*Gpu=*/true);
  dropLease(R, /*Gpu=*/false);
  if (WasCoop && Cfg.P == Policy::FluidicCorun) {
    // The cooperative job is gone: close its CPU span and drop any resumes
    // still parked for it (they would no-op anyway).
    setCorunCpuBusy(false);
    PendingResumes.clear();
  }

  emitOutcome(R);
  if (WasBackfill)
    drainResumes();
  dispatch();
}

void Engine::emitOutcome(Req *R) {
  if (!Outcome)
    return;
  JobOutcome O;
  O.ClusterId = R->ClusterId;
  O.Stream = R->Stream;
  O.Rejected = R->Rejected;
  O.StartAt = R->StartAt;
  O.EndAt = R->EndAt;
  Outcome(O);
}

void Engine::setOutcomeFn(std::function<void(const JobOutcome &)> Fn) {
  Outcome = std::move(Fn);
}

void Engine::injectJob(uint64_t ClusterId, int TemplateIdx, int Stream,
                       TimePoint At) {
  FCL_CHECK(TemplateIdx >= 0 &&
                static_cast<size_t>(TemplateIdx) < Templates.size(),
            "job template index out of range");
  auto Owned = std::make_unique<Req>();
  Req *R = Owned.get();
  R->Id = NextId++;
  R->ClusterId = ClusterId;
  R->TemplateIdx = TemplateIdx;
  R->Stream = Stream;
  R->T = &Templates[TemplateIdx];
  R->Large = R->T->MaxGroups >= Cfg.LargeThreshold;
  Requests.push_back(std::move(Owned));
  Ctx->simulator().scheduleAt(At, [this, R] { onArrival(R); });
}

bool Engine::stealQueued(StolenJob &Out) {
  if (Ready.empty())
    return false;
  // The master holds this engine's would-be lock (the fabric barrier is
  // the real mutual exclusion; the section declares it to the analyzer).
  race::Section RaceS(RaceSec);
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(ReadyObj, "steal");
  // Take the newest arrival: the head of the queue is next to start
  // locally, so migrating the tail preserves FIFO fairness.
  Req *R = Ready.back();
  Ready.pop_back();
  sampleQueueDepth();
  R->Stolen = true;
  R->Placement = "stolen";
  ++StolenOutN;
  Out.ClusterId = R->ClusterId;
  Out.TemplateIdx = R->TemplateIdx;
  Out.Stream = R->Stream;
  return true;
}

void Engine::advanceTo(TimePoint Deadline) {
  Ctx->simulator().runUntil(Deadline);
}

int Engine::runningJobs() const {
  int N = 0;
  if (GpuJob)
    ++N;
  if (CpuJob && CpuJob != GpuJob)
    ++N;
  return N;
}

bool Engine::quiescent() const {
  return Ready.empty() && !GpuJob && !CpuJob &&
         !Ctx->simulator().hasPending();
}

TimePoint Engine::now() const { return Ctx->now(); }

ServeReport Engine::run() {
  race::armAnalyzer(Cfg.Races);
  // All arrivals are a pure function of (seed, stream). Equal timestamps
  // fire in injection order, so the whole run is deterministic.
  std::vector<StreamGen> Gens;
  if (Cfg.Arrival.Kind == ArrivalKind::Closed) {
    // Each stream keeps one request outstanding: its outcome (completion
    // or rejection) re-arms it after a think time, until the horizon.
    for (int S = 0; S < Cfg.Streams; ++S)
      Gens.emplace_back(Cfg.Seed, S, Templates);
    auto Next = [this, &Gens](int S, Duration Delay) {
      TimePoint At = Ctx->now() + Delay;
      if (At - TimePoint() <= Cfg.Horizon)
        injectJob(0, Gens[S].pickIndex(), S, At);
    };
    setOutcomeFn([this, &Gens, Next](const JobOutcome &O) {
      Next(O.Stream, Gens[O.Stream].think(Cfg.Arrival));
    });
    for (int S = 0; S < Cfg.Streams; ++S)
      Next(S, Gens[S].initialPhase(Cfg.Arrival));
  } else {
    for (const Arrival &A : drawOpenLoopArrivals(
             Cfg.Seed, Cfg.Streams, Cfg.Arrival, Cfg.Horizon, Templates))
      injectJob(0, A.TemplateIdx, A.Stream, A.At);
  }
  // Drain everything: arrivals, jobs, trailing cooperative transfers.
  Ctx->simulator().run();
  Outcome = nullptr;
  return finish();
}

ServeReport Engine::finish() {
  collectAnalysis();
  ServeReport Report = finalize();
  // Tear down executors only now, at top level: cooperative runtimes
  // FCL_CHECK their queues idle on destruction.
  for (auto &R : Requests)
    R->Exec.reset();
  return Report;
}

void Engine::collectAnalysis() {
  if (Cfg.FclOpts.Check != check::Policy::Off) {
    for (auto &R : Requests) {
      fluidicl::Runtime *RT = R->Exec ? R->Exec->fclRuntime() : nullptr;
      if (!RT)
        continue;
      // Fires the run-finish invariants (scratch leaks, pool accounting)
      // while the sink is still collectable; the destructor's finish() is
      // then a no-op drain.
      RT->finish();
      const check::DiagSink &S = RT->diagSink();
      Found.CheckErrors += S.errorCount();
      Found.CheckWarnings += S.warningCount();
      for (const check::Diag &D : S.diags())
        Found.CheckDiags.push_back(D.str());
    }
  }
  if (Cfg.Races != check::Policy::Off)
    Found.takeRaceFindings();
}

ServeReport Engine::finalize() {
  ServeReport Rep;
  static_cast<Verdicts &>(Rep) = Found;
  Rep.PolicyName = policyName(Cfg.P);
  Rep.ArrivalDesc = Cfg.Arrival.str();
  Rep.Mix = mixName(Cfg.Mix);
  Rep.Machine = Cfg.MachineName;
  Rep.Seed = Cfg.Seed;
  Rep.Streams = Cfg.Streams;
  Rep.QueueDepth = Cfg.QueueDepth;
  Rep.LargeThreshold = Cfg.LargeThreshold;
  Rep.HorizonMs = Cfg.Horizon.toMillis();
  Rep.Submitted = Submitted;
  Rep.Rejected = RejectedN;
  Rep.Completed = CompletedN;

  std::vector<double> QueueMs, ServiceMs, E2eMs, SmallMs, LargeMs;
  for (const auto &R : Requests) {
    RequestRecord Rec;
    Rec.Id = R->Id;
    Rec.Stream = R->Stream;
    Rec.Workload = R->T->W.Name;
    Rec.MaxGroups = R->T->MaxGroups;
    Rec.Large = R->Large;
    Rec.Rejected = R->Rejected;
    Rec.Placement = R->Placement;
    Rec.ArrivalAt = R->ArrivalAt;
    Rec.StartAt = R->StartAt;
    Rec.EndAt = R->EndAt;
    Rep.Requests.push_back(Rec);
    if (R->Rejected)
      continue;
    if (R->Stolen)
      continue; // Migrated to another worker; the thief accounts for it.
    FCL_CHECK(R->Done, "admitted request never completed");
    QueueMs.push_back(Rec.queueWaitMs());
    ServiceMs.push_back(Rec.serviceMs());
    E2eMs.push_back(Rec.e2eMs());
    (R->Large ? LargeMs : SmallMs).push_back(Rec.e2eMs());
    if (Cfg.SloMs > 0 && Rec.e2eMs() > Cfg.SloMs)
      ++Rep.SloViolations;
  }
  Rep.QueueWait = summarizeLatency(QueueMs);
  Rep.Service = summarizeLatency(ServiceMs);
  Rep.E2e = summarizeLatency(E2eMs);
  Rep.SmallE2e = summarizeLatency(SmallMs);
  Rep.LargeE2e = summarizeLatency(LargeMs);
  Rep.SmallCompleted = SmallMs.size();
  Rep.LargeCompleted = LargeMs.size();

  Rep.MakespanMs = (LastEnd - TimePoint()).toMillis();
  Rep.ThroughputRps = Rep.MakespanMs > 0
                          ? static_cast<double>(CompletedN) /
                                (Rep.MakespanMs / 1e3)
                          : 0.0;
  Rep.GpuBusyMs = static_cast<double>(GpuBusyNs) * 1e-6;
  Rep.CorunCpuMs = static_cast<double>(CorunCpuNs) * 1e-6;
  Rep.CpuBusyMs = static_cast<double>(CpuBusyNs) * 1e-6 + Rep.CorunCpuMs;
  Rep.GpuUtil = Rep.MakespanMs > 0 ? Rep.GpuBusyMs / Rep.MakespanMs : 0.0;
  Rep.CpuUtil = Rep.MakespanMs > 0 ? Rep.CpuBusyMs / Rep.MakespanMs : 0.0;
  Rep.CoopJobs = CoopN;
  Rep.GpuJobs = GpuSingleN;
  Rep.CpuJobs = CpuSingleN;
  Rep.BackfillJobs = BackfillN;
  Rep.ChunkYields = ChunkYields;
  if (DagN) {
    Rep.DagPlacement = dag::placementName(Cfg.DagPlace);
    Rep.DagJobs = DagN;
    Rep.DagNodes = DagTotals.Nodes;
    Rep.DagGpuNodes = DagTotals.GpuNodes;
    Rep.DagCpuNodes = DagTotals.CpuNodes;
    Rep.DagTransfers = DagTotals.Transfers;
    Rep.DagTransferBytes = DagTotals.TransferBytes;
    Rep.DagPcieBytes = DagTotals.PcieBytes;
    Rep.DagTransfersSkipped = DagTotals.TransfersSkipped;
    Rep.DagBytesSaved = DagTotals.BytesSaved;
  }
  Rep.SloChecked = Cfg.SloMs > 0;
  Rep.SloMs = Cfg.SloMs;
  Rep.Validated = Cfg.Validate && Cfg.Mode == mcl::ExecMode::Functional;
  Rep.CheckEnabled = Cfg.FclOpts.Check != check::Policy::Off;

  // Mirror into the fcl::stats registry (the observability view; the
  // tool's --stats-json embeds it verbatim).
  stats::Registry &St = Rep.Stats;
  St.add("serve_submitted", Submitted);
  St.add("serve_rejected", RejectedN);
  St.add("serve_completed", CompletedN);
  St.add("serve_jobs_coop", CoopN);
  St.add("serve_jobs_gpu_single", GpuSingleN);
  St.add("serve_jobs_cpu_single", CpuSingleN);
  St.add("serve_jobs_backfill", BackfillN);
  St.add("serve_chunk_yields", ChunkYields);
  St.add("serve_slo_violations", Rep.SloViolations);
  St.add("serve_validation_failures", Rep.ValidationFailures);
  // DAG counters only when compound jobs ran: plain mixes keep their
  // pre-dag report bytes.
  if (DagN) {
    St.add("serve_dag_jobs", DagN);
    St.add("serve_dag_nodes", DagTotals.Nodes);
    St.add("serve_dag_nodes_gpu", DagTotals.GpuNodes);
    St.add("serve_dag_nodes_cpu", DagTotals.CpuNodes);
    St.add("serve_dag_transfers", DagTotals.Transfers);
    St.add("serve_dag_transfer_bytes", DagTotals.TransferBytes);
    St.add("serve_dag_pcie_bytes", DagTotals.PcieBytes);
    St.add("serve_dag_transfers_skipped", DagTotals.TransfersSkipped);
    St.add("serve_dag_bytes_saved", DagTotals.BytesSaved);
  }
  // Analysis counters only when something was found: a clean analyzed run
  // must keep the exact bytes of an unanalyzed one.
  if (Rep.CheckErrors || Rep.CheckWarnings) {
    St.add("serve_check_errors", Rep.CheckErrors);
    St.add("serve_check_warnings", Rep.CheckWarnings);
  }
  if (Rep.RaceFindings)
    St.add("serve_race_findings", Rep.RaceFindings);
  St.set("serve_e2e_p50_ms", Rep.E2e.P50);
  St.set("serve_e2e_p95_ms", Rep.E2e.P95);
  St.set("serve_e2e_p99_ms", Rep.E2e.P99);
  St.set("serve_queue_wait_p95_ms", Rep.QueueWait.P95);
  St.set("serve_service_p95_ms", Rep.Service.P95);
  St.set("serve_makespan_ms", Rep.MakespanMs);
  St.set("serve_throughput_rps", Rep.ThroughputRps);
  St.set("serve_gpu_util", Rep.GpuUtil);
  St.set("serve_cpu_util", Rep.CpuUtil);
  // Event-queue health of the shared simulator (satellite of the profiler
  // work: tombstone pressure is invisible in latency numbers until it
  // degrades, so surface it in every serve report).
  sim::Simulator &Sim = Ctx->simulator();
  St.add("sim_events_executed", Sim.eventsExecuted());
  St.add("sim_tombstone_skips", Sim.tombstoneSkips());
  St.set("sim_pending_tombstones", static_cast<double>(Sim.pendingTombstones()));
  return Rep;
}
