//===- perfbench/Workloads.cpp - Seeded benchmark workloads ---------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "AllocCounter.h"
#include "Spans.h"

#include "cluster/Cluster.h"
#include "fluidicl/Runtime.h"
#include "prof/Profiler.h"
#include "serve/Engine.h"
#include "stats/Report.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "work/Workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <cstdio>
#include <map>
#include <unistd.h>

using namespace fcl;
using namespace perfbench;

LayerCounts &LayerCounts::operator+=(const LayerCounts &O) {
  Launches += O.Launches;
  TotalGroups += O.TotalGroups;
  GroupsExecuted += O.GroupsExecuted;
  GpuAborted += O.GpuAborted;
  CpuSubkernels += O.CpuSubkernels;
  HdBytes += O.HdBytes;
  DhBytes += O.DhBytes;
  MergeBytes += O.MergeBytes;
  PoolHits += O.PoolHits;
  PoolLookups += O.PoolLookups;
  PcieBytes += O.PcieBytes;
  KernLaunches += O.KernLaunches;
  KernGroups += O.KernGroups;
  KernBytes += O.KernBytes;
  ServeJobs += O.ServeJobs;
  ChunkYields += O.ChunkYields;
  CoopJobs += O.CoopJobs;
  BackfillJobs += O.BackfillJobs;
  GpuBusyMs += O.GpuBusyMs;
  CpuBusyMs += O.CpuBusyMs;
  ServeMakespanMs += O.ServeMakespanMs;
  RetainedBytes += O.RetainedBytes;
  DagNodes += O.DagNodes;
  DagGpuNodes += O.DagGpuNodes;
  DagTransfers += O.DagTransfers;
  DagSkipped += O.DagSkipped;
  DagPcieBytes += O.DagPcieBytes;
  DagSavedBytes += O.DagSavedBytes;
  Epochs += O.Epochs;
  Messages += O.Messages;
  Steals += O.Steals;
  RebalanceEpochs += O.RebalanceEpochs;
  WorkerSkew += O.WorkerSkew;
  Calls += O.Calls;
  return *this;
}

void Meter::begin() {
  if (Tracing)
    setAllocCounting(true);
  StartNs = prof::wallNowNs();
}

void Meter::end() {
  TotalNs += prof::wallNowNs() - StartNs;
  if (Tracing)
    setAllocCounting(false);
}

uint64_t perfbench::digestMix(uint64_t H, uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xFF;
    H *= 0x100000001B3ull;
  }
  return H;
}

namespace {

constexpr uint64_t DigestSeed = 0xCBF29CE484222325ull;

/// Current resident set size of the process.
int64_t rssBytes() {
  long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return static_cast<int64_t>(Resident) * sysconf(_SC_PAGESIZE);
}

/// Seed of measured call \p I. Scaling --seed keeps the calls of different
/// seeds disjoint (no batch holds more than 65536 calls).
uint64_t callSeed(uint64_t Seed, int I) {
  return Seed * 65536 + static_cast<uint64_t>(I);
}

uint64_t digestString(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return digestMix(H, S.size());
}

/// Kernel work a workload's launches describe, computed from its NDRanges
/// and the sizes of its buffer arguments (not measured on a device).
struct KernShape {
  double Launches = 0;
  double Groups = 0;
  double Bytes = 0;
};

KernShape kernShape(const work::Workload &W) {
  KernShape K;
  for (const work::KernelCall &C : W.Calls) {
    K.Launches += 1;
    K.Groups += static_cast<double>(C.Range.totalGroups());
    for (const runtime::KArg &A : C.Args)
      if (A.IsBuffer)
        K.Bytes += static_cast<double>(W.Buffers[A.Buf].Bytes);
  }
  return K;
}

void addKern(LayerCounts &L, const KernShape &K) {
  L.KernLaunches += K.Launches;
  L.KernGroups += K.Groups;
  L.KernBytes += K.Bytes;
}

//===----------------------------------------------------------------------===//
// coop_kernels: one TimingOnly FluidiCL application run per job.
//===----------------------------------------------------------------------===//

/// One paper application at its Table 2 size (both dimensions).
struct PaperApp {
  int64_t Size;
  std::function<work::Workload(int64_t, int64_t)> Make;
};

const std::vector<PaperApp> &paperApps() {
  static const std::vector<PaperApp> Apps = {
      {8192, [](int64_t N, int64_t M) { return work::makeAtax(N, M); }},
      {4096, [](int64_t N, int64_t M) { return work::makeBicg(N, M); }},
      {2048, [](int64_t N, int64_t M) { return work::makeCorr(N, M); }},
      {4096, [](int64_t N, int64_t) { return work::makeGesummv(N); }},
      {1024, [](int64_t N, int64_t M) { return work::makeSyrk(N, M); }},
      {1536, [](int64_t N, int64_t M) { return work::makeSyr2k(N, M); }},
  };
  return Apps;
}

class CoopKernels final : public Workload {
public:
  CoopKernels(uint64_t Seed, bool Smoke) {
    // Job i runs app i mod 6, so every batch holds each app equally often.
    // Each of its two dimensions is log-uniform in [1/2x, 2x] of Table 2,
    // stratified: app job k of K takes stratum k for its first dimension
    // and a fixed permutation of k for its second, jittered within the
    // stratum by the call seed. Every batch then spans the same size range
    // (its total work barely moves with the seed) while job latencies
    // still spread continuously. Dimensions round to a multiple of 32, the
    // largest work-group extent.
    const int Jobs = Smoke ? 6 : 1200;
    const std::vector<PaperApp> &Apps = paperApps();
    const int K = Jobs / static_cast<int>(Apps.size());
    for (int I = 0; I < Jobs; ++I) {
      const PaperApp &A = Apps[static_cast<size_t>(I) % Apps.size()];
      const int Kth = I / static_cast<int>(Apps.size());
      Rng R(callSeed(Seed, I));
      auto Dim = [&](int Stratum) {
        double U = (Stratum + R.nextDouble()) / K; // in [0, 1)
        double Scale = std::exp2(Smoke ? -3.0 : 2 * U - 1);
        return std::max<int64_t>(
            32, std::llround(static_cast<double>(A.Size) * Scale / 32) * 32);
      };
      int64_t N = Dim(Kth);
      int64_t M = Dim(static_cast<int>((Kth * 7919LL) % K));
      work::Workload W = A.Make(N, M);
      KernShape Shape = kernShape(W);
      Batch.push_back({std::move(W), N * 65536 + M, Shape});
    }
  }

  int calls() const override { return static_cast<int>(Batch.size()); }

  CallResult call(int I, uint64_t JobBase, Meter &M) override {
    const Job &J = Batch[static_cast<size_t>(I)];
    const work::Workload &W = J.W;
    CallResult Res;
    Res.Submitted = 1;
    SpanRecorder &Spans = SpanRecorder::instance();

    M.begin();
    int64_t JobSpan = Spans.open("job", JobBase);
    std::unique_ptr<mcl::Context> Ctx;
    std::unique_ptr<fluidicl::Runtime> RT;
    {
      SpanScope S("mcl.context_ctor", JobBase);
      Ctx = std::make_unique<mcl::Context>(Machine, mcl::ExecMode::TimingOnly);
    }
    {
      SpanScope S("fluidicl.runtime_ctor", JobBase);
      RT = std::make_unique<fluidicl::Runtime>(*Ctx, fluidicl::Options());
    }
    // Mirrors work::runWorkload for a TimingOnly context.
    TimePoint Start = RT->now();
    std::vector<runtime::BufferId> Ids;
    {
      SpanScope S("fluidicl.buffers", JobBase);
      for (const work::BufferSpec &B : W.Buffers)
        Ids.push_back(RT->createBuffer(B.Bytes, B.Name));
      for (size_t B = 0; B < W.Buffers.size(); ++B)
        RT->writeBuffer(Ids[B], nullptr, W.Buffers[B].Bytes);
    }
    for (const work::KernelCall &Call : W.Calls) {
      std::vector<runtime::KArg> Args = Call.Args;
      for (runtime::KArg &A : Args)
        if (A.IsBuffer)
          A.Buf = Ids[A.Buf];
      SpanScope S("fluidicl.launch_kernel", JobBase);
      RT->launchKernel(Call.Kernel, Call.Range, Args);
    }
    {
      SpanScope S("fluidicl.readback", JobBase);
      for (size_t R : W.ResultBuffers)
        RT->readBuffer(Ids[R], nullptr, W.Buffers[R].Bytes);
    }
    Duration Total = RT->now() - Start;
    {
      SpanScope S("fluidicl.finish", JobBase);
      RT->finish();
    }
    M.end();

    stats::RunReport Rep;
    {
      SpanScope S("bench.collect", JobBase);
      RT->collectStats(Rep);
    }
    Res.Completed = 1;
    Res.E2eMs.push_back(Total.toMillis());
    Res.MakespanMs = (RT->now() - Start).toMillis();

    LayerCounts &L = Res.Layers;
    L.Calls = 1;
    addKern(L, J.Kern);
    uint64_t H = digestMix(DigestSeed, static_cast<uint64_t>(J.N));
    H = digestString(H, W.Name);
    H = digestMix(H, static_cast<uint64_t>(Total.nanos()));
    for (const work::BufferSpec &B : W.Buffers)
      L.PcieBytes += static_cast<double>(B.Bytes); // host writes to the GPU
    L.PcieBytes += static_cast<double>(
        Rep.Counters.counter("reads_from_gpu_bytes"));
    L.PoolHits = static_cast<double>(Rep.Counters.counter("bufferpool_hits"));
    L.PoolLookups =
        L.PoolHits +
        static_cast<double>(Rep.Counters.counter("bufferpool_misses"));
    bool Accounted = true;
    for (const stats::LaunchStats &LS : Rep.Launches) {
      if (LS.GpuGroupsCompleted + LS.CpuGroupsCompleted != LS.TotalGroups)
        Accounted = false;
      L.Launches += 1;
      L.TotalGroups += static_cast<double>(LS.TotalGroups);
      L.GroupsExecuted +=
          static_cast<double>(LS.GpuGroupsExecuted + LS.CpuGroupsExecuted);
      L.GpuAborted += static_cast<double>(LS.GpuGroupsAborted);
      L.CpuSubkernels += static_cast<double>(LS.CpuSubkernels);
      L.HdBytes += static_cast<double>(LS.HdBytesSent);
      L.DhBytes += static_cast<double>(LS.DhBytesReceived);
      L.MergeBytes += static_cast<double>(LS.MergeBytesDiffed);
      L.PcieBytes += static_cast<double>(LS.HdBytesSent + LS.StatusBytesSent +
                                         LS.DhBytesReceived);
      H = digestMix(H, LS.GpuGroupsCompleted);
      H = digestMix(H, static_cast<uint64_t>(LS.KernelTime.nanos()));
    }
    Res.Digest = H;
    if (!Accounted) {
      Res.Violations.push_back("wg_accounting: " + W.Name +
                               " GPU+CPU completed != total work-groups");
      Res.CheckFailedJobs = 1;
    }

    M.begin();
    RT.reset();
    Ctx.reset();
    Spans.close(JobSpan);
    M.end();
    Res.ApiNs = M.totalNs();
    return Res;
  }

private:
  struct Job {
    work::Workload W;
    int64_t N = 0; // both dimensions, packed for the digest
    KernShape Kern;
  };
  const hw::Machine Machine = hw::paperMachine();
  std::vector<Job> Batch;
};

//===----------------------------------------------------------------------===//
// Serving workloads: self-driving serve::Engine::run per call.
//===----------------------------------------------------------------------===//

/// Open-loop Poisson arrivals at \p Rate requests/s per stream.
serve::ArrivalSpec poisson(int Rate) {
  serve::ArrivalSpec A;
  std::string Err;
  FCL_CHECK(serve::parseArrivalSpec("poisson:" + std::to_string(Rate), A, Err),
            "bad arrival spec");
  return A;
}

/// Kernel shape of every template of \p Mix, by workload name.
std::map<std::string, KernShape> templateShapes(serve::MixKind Mix) {
  std::map<std::string, KernShape> Out;
  for (const serve::JobTemplate &T : serve::jobTemplates(Mix))
    Out.emplace(T.W.Name, kernShape(T.W));
  return Out;
}

/// Same-seed job conservation: every submitted job completed or was
/// rejected.
void checkConservation(CallResult &Res, const char *What) {
  if (Res.Submitted == Res.Completed + Res.Rejected)
    return;
  Res.Violations.push_back(std::string("conservation: ") + What +
                           " submitted " + std::to_string(Res.Submitted) +
                           " != completed " + std::to_string(Res.Completed) +
                           " + rejected " + std::to_string(Res.Rejected));
  Res.CheckFailedJobs =
      Res.Submitted > Res.Completed ? Res.Submitted - Res.Completed : 0;
}

class ServeWorkload final : public Workload {
public:
  ServeWorkload(uint64_t Seed, serve::EngineConfig Base, int Calls)
      : Seed(Seed), Base(std::move(Base)), Calls(Calls),
        Shapes(templateShapes(this->Base.Mix)) {}

  int calls() const override { return Calls; }

  CallResult call(int I, uint64_t JobBase, Meter &M) override {
    serve::EngineConfig Cfg = Base;
    Cfg.Seed = callSeed(Seed, I);
    CallResult Res;
    SpanRecorder &Spans = SpanRecorder::instance();

    int64_t RssBefore = rssBytes();
    M.begin();
    int64_t CallSpan = Spans.open("call", JobBase);
    std::unique_ptr<serve::Engine> Eng;
    serve::ServeReport Rep;
    {
      SpanScope S("serve.engine_ctor", JobBase);
      Eng = std::make_unique<serve::Engine>(Cfg);
    }
    {
      SpanScope S("serve.run", JobBase);
      Rep = Eng->run();
    }
    M.end();
    int64_t RssGrowth = rssBytes() - RssBefore;

    {
      SpanScope S("bench.collect", JobBase);
      collect(Rep, Res);
      Res.Layers.RetainedBytes = static_cast<double>(RssGrowth);
    }

    M.begin();
    {
      SpanScope S("serve.engine_dtor", JobBase);
      Eng.reset();
    }
    Spans.close(CallSpan);
    M.end();
    Res.ApiNs = M.totalNs();
    return Res;
  }

private:
  void collect(const serve::ServeReport &Rep, CallResult &Res) const {
    Res.Submitted = Rep.Submitted;
    Res.Completed = Rep.Completed;
    Res.Rejected = Rep.Rejected;
    Res.ValidationFailures = Rep.ValidationFailures;
    Res.MakespanMs = Rep.MakespanMs;
    LayerCounts &L = Res.Layers;
    L.Calls = 1;
    uint64_t H = DigestSeed;
    for (const serve::RequestRecord &R : Rep.Requests) {
      H = digestMix(H, R.Id);
      H = digestString(H, R.Workload);
      H = digestString(H, R.Placement);
      H = digestMix(H, R.Rejected);
      H = digestMix(H, static_cast<uint64_t>(R.ArrivalAt.nanos()));
      H = digestMix(H, static_cast<uint64_t>(R.StartAt.nanos()));
      H = digestMix(H, static_cast<uint64_t>(R.EndAt.nanos()));
      if (R.Rejected)
        continue;
      Res.E2eMs.push_back(R.e2eMs());
      Res.QueueMs.push_back(R.queueWaitMs());
      Res.ServiceMs.push_back(R.serviceMs());
      auto It = Shapes.find(R.Workload);
      if (It != Shapes.end())
        addKern(L, It->second);
    }
    Res.Digest = H;
    L.ServeJobs = static_cast<double>(Rep.Completed);
    L.ChunkYields = static_cast<double>(Rep.ChunkYields);
    L.CoopJobs = static_cast<double>(Rep.CoopJobs);
    L.BackfillJobs = static_cast<double>(Rep.BackfillJobs);
    L.GpuBusyMs = Rep.GpuBusyMs;
    L.CpuBusyMs = Rep.CpuBusyMs;
    L.ServeMakespanMs = Rep.MakespanMs;
    L.DagNodes = static_cast<double>(Rep.DagNodes);
    L.DagGpuNodes = static_cast<double>(Rep.DagGpuNodes);
    L.DagTransfers = static_cast<double>(Rep.DagTransfers);
    L.DagSkipped = static_cast<double>(Rep.DagTransfersSkipped);
    L.DagPcieBytes = static_cast<double>(Rep.DagPcieBytes);
    L.DagSavedBytes = static_cast<double>(Rep.DagBytesSaved);
    checkConservation(Res, "serve call");
    if (Base.Validate && Rep.ValidationFailures != 0)
      Res.Violations.push_back("validation: " +
                               std::to_string(Rep.ValidationFailures) +
                               " request(s) failed functional validation");
  }

  uint64_t Seed;
  serve::EngineConfig Base;
  int Calls;
  std::map<std::string, KernShape> Shapes;
};

//===----------------------------------------------------------------------===//
// cluster_2w: cluster::Cluster::run with two worker threads.
//===----------------------------------------------------------------------===//

class ClusterWorkload final : public Workload {
public:
  ClusterWorkload(uint64_t Seed, cluster::ClusterConfig Base, int Calls)
      : Seed(Seed), Base(std::move(Base)), Calls(Calls),
        Shapes(templateShapes(this->Base.Worker.Mix)) {}

  int calls() const override { return Calls; }

  CallResult call(int I, uint64_t JobBase, Meter &M) override {
    cluster::ClusterConfig Cfg = Base;
    Cfg.Worker.Seed = callSeed(Seed, I);
    CallResult Res;
    SpanRecorder &Spans = SpanRecorder::instance();

    M.begin();
    int64_t CallSpan = Spans.open("call", JobBase);
    std::unique_ptr<cluster::Cluster> C;
    cluster::ClusterReport Rep;
    {
      SpanScope S("cluster.ctor", JobBase);
      C = std::make_unique<cluster::Cluster>(Cfg);
    }
    {
      SpanScope S("cluster.run", JobBase);
      Rep = C->run();
    }
    M.end();

    {
      SpanScope S("bench.collect", JobBase);
      collect(Rep, Res);
    }

    M.begin();
    {
      SpanScope S("cluster.dtor", JobBase);
      C.reset();
    }
    Spans.close(CallSpan);
    M.end();
    Res.ApiNs = M.totalNs();
    return Res;
  }

private:
  void collect(const cluster::ClusterReport &Rep, CallResult &Res) const {
    Res.Submitted = Rep.Submitted;
    Res.Completed = Rep.Completed;
    Res.Rejected = Rep.Rejected;
    Res.ValidationFailures = Rep.ValidationFailures;
    Res.MakespanMs = Rep.MakespanMs;
    LayerCounts &L = Res.Layers;
    L.Calls = 1;
    uint64_t H = DigestSeed;
    for (const cluster::ClusterJobRecord &J : Rep.Jobs) {
      H = digestMix(H, J.Id);
      H = digestString(H, J.Workload);
      H = digestMix(H, static_cast<uint64_t>(J.Worker));
      H = digestMix(H, (J.Rejected ? 1u : 0u) | (J.Stolen ? 2u : 0u));
      H = digestMix(H, static_cast<uint64_t>(J.ArrivalAt.nanos()));
      H = digestMix(H, static_cast<uint64_t>(J.StartAt.nanos()));
      H = digestMix(H, static_cast<uint64_t>(J.EndAt.nanos()));
      if (J.Rejected || !J.Done)
        continue;
      Res.E2eMs.push_back(J.e2eMs());
      Res.QueueMs.push_back(J.queueWaitMs());
      Res.ServiceMs.push_back(J.serviceMs());
      auto It = Shapes.find(J.Workload);
      if (It != Shapes.end())
        addKern(L, It->second);
    }
    Res.Digest = H;
    L.Epochs = static_cast<double>(Rep.Epochs);
    L.Messages = static_cast<double>(Rep.Messages);
    L.Steals = static_cast<double>(Rep.Steals);
    L.RebalanceEpochs = static_cast<double>(Rep.RebalanceEpochs);
    double MaxDone = 0, SumDone = 0;
    for (const cluster::WorkerSummary &W : Rep.PerWorker) {
      MaxDone = std::max(MaxDone, static_cast<double>(W.Completed));
      SumDone += static_cast<double>(W.Completed);
    }
    if (SumDone > 0)
      L.WorkerSkew =
          MaxDone * static_cast<double>(Rep.PerWorker.size()) / SumDone;
    checkConservation(Res, "cluster call");
  }

  uint64_t Seed;
  cluster::ClusterConfig Base;
  int Calls;
  std::map<std::string, KernShape> Shapes;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed, bool Smoke) {
  if (Name == "coop_kernels")
    return std::make_unique<CoopKernels>(Seed, Smoke);

  serve::EngineConfig Serve;
  Serve.P = serve::Policy::FluidicCorun;
  Serve.Arrival = poisson(200);
  Serve.Streams = 6;
  if (Name == "serve_mixed") {
    // A long horizon: retained per-request state grows with it.
    Serve.Mix = serve::MixKind::Mixed;
    Serve.Horizon = Duration::milliseconds(Smoke ? 50 : 10000);
    return std::make_unique<ServeWorkload>(Seed, Serve, 1);
  }
  if (Name == "dag_functional") {
    // Short horizons, because functional buffers make memory grow fast.
    // Many calls at half the serve_mixed rate, because the p99 of this
    // heavy-tailed mix is set by queueing bursts: at 200 req/s per stream
    // it moved by ~18% from seed to seed even over 4.7k requests, at
    // 100 req/s by ~5% over 4.8k.
    Serve.Mix = serve::MixKind::Pipeline;
    Serve.Mode = mcl::ExecMode::Functional;
    Serve.Validate = true;
    Serve.DagPlace = dag::Placement::Residency;
    Serve.Arrival = poisson(100);
    Serve.Horizon = Duration::milliseconds(Smoke ? 20 : 200);
    return std::make_unique<ServeWorkload>(Seed, Serve, Smoke ? 1 : 40);
  }
  if (Name == "cluster_2w") {
    cluster::ClusterConfig C;
    C.Workers = 2;
    C.Place = cluster::Placement::LeastLoaded;
    C.Steal = true;
    C.Quantum = Duration::milliseconds(1);
    C.Worker = Serve;
    C.Worker.Mix = serve::MixKind::Mixed;
    C.Worker.Streams = 12;
    C.Worker.Horizon = Duration::milliseconds(Smoke ? 50 : 5000);
    return std::make_unique<ClusterWorkload>(Seed, C, 1);
  }
  return nullptr;
}
