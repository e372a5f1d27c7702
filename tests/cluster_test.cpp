//===- tests/cluster_test.cpp - fcl::cluster unit tests -------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "race/Race.h"

#include <atomic>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <thread>

using namespace fcl;
using namespace fcl::cluster;

namespace {

ClusterConfig baseConfig(int Workers) {
  ClusterConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.Place = Placement::LeastLoaded;
  Cfg.Steal = true;
  Cfg.Worker.Streams = 8;
  Cfg.Worker.Arrival = serve::ArrivalSpec{serve::ArrivalKind::Poisson, 300,
                                          Duration::milliseconds(5)};
  Cfg.Worker.Horizon = Duration::milliseconds(40);
  Cfg.Worker.Seed = 11;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// EpochBarrier protocol
//===----------------------------------------------------------------------===//

TEST(EpochBarrierTest, LockstepEpochsAndShutdown) {
  const int N = 4;
  const uint64_t Epochs = 50;
  EpochBarrier B(N);
  std::atomic<uint64_t> Sum{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&] {
      uint64_t Seen = 0;
      uint64_t E = 0;
      while (B.awaitEpoch(Seen, E)) {
        // Epochs must arrive in order, none skipped: the barrier parks us
        // before each release, so every worker sees every epoch.
        EXPECT_EQ(E, Seen + 1);
        Seen = E;
        Sum.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (uint64_t E = 1; E <= Epochs; ++E) {
    B.masterAwaitParked();
    B.releaseEpoch(E);
  }
  B.masterAwaitParked();
  B.stopAll();
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Sum.load(), Epochs * N);
}

//===----------------------------------------------------------------------===//
// Cluster runs
//===----------------------------------------------------------------------===//

TEST(ClusterTest, ConservesEveryJob) {
  Cluster C(baseConfig(3));
  ClusterReport R = C.run();
  EXPECT_GT(R.Submitted, 0u);
  EXPECT_EQ(R.Submitted, R.Completed + R.Rejected);
  EXPECT_EQ(R.Jobs.size(), R.Submitted);
  uint64_t PerWorkerCompleted = 0, PerWorkerAssigned = 0;
  for (const WorkerSummary &W : R.PerWorker) {
    PerWorkerCompleted += W.Completed;
    PerWorkerAssigned += W.Assigned;
  }
  EXPECT_EQ(PerWorkerCompleted, R.Completed);
  EXPECT_EQ(PerWorkerAssigned, R.Submitted);
  for (const ClusterJobRecord &J : R.Jobs) {
    EXPECT_TRUE(J.Done || J.Rejected);
    EXPECT_GE(J.FirstWorker, 0);
    EXPECT_LT(J.Worker, 3);
    if (J.Done) {
      EXPECT_GE(J.StartAt, J.ArrivalAt);
      EXPECT_GE(J.EndAt, J.StartAt);
    }
    // A job lands on a different worker than its first placement exactly
    // when the master stole it.
    EXPECT_EQ(J.FirstWorker != J.Worker, J.Stolen);
  }
}

TEST(ClusterTest, SameSeedSameBytesAcrossRuns) {
  for (int Workers : {1, 2, 4}) {
    std::string A = Cluster(baseConfig(Workers)).run().toJson();
    std::string B = Cluster(baseConfig(Workers)).run().toJson();
    EXPECT_EQ(A, B) << "workers=" << Workers;
    EXPECT_NE(A.find("\"fcl-cluster-report-v1\""), std::string::npos);
  }
}

TEST(ClusterTest, TimingOnlyRunIsNotReportedValidated) {
  // Validation needs functional execution; like a serve report, a
  // TimingOnly cluster run with Validate set must not claim it validated.
  ClusterConfig Cfg = baseConfig(2);
  Cfg.Worker.Validate = true;
  ASSERT_EQ(Cfg.Worker.Mode, mcl::ExecMode::TimingOnly);
  ClusterReport R = Cluster(Cfg).run();
  EXPECT_FALSE(R.Validated);
  EXPECT_NE(R.toJson().find("\"validated\": false"), std::string::npos);
}

TEST(ClusterTest, HashAffinePinsStreamsToWorkers) {
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::HashAffine;
  Cfg.Steal = false;
  ClusterReport R = Cluster(Cfg).run();
  // Every job of a stream must go to one worker, and with 8 streams over
  // 4 workers at least two workers must be in use.
  std::map<int, int> StreamWorker;
  for (const ClusterJobRecord &J : R.Jobs) {
    auto It = StreamWorker.find(J.Stream);
    if (It == StreamWorker.end())
      StreamWorker[J.Stream] = J.FirstWorker;
    else
      EXPECT_EQ(It->second, J.FirstWorker) << "stream " << J.Stream;
  }
  std::set<int> Used;
  for (const auto &[S, W] : StreamWorker)
    Used.insert(W);
  EXPECT_GE(Used.size(), 2u);
  EXPECT_EQ(R.Stolen, 0u);
}

TEST(ClusterTest, LeastLoadedSpreadsAssignments) {
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::LeastLoaded;
  ClusterReport R = Cluster(Cfg).run();
  for (const WorkerSummary &W : R.PerWorker)
    EXPECT_GT(W.Assigned, 0u) << "worker " << W.Index << " never used";
}

TEST(ClusterTest, StealingRebalancesSkewedPlacement) {
  // Hash placement over 4 workers with 16 streams leaves some pairs idle
  // while others queue deep; stealing must move jobs and the books must
  // still balance.
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::HashAffine;
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Arrival.RatePerSec = 600;
  ClusterReport R = Cluster(Cfg).run();
  EXPECT_GT(R.Steals, 0u);
  EXPECT_GT(R.RebalanceEpochs, 0u);
  EXPECT_EQ(R.Submitted, R.Completed + R.Rejected);
  uint64_t StolenJobs = 0, StolenIn = 0, StolenOut = 0;
  for (const ClusterJobRecord &J : R.Jobs)
    if (J.Stolen)
      ++StolenJobs;
  for (const WorkerSummary &W : R.PerWorker) {
    StolenIn += W.StolenIn;
    StolenOut += W.StolenOut;
  }
  EXPECT_EQ(StolenJobs, R.Steals);
  EXPECT_EQ(StolenIn, R.Steals);
  EXPECT_EQ(StolenOut, R.Steals);
}

TEST(ClusterTest, ScalesThroughputAcrossWorkers) {
  // The headline claim, in miniature: 4 pairs under least-loaded +
  // stealing sustain >= 3x the completed-jobs throughput of 1 pair on a
  // saturating mixed load.
  ClusterConfig Cfg = baseConfig(1);
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Arrival.RatePerSec = 600;
  Cfg.Worker.Seed = 7;
  ClusterReport R1 = Cluster(Cfg).run();
  Cfg.Workers = 4;
  ClusterReport R4 = Cluster(Cfg).run();
  ASSERT_GT(R1.ThroughputJps, 0.0);
  EXPECT_GE(R4.ThroughputJps, 3.0 * R1.ThroughputJps);
  EXPECT_LE(R4.E2e.P95, R1.E2e.P95);
}

// A saturating corun load at seed 42 (16 streams, poisson:600, 10 ms) on
// 1 and on 4 worker pairs: completed jobs and simulated throughput are
// exact at each worker count.
TEST(ClusterTest, ScaleOutLoadDoesPinnedWork) {
  ClusterConfig Cfg = baseConfig(1);
  Cfg.Worker.P = serve::Policy::FluidicCorun;
  Cfg.Worker.Mix = serve::MixKind::Mixed;
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Seed = 42;
  Cfg.Worker.Horizon = Duration::milliseconds(10);
  std::string Err;
  ASSERT_TRUE(serve::parseArrivalSpec("poisson:600", Cfg.Worker.Arrival, Err));
  ClusterReport R1 = Cluster(Cfg).run();
  EXPECT_EQ(R1.Completed, 88u);
  EXPECT_DOUBLE_EQ(R1.ThroughputJps, 2424.8038030622847);
  Cfg.Workers = 4;
  ClusterReport R4 = Cluster(Cfg).run();
  EXPECT_EQ(R4.Completed, 98u);
  EXPECT_DOUBLE_EQ(R4.ThroughputJps, 7026.2253862541929);
}

TEST(ClusterTest, TraceMergesWorkerLanes) {
  trace::Tracer T;
  ClusterConfig Cfg = baseConfig(2);
  Cfg.Worker.Tracer = &T;
  ClusterReport R = Cluster(Cfg).run();
  EXPECT_GT(R.Completed, 0u);
  EXPECT_GT(T.size(), 0u);
  bool SawW0 = false, SawW1 = false;
  for (const trace::TraceEvent &E : T.events()) {
    SawW0 = SawW0 || E.Lane.rfind("w0 ", 0) == 0;
    SawW1 = SawW1 || E.Lane.rfind("w1 ", 0) == 0;
  }
  EXPECT_TRUE(SawW0);
  EXPECT_TRUE(SawW1);
}

//===----------------------------------------------------------------------===//
// Race-analyzer integration over the threaded fabric
//===----------------------------------------------------------------------===//

TEST(RaceClusterTest, ThreadedFabricAnalyzesClean) {
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::HashAffine; // Forces steals -> cross-pair edges.
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Arrival.RatePerSec = 600;
  std::string Plain = Cluster(Cfg).run().toJson();
  Cfg.Worker.Races = check::Policy::Fail;
  ClusterReport Armed = Cluster(Cfg).run();
  EXPECT_EQ(Armed.RaceFindings, 0u)
      << (Armed.RaceDiags.empty() ? "" : Armed.RaceDiags.front());
  EXPECT_TRUE(Armed.RacesEnabled);
  // The analyzer observes; it must never perturb the simulated outcome.
  EXPECT_EQ(Plain, Armed.toJson());
  EXPECT_FALSE(race::Analyzer::enabled());
}

} // namespace
