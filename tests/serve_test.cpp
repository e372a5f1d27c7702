//===- tests/serve_test.cpp - Serving-layer tests --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for fcl::serve: load generation, admission/backpressure, the three
/// dispatch policies, latency accounting, determinism (same seed =>
/// byte-identical report JSON) and the headline acceptance gate - on a
/// mixed large/small workload FluidicCorun must beat FifoExclusive on both
/// p95 end-to-end latency and total makespan.
///
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"
#include "serve/LoadGen.h"
#include "serve/Metrics.h"
#include "serve/Policy.h"
#include "trace/Tracer.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace fcl;
using namespace fcl::serve;

namespace {

EngineConfig baseConfig(Policy P, uint64_t Seed = 7) {
  EngineConfig Cfg;
  Cfg.P = P;
  Cfg.Streams = 8;
  Cfg.Arrival.Kind = ArrivalKind::Poisson;
  Cfg.Arrival.RatePerSec = 400;
  Cfg.Horizon = Duration::milliseconds(100);
  Cfg.Seed = Seed;
  return Cfg;
}

ServeReport runServe(const EngineConfig &Cfg) {
  Engine E(Cfg);
  return E.run();
}

TEST(LoadGenTest, ParseArrivalSpecs) {
  ArrivalSpec A;
  std::string Err;
  EXPECT_TRUE(parseArrivalSpec("poisson:120", A, Err));
  EXPECT_EQ(A.Kind, ArrivalKind::Poisson);
  EXPECT_DOUBLE_EQ(A.RatePerSec, 120);
  EXPECT_TRUE(parseArrivalSpec("uniform:50.5", A, Err));
  EXPECT_EQ(A.Kind, ArrivalKind::Uniform);
  EXPECT_DOUBLE_EQ(A.RatePerSec, 50.5);
  EXPECT_TRUE(parseArrivalSpec("closed:2", A, Err));
  EXPECT_EQ(A.Kind, ArrivalKind::Closed);
  EXPECT_EQ(A.Think.nanos(), Duration::milliseconds(2).nanos());
  EXPECT_FALSE(parseArrivalSpec("poisson", A, Err));
  EXPECT_FALSE(parseArrivalSpec("poisson:-3", A, Err));
  EXPECT_FALSE(parseArrivalSpec("burst:9", A, Err));
  // The whole value must parse to a finite number.
  EXPECT_FALSE(parseArrivalSpec("poisson:5abc", A, Err));
  EXPECT_FALSE(parseArrivalSpec("poisson:nan", A, Err));
  EXPECT_FALSE(parseArrivalSpec("poisson:inf", A, Err));
  EXPECT_FALSE(parseArrivalSpec("closed:nan", A, Err));
}

TEST(LoadGenTest, TemplatesSpanBothClasses) {
  std::vector<JobTemplate> Mixed = jobTemplates(MixKind::Mixed);
  ASSERT_FALSE(Mixed.empty());
  bool AnySmall = false, AnyLarge = false;
  for (const JobTemplate &T : Mixed) {
    EXPECT_FALSE(T.W.Calls.empty());
    (T.MaxGroups >= 64 ? AnyLarge : AnySmall) = true;
  }
  EXPECT_TRUE(AnySmall);
  EXPECT_TRUE(AnyLarge);
  for (const JobTemplate &T : jobTemplates(MixKind::Small))
    EXPECT_LT(T.MaxGroups, 64u);
  for (const JobTemplate &T : jobTemplates(MixKind::Large))
    EXPECT_GE(T.MaxGroups, 64u);
}

TEST(LoadGenTest, StreamDrawsAreDeterministicPerSeed) {
  std::vector<JobTemplate> Templs = jobTemplates(MixKind::Mixed);
  StreamGen A(42, 3, Templs), B(42, 3, Templs), C(43, 3, Templs);
  ArrivalSpec Spec;
  Spec.RatePerSec = 200;
  bool AnyDiffer = false;
  for (int I = 0; I < 32; ++I) {
    Duration Da = A.interarrival(Spec), Db = B.interarrival(Spec);
    EXPECT_EQ(Da.nanos(), Db.nanos());
    AnyDiffer |= Da.nanos() != C.interarrival(Spec).nanos();
  }
  EXPECT_TRUE(AnyDiffer);
  // Different streams under the same seed get different sequences.
  StreamGen S0(42, 0, Templs), S1(42, 1, Templs);
  EXPECT_NE(StreamGen::mixSeed(42, 0), StreamGen::mixSeed(42, 1));
  bool StreamsDiffer = false;
  for (int I = 0; I < 32 && !StreamsDiffer; ++I)
    StreamsDiffer =
        S0.interarrival(Spec).nanos() != S1.interarrival(Spec).nanos();
  EXPECT_TRUE(StreamsDiffer);
}

TEST(LoadGenTest, PipelineMixCarriesDagTemplates) {
  std::vector<JobTemplate> Templs = jobTemplates(MixKind::Pipeline);
  ASSERT_FALSE(Templs.empty());
  bool AnyDag = false, AnyPlain = false;
  for (const JobTemplate &T : Templs) {
    if (T.Dag) {
      AnyDag = true;
      // The precomputed graph must describe exactly this template.
      EXPECT_EQ(T.Dag->size(), T.W.Calls.size());
      EXPECT_GE(T.Dag->size(), 2u);
    } else {
      AnyPlain = true;
    }
  }
  EXPECT_TRUE(AnyDag);
  EXPECT_TRUE(AnyPlain);
  // The non-pipeline mixes never carry graphs.
  for (const JobTemplate &T : jobTemplates(MixKind::Mixed))
    EXPECT_EQ(T.Dag, nullptr);
}

TEST(LoadGenTest, OpenLoopDrawIsStreamMajorWithinHorizon) {
  std::vector<JobTemplate> Templs = jobTemplates(MixKind::Mixed);
  ArrivalSpec Spec{ArrivalKind::Poisson, 400, Duration::milliseconds(5)};
  Duration Horizon = Duration::milliseconds(50);
  std::vector<Arrival> A = drawOpenLoopArrivals(7, 4, Spec, Horizon, Templs);
  ASSERT_FALSE(A.empty());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_LE(A[I].At - TimePoint(), Horizon);
    EXPECT_GE(A[I].TemplateIdx, 0);
    EXPECT_LT(static_cast<size_t>(A[I].TemplateIdx), Templs.size());
    if (I > 0) {
      EXPECT_GE(A[I].Stream, A[I - 1].Stream);
      if (A[I].Stream == A[I - 1].Stream) {
        EXPECT_GT(A[I].At, A[I - 1].At);
      }
    }
  }
  EXPECT_EQ(A.back().Stream, 3);
  // Same draws as a hand-driven StreamGen: first interarrival, then a
  // template pick and the next interarrival per arrival.
  StreamGen G(7, 0, Templs);
  Duration At = G.interarrival(Spec);
  for (size_t I = 0; I < A.size() && A[I].Stream == 0; ++I) {
    EXPECT_EQ(A[I].At, TimePoint() + At);
    EXPECT_EQ(A[I].TemplateIdx, G.pickIndex());
    At += G.interarrival(Spec);
  }
}

TEST(LoadGenDeathTest, PickTemplateWithNoTemplatesFailsLoud) {
  // nextBelow(0) would be modulo-by-zero UB; the generator must abort with
  // a diagnostic instead of returning garbage.
  std::vector<JobTemplate> Empty;
  StreamGen G(1, 0, Empty);
  EXPECT_DEATH((void)G.pickTemplate(), "no job templates");
}

TEST(MetricsTest, LatencySummaryNearestRank) {
  std::vector<double> Vals;
  for (int I = 100; I >= 1; --I)
    Vals.push_back(static_cast<double>(I));
  LatencySummary S = summarizeLatency(Vals);
  EXPECT_DOUBLE_EQ(S.P50, 50);
  EXPECT_DOUBLE_EQ(S.P95, 95);
  EXPECT_DOUBLE_EQ(S.P99, 99);
  EXPECT_DOUBLE_EQ(S.Max, 100);
  EXPECT_DOUBLE_EQ(S.Mean, 50.5);
}

TEST(ServeEngineTest, SameSeedSameConfigByteIdenticalJson) {
  // Poisson and uniform open loops, plus a closed loop whose queue is so
  // shallow that rejections re-arm streams as often as completions do.
  ArrivalSpec Uniform{ArrivalKind::Uniform, 300, Duration::milliseconds(5)};
  ArrivalSpec Closed{ArrivalKind::Closed, 0, Duration::microseconds(500)};
  for (Policy P :
       {Policy::FifoExclusive, Policy::DeviceAffine, Policy::FluidicCorun}) {
    EngineConfig Poisson = baseConfig(P);
    EngineConfig Uni = baseConfig(P);
    Uni.Arrival = Uniform;
    EngineConfig Rejecting = baseConfig(P);
    Rejecting.Arrival = Closed;
    Rejecting.QueueDepth = 2;
    for (const EngineConfig &Cfg : {Poisson, Uni, Rejecting}) {
      std::string Label =
          std::string(policyName(P)) + " " + Cfg.Arrival.str();
      ServeReport A = runServe(Cfg);
      ServeReport B = runServe(Cfg);
      EXPECT_EQ(A.toJson(), B.toJson()) << Label;
      EXPECT_EQ(A.toCsv(), B.toCsv()) << Label;
      if (Cfg.QueueDepth == 2) {
        EXPECT_GT(A.Rejected, 0u) << Label;
      }
    }
  }
}

// run() is a thin driver over the step API: injecting the same open-loop
// draw by hand and pumping the clock in 1 ms quanta gives the same bytes.
TEST(ServeEngineTest, InjectedLoadMatchesRun) {
  EngineConfig Cfg = baseConfig(Policy::FluidicCorun);
  std::string Driven = runServe(Cfg).toJson();
  Engine E(Cfg);
  for (const Arrival &A : drawOpenLoopArrivals(
           Cfg.Seed, Cfg.Streams, Cfg.Arrival, Cfg.Horizon, E.templates()))
    E.injectJob(0, A.TemplateIdx, A.Stream, A.At);
  TimePoint Deadline;
  while (!E.quiescent()) {
    Deadline = Deadline + Duration::milliseconds(1);
    E.advanceTo(Deadline);
  }
  EXPECT_EQ(E.finish().toJson(), Driven);
}

TEST(ServeEngineTest, SeedChangesTheRun) {
  ServeReport A = runServe(baseConfig(Policy::FluidicCorun, 7));
  ServeReport B = runServe(baseConfig(Policy::FluidicCorun, 8));
  EXPECT_NE(A.toJson(), B.toJson());
}

// The headline acceptance gate: on the mixed large/small workload at a
// saturating arrival rate, cooperative head-of-line execution with CPU
// backfill must beat whole-pair FIFO on BOTH p95 end-to-end latency and
// total makespan.
TEST(ServeEngineTest, CorunBeatsFifoOnP95AndMakespan) {
  ServeReport Fifo = runServe(baseConfig(Policy::FifoExclusive));
  ServeReport Corun = runServe(baseConfig(Policy::FluidicCorun));
  ASSERT_GT(Fifo.Completed, 0u);
  ASSERT_GT(Corun.Completed, 0u);
  EXPECT_LT(Corun.E2e.P95, Fifo.E2e.P95);
  EXPECT_LT(Corun.MakespanMs, Fifo.MakespanMs);
  // It wins while also completing at least as many requests - the latency
  // and makespan edge is not bought by shedding load.
  EXPECT_GE(Corun.Completed, Fifo.Completed);
}

// Corun over the mixed and the pipeline mix at seed 42 (6 streams, 10 ms
// horizon): the work each load does is exact, so a change to admission,
// dispatch or the DAG executor that alters it fails here, on any host.
TEST(ServeEngineTest, CorunLoadsDoPinnedWork) {
  struct Case {
    MixKind Mix;
    const char *Arrival;
    uint64_t Submitted, Completed, DagNodes, DagTransfers;
    double MakespanMs;
  };
  for (const Case &C :
       {Case{MixKind::Mixed, "poisson:200", 5, 5, 0, 0, 9.920724},
        Case{MixKind::Pipeline, "poisson:250", 7, 7, 11, 28, 10.088923}}) {
    EngineConfig Cfg;
    Cfg.P = Policy::FluidicCorun;
    Cfg.Mix = C.Mix;
    Cfg.Streams = 6;
    Cfg.Seed = 42;
    Cfg.Horizon = Duration::milliseconds(10);
    std::string Err;
    ASSERT_TRUE(parseArrivalSpec(C.Arrival, Cfg.Arrival, Err)) << Err;
    ServeReport R = runServe(Cfg);
    EXPECT_EQ(R.Submitted, C.Submitted) << C.Arrival;
    EXPECT_EQ(R.Completed, C.Completed) << C.Arrival;
    EXPECT_EQ(R.DagNodes, C.DagNodes) << C.Arrival;
    EXPECT_EQ(R.DagTransfers, C.DagTransfers) << C.Arrival;
    EXPECT_DOUBLE_EQ(R.MakespanMs, C.MakespanMs) << C.Arrival;
  }
}

TEST(ServeEngineTest, CorunUsesBackfillAndChunkYields) {
  ServeReport R = runServe(baseConfig(Policy::FluidicCorun));
  EXPECT_GT(R.CoopJobs, 0u);
  EXPECT_GT(R.BackfillJobs, 0u);
  EXPECT_GT(R.ChunkYields, 0u);
  EXPECT_GT(R.CorunCpuMs, 0);
  EXPECT_EQ(R.Completed, R.CoopJobs + R.GpuJobs + R.CpuJobs);
}

TEST(ServeEngineTest, FifoRunsEverythingAsPairs) {
  ServeReport R = runServe(baseConfig(Policy::FifoExclusive));
  EXPECT_EQ(R.Completed, R.CoopJobs);
  EXPECT_EQ(R.GpuJobs, 0u);
  EXPECT_EQ(R.CpuJobs, 0u);
  for (const RequestRecord &Req : R.Requests) {
    if (!Req.Rejected) {
      EXPECT_EQ(Req.Placement, "pair");
    }
  }
}

TEST(ServeEngineTest, AffinePinsByClass) {
  ServeReport R = runServe(baseConfig(Policy::DeviceAffine));
  EXPECT_EQ(R.CoopJobs, 0u);
  EXPECT_GT(R.GpuJobs, 0u);
  EXPECT_GT(R.CpuJobs, 0u);
  for (const RequestRecord &Req : R.Requests) {
    if (Req.Rejected)
      continue;
    EXPECT_EQ(Req.Placement, Req.Large ? "gpu" : "cpu")
        << "request " << Req.Id << " (" << Req.Workload << ")";
  }
}

TEST(ServeEngineTest, BoundedQueueRejectsUnderOverload) {
  EngineConfig Cfg = baseConfig(Policy::FifoExclusive);
  Cfg.QueueDepth = 4;
  ServeReport R = runServe(Cfg);
  EXPECT_GT(R.Rejected, 0u);
  EXPECT_EQ(R.Submitted, R.Rejected + R.Completed);
  for (const RequestRecord &Req : R.Requests) {
    if (Req.Rejected) {
      EXPECT_EQ(Req.Placement, "rejected");
    }
  }
}

TEST(ServeEngineTest, ClosedLoopHonorsOneOutstandingPerStream) {
  EngineConfig Cfg = baseConfig(Policy::DeviceAffine);
  Cfg.Arrival.Kind = ArrivalKind::Closed;
  Cfg.Arrival.Think = Duration::milliseconds(1);
  Cfg.Streams = 4;
  ServeReport R = runServe(Cfg);
  EXPECT_GT(R.Completed, 0u);
  // One outstanding request per stream can never overflow a queue as deep
  // as the stream count.
  EXPECT_EQ(R.Rejected, 0u);
  // Latency decomposition must be internally consistent.
  for (const RequestRecord &Req : R.Requests) {
    if (Req.Rejected)
      continue;
    EXPECT_GE(Req.queueWaitMs(), 0);
    EXPECT_GT(Req.serviceMs(), 0);
    EXPECT_NEAR(Req.e2eMs(), Req.queueWaitMs() + Req.serviceMs(), 1e-9);
  }
}

TEST(ServeEngineTest, SloViolationsCounted) {
  EngineConfig Cfg = baseConfig(Policy::FifoExclusive);
  Cfg.SloMs = 0.001; // Impossible: every completed request violates.
  ServeReport R = runServe(Cfg);
  EXPECT_TRUE(R.SloChecked);
  EXPECT_EQ(R.SloViolations, R.Completed);
  Cfg.SloMs = 1e6; // Trivially satisfied.
  ServeReport Ok = runServe(Cfg);
  EXPECT_TRUE(Ok.SloChecked);
  EXPECT_EQ(Ok.SloViolations, 0u);
}

TEST(ServeEngineTest, FunctionalValidationPassesUnderAllPolicies) {
  for (Policy P :
       {Policy::FifoExclusive, Policy::DeviceAffine, Policy::FluidicCorun}) {
    EngineConfig Cfg = baseConfig(P, 3);
    Cfg.Mode = mcl::ExecMode::Functional;
    Cfg.Validate = true;
    Cfg.Streams = 4;
    Cfg.Arrival.RatePerSec = 200;
    Cfg.Horizon = Duration::milliseconds(50);
    ServeReport R = runServe(Cfg);
    EXPECT_GT(R.Completed, 0u) << "policy " << policyName(P);
    EXPECT_TRUE(R.Validated);
    EXPECT_EQ(R.ValidationFailures, 0u) << "policy " << policyName(P);
  }
}

TEST(ServeEngineTest, TracerGetsServeLanes) {
  trace::Tracer T;
  EngineConfig Cfg = baseConfig(Policy::FluidicCorun);
  Cfg.Horizon = Duration::milliseconds(30);
  Cfg.Tracer = &T;
  ServeReport R = runServe(Cfg);
  EXPECT_GT(R.Completed, 0u);
  EXPECT_GT(T.size(), 0u);
  EXPECT_FALSE(T.counterSamples().empty());
  std::string Json = T.renderChromeTrace();
  EXPECT_NE(Json.find("Serve GPU"), std::string::npos);
  EXPECT_NE(Json.find("Serve queue depth"), std::string::npos);
}

// A job's serve lanes are the devices it leased: pair and dag jobs hold
// both, corun and gpu jobs only the GPU, cpu and cpu-backfill jobs only
// the CPU. Every placement occurs under one of the policy/mix runs.
TEST(ServeEngineTest, TraceLanesFollowLeases) {
  const std::set<std::string> GpuLeases = {"pair", "dag", "corun", "gpu"};
  const std::set<std::string> CpuLeases = {"pair", "dag", "cpu",
                                           "cpu-backfill"};
  std::set<std::string> Seen;
  for (MixKind Mix : {MixKind::Mixed, MixKind::Pipeline}) {
    for (Policy P : {Policy::FifoExclusive, Policy::DeviceAffine,
                     Policy::FluidicCorun}) {
      SCOPED_TRACE(std::string(policyName(P)) + "/" + mixName(Mix));
      trace::Tracer T;
      EngineConfig Cfg = baseConfig(P);
      Cfg.Mix = Mix;
      Cfg.Horizon = Duration::milliseconds(30);
      Cfg.Tracer = &T;
      ServeReport R = runServe(Cfg);
      size_t WantGpu = 0, WantCpu = 0;
      for (const RequestRecord &Q : R.Requests) {
        Seen.insert(Q.Placement);
        WantGpu += GpuLeases.count(Q.Placement);
        WantCpu += CpuLeases.count(Q.Placement);
      }
      size_t GotGpu = 0, GotCpu = 0;
      for (const trace::TraceEvent &E : T.events()) {
        GotGpu += E.Lane == "Serve GPU";
        GotCpu += E.Lane == "Serve CPU";
      }
      EXPECT_GT(WantGpu + WantCpu, 0u);
      EXPECT_EQ(GotGpu, WantGpu);
      EXPECT_EQ(GotCpu, WantCpu);
    }
  }
  for (const char *Placement :
       {"pair", "dag", "corun", "gpu", "cpu", "cpu-backfill"})
    EXPECT_EQ(Seen.count(Placement), 1u) << Placement;
}

TEST(ServeEngineTest, ReportJsonCarriesSchemaAndConfigEcho) {
  ServeReport R = runServe(baseConfig(Policy::FluidicCorun));
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("fcl-serve-report-v1"), std::string::npos);
  EXPECT_NE(Json.find("\"policy\": \"corun\""), std::string::npos);
  EXPECT_NE(Json.find("\"machine\": \"paper\""), std::string::npos);
  EXPECT_NE(Json.find("serve_completed"), std::string::npos);
}

// Byte-level gate for the parts of "fcl-serve-report-v1" that only appear
// when something happened - the "dag", "check" and "races" objects - with
// strings that need escaping.
TEST(ServeReportTest, JsonGoldenBytesWithDagCheckAndRaces) {
  ServeReport R;
  R.PolicyName = "corun";
  R.ArrivalDesc = "poisson:400";
  R.Mix = "mixed";
  R.Machine = "paper";
  R.Seed = 7;
  R.Streams = 8;
  R.QueueDepth = 64;
  R.LargeThreshold = 64;
  R.HorizonMs = 100;
  R.Submitted = 3;
  R.Rejected = 1;
  R.Completed = 2;
  R.E2e = {1.5, 2, 2.25, 1.75, 2.25};
  R.MakespanMs = 2.5;
  R.ThroughputRps = 800;
  R.DagPlacement = "residency";
  R.DagJobs = 1;
  R.DagNodes = 3;
  R.CheckEnabled = true;
  R.CheckErrors = 1;
  R.CheckDiags = {"error: \"k\" writes out of bounds"};
  R.RacesEnabled = true;
  R.RaceFindings = 2;
  R.RaceDiags = {"race a", "race\tb"};
  R.Stats.add("serve_completed", 2);
  R.Stats.set("serve_gpu_util", 0.5);

  const std::string Zero = "{\"p50\": 0.000000, \"p95\": 0.000000, \"p99\": "
                           "0.000000, \"mean\": 0.000000, \"max\": 0.000000}";
  EXPECT_EQ(R.toJson(),
            "{\n"
            "  \"schema\": \"fcl-serve-report-v1\",\n"
            "  \"policy\": \"corun\",\n"
            "  \"arrival\": \"poisson:400\",\n"
            "  \"mix\": \"mixed\",\n"
            "  \"machine\": \"paper\",\n"
            "  \"seed\": 7,\n"
            "  \"streams\": 8,\n"
            "  \"queue_depth\": 64,\n"
            "  \"large_threshold_groups\": 64,\n"
            "  \"horizon_ms\": 100.000000,\n"
            "  \"submitted\": 3,\n"
            "  \"rejected\": 1,\n"
            "  \"completed\": 2,\n"
            "  \"latency_ms\": {\n"
            "    \"queue_wait\": " + Zero + ",\n"
            "    \"service\": " + Zero + ",\n"
            "    \"e2e\": {\"p50\": 1.500000, \"p95\": 2.000000, \"p99\": "
            "2.250000, \"mean\": 1.750000, \"max\": 2.250000}\n"
            "  },\n"
            "  \"per_class\": {\n"
            "    \"small\": {\"completed\": 0, \"e2e\": " +
            Zero + "},\n"
            "    \"large\": {\"completed\": 0, \"e2e\": " +
            Zero + "}\n"
            "  },\n"
            "  \"makespan_ms\": 2.500000,\n"
            "  \"throughput_rps\": 800.000000,\n"
            "  \"occupancy\": {\n"
            "    \"gpu_busy_ms\": 0.000000,\n"
            "    \"cpu_busy_ms\": 0.000000,\n"
            "    \"corun_cpu_ms\": 0.000000,\n"
            "    \"gpu_util\": 0.000000,\n"
            "    \"cpu_util\": 0.000000\n"
            "  },\n"
            "  \"placement\": {\n"
            "    \"coop_jobs\": 0,\n"
            "    \"gpu_jobs\": 0,\n"
            "    \"cpu_jobs\": 0,\n"
            "    \"backfill_jobs\": 0,\n"
            "    \"chunk_yields\": 0\n"
            "  },\n"
            "  \"slo\": {\n"
            "    \"checked\": false,\n"
            "    \"slo_ms\": 0.000000,\n"
            "    \"violations\": 0\n"
            "  },\n"
            "  \"validation\": {\n"
            "    \"validated\": false,\n"
            "    \"failures\": 0\n"
            "  },\n"
            "  \"dag\": {\n"
            "    \"placement\": \"residency\",\n"
            "    \"jobs\": 1,\n"
            "    \"nodes\": 3,\n"
            "    \"gpu_nodes\": 0,\n"
            "    \"cpu_nodes\": 0,\n"
            "    \"transfers\": 0,\n"
            "    \"transfer_bytes\": 0,\n"
            "    \"pcie_bytes\": 0,\n"
            "    \"transfers_skipped\": 0,\n"
            "    \"bytes_saved\": 0\n"
            "  },\n"
            "  \"check\": {\n"
            "    \"errors\": 1,\n"
            "    \"warnings\": 0,\n"
            "    \"diags\": [\n"
            "      \"error: \\\"k\\\" writes out of bounds\"\n"
            "    ]\n"
            "  },\n"
            "  \"races\": {\n"
            "    \"findings\": 2,\n"
            "    \"diags\": [\n"
            "      \"race a\",\n"
            "      \"race\\tb\"\n"
            "    ]\n"
            "  },\n"
            "  \"stats\": {\n"
            "    \"counters\": {\n"
            "      \"serve_completed\": 2\n"
            "    },\n"
            "    \"gauges\": {\n"
            "      \"serve_gpu_util\": 0.500000\n"
            "    }\n"
            "  }\n"
            "}\n");
}

} // namespace
