//===- tests/prof_test.cpp - Wall-clock profiler tests --------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers fcl::prof: nested-scope exclusive-time accounting, counter
// aggregation, thread safety of concurrent scopes + snapshots (run under
// TSan in CI), the BenchReport schema, and - the load-bearing invariant -
// that enabling profiling leaves the simulated results byte-identical
// (both the serve report and the run report).
//
//===----------------------------------------------------------------------===//

#include "prof/BenchReport.h"
#include "prof/Profiler.h"
#include "serve/Engine.h"
#include "sim/Simulator.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

using namespace fcl;
using namespace fcl::prof;

namespace {

/// The profiler is process-global; every test starts from zeroed stats
/// and a disabled profiler, and leaves it disabled.
class ProfTest : public ::testing::Test {
protected:
  void SetUp() override {
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
  }
  void TearDown() override {
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
  }
};

const PhaseStats *findPhase(const Snapshot &S, const std::string &Path) {
  for (const PhaseStats &P : S.Phases)
    if (P.Path == Path)
      return &P;
  return nullptr;
}

/// Burns wall time without sleeping (robust on loaded machines).
void spinFor(int64_t Ns) {
  int64_t Start = wallNowNs();
  while (wallNowNs() - Start < Ns) {
  }
}

TEST_F(ProfTest, DisabledScopesCollectNothing) {
  {
    FCL_PROF_SCOPE("test.disabled_phase");
    spinFor(10'000);
  }
  Snapshot S = Profiler::instance().snapshot();
  EXPECT_EQ(findPhase(S, "test.disabled_phase"), nullptr);
}

TEST_F(ProfTest, ScopeRecordsCountAndTime) {
  Profiler::instance().setEnabled(true);
  for (int I = 0; I < 3; ++I) {
    FCL_PROF_SCOPE("test.basic");
    spinFor(100'000);
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *P = findPhase(S, "test.basic");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Count, 3u);
  EXPECT_GE(P->InclusiveNs, 300'000);
  // A leaf's exclusive time is its inclusive time.
  EXPECT_EQ(P->ExclusiveNs, P->InclusiveNs);
  EXPECT_EQ(P->Depth, 0);
  EXPECT_EQ(P->Name, "test.basic");
}

TEST_F(ProfTest, NestedScopesSplitExclusiveTime) {
  Profiler::instance().setEnabled(true);
  {
    FCL_PROF_SCOPE("test.outer");
    spinFor(2'000'000); // outer self time
    {
      FCL_PROF_SCOPE("test.inner");
      spinFor(2'000'000); // inner time, inclusive to outer
    }
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *Outer = findPhase(S, "test.outer");
  const PhaseStats *Inner = findPhase(S, "test.outer/test.inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Depth, 1);
  // Exclusive = inclusive minus children, up to tick->ns conversion
  // rounding (inclusive and exclusive are converted independently).
  EXPECT_NEAR(static_cast<double>(Outer->ExclusiveNs),
              static_cast<double>(Outer->InclusiveNs - Inner->InclusiveNs),
              16.0);
  // Both self times cover their spins (to within ~1% tick->ns
  // calibration error over the short test window); the outer's self
  // excludes the inner's spin.
  EXPECT_GE(Inner->InclusiveNs, 1'900'000);
  EXPECT_GE(Outer->ExclusiveNs, 1'500'000);
  EXPECT_LE(Outer->ExclusiveNs, Outer->InclusiveNs - 1'900'000);
  // totalExclusiveNs never double-counts nesting (again up to per-phase
  // conversion rounding).
  EXPECT_NEAR(static_cast<double>(Outer->ExclusiveNs + Inner->ExclusiveNs),
              static_cast<double>(Outer->InclusiveNs), 32.0);
}

TEST_F(ProfTest, SameNameReenteredAggregatesByPath) {
  Profiler::instance().setEnabled(true);
  for (int I = 0; I < 5; ++I) {
    FCL_PROF_SCOPE("test.repeat");
    { FCL_PROF_SCOPE("test.child"); }
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *P = findPhase(S, "test.repeat");
  const PhaseStats *C = findPhase(S, "test.repeat/test.child");
  ASSERT_NE(P, nullptr);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(P->Count, 5u);
  EXPECT_EQ(C->Count, 5u);
}

TEST_F(ProfTest, CountersSumOnlyWhenEnabled) {
  static Counter C("test.counter");
  C.add(7); // disabled: dropped
  Profiler::instance().setEnabled(true);
  C.add(2);
  C.add(3);
  Profiler::instance().setEnabled(false);
  C.add(11); // disabled again: dropped
  Snapshot S = Profiler::instance().snapshot();
  ASSERT_TRUE(S.Counters.count("test.counter"));
  EXPECT_EQ(S.Counters.at("test.counter"), 5u);
}

TEST_F(ProfTest, ResetZeroesStatsButKeepsCollecting) {
  Profiler::instance().setEnabled(true);
  { FCL_PROF_SCOPE("test.reset_phase"); }
  Profiler::instance().reset();
  { FCL_PROF_SCOPE("test.reset_phase"); }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *P = findPhase(S, "test.reset_phase");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Count, 1u);
}

TEST_F(ProfTest, TopByExclusiveOrdersDescending) {
  Profiler::instance().setEnabled(true);
  {
    FCL_PROF_SCOPE("test.top_small");
    spinFor(200'000);
  }
  {
    FCL_PROF_SCOPE("test.top_big");
    spinFor(4'000'000);
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  std::vector<PhaseStats> Top = S.topByExclusive(1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Path, "test.top_big");
  EXPECT_FALSE(S.renderText(/*TopN=*/2).empty());
}

// Exercised under TSan in CI: four threads hammer nested scopes while the
// main thread snapshots concurrently; totals must come out exact.
TEST_F(ProfTest, ThreadSafetyUnderConcurrentScopesAndSnapshots) {
  constexpr int Threads = 4;
  constexpr int Iters = 20'000;
  Profiler::instance().setEnabled(true);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([] {
      static Counter C("test.mt_counter");
      for (int I = 0; I < Iters; ++I) {
        FCL_PROF_SCOPE("test.mt_outer");
        C.add();
        { FCL_PROF_SCOPE("test.mt_inner"); }
      }
    });
  // Concurrent snapshots while the workers run.
  for (int I = 0; I < 50; ++I)
    (void)Profiler::instance().snapshot();
  for (std::thread &W : Workers)
    W.join();
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *Outer = findPhase(S, "test.mt_outer");
  const PhaseStats *Inner = findPhase(S, "test.mt_outer/test.mt_inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Count, static_cast<uint64_t>(Threads) * Iters);
  EXPECT_EQ(Inner->Count, static_cast<uint64_t>(Threads) * Iters);
  EXPECT_EQ(S.Counters.at("test.mt_counter"),
            static_cast<uint64_t>(Threads) * Iters);
}

TEST_F(ProfTest, BenchReportJsonRoundTrip) {
  Profiler::instance().setEnabled(true);
  {
    FCL_PROF_SCOPE("test.bench_phase");
    spinFor(100'000);
  }
  Profiler::instance().setEnabled(false);

  BenchReport Rep;
  Rep.Name = "unit";
  Rep.Suite = "test";
  Rep.Meta["purpose"] = "round trip";
  Rep.Metrics["events_per_sec"] = 1234.5;
  Rep.Metrics["overhead_pct"] = 0.5;
  Rep.attachProfile(Profiler::instance().snapshot(), 4);
  Rep.PeakRss = peakRssBytes();
  EXPECT_GT(Rep.PeakRss, 0u);
  ASSERT_FALSE(Rep.Profile.empty());

  std::string Json = Rep.toJson();
  EXPECT_NE(Json.find("\"schema\": \"fcl-bench-report-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(Json.find("\"events_per_sec\""), std::string::npos);
  EXPECT_NE(Json.find("test.bench_phase"), std::string::npos);
  EXPECT_NE(Json.find("\"peak_rss_bytes\""), std::string::npos);

  std::string Path =
      testing::TempDir() + "/BENCH_unit_prof_test.json";
  ASSERT_TRUE(Rep.write(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  std::remove(Path.c_str());
}

// Byte-level gate for "fcl-bench-report-v1": every field is fixed (no
// wall-clock values), including a key that needs escaping, an empty map
// and hand-built profile phases.
TEST_F(ProfTest, BenchReportGoldenBytes) {
  BenchReport Rep;
  Rep.Name = "golden";
  Rep.Suite = "unit";
  Rep.Metrics["events_per_sec"] = 1234.5;
  Rep.Metrics["odd \"key\"\t"] = 0.000123456789;
  PhaseStats Outer;
  Outer.Path = "sim.run";
  Outer.Count = 3;
  Outer.InclusiveNs = 2'500'000;
  Outer.ExclusiveNs = 1'250'000;
  PhaseStats Inner;
  Inner.Path = "sim.run/fcl.merge";
  Inner.Count = 7;
  Inner.InclusiveNs = 1'250'000;
  Inner.ExclusiveNs = 1'250'000;
  Rep.Profile = {Outer, Inner};
  Rep.Counters["alloc.bytes"] = 4096;
  Rep.Counters["alloc.count"] = 12;
  Rep.PeakRss = 1048576;

  EXPECT_EQ(Rep.toJson(),
            "{\n"
            "  \"schema\": \"fcl-bench-report-v1\",\n"
            "  \"name\": \"golden\",\n"
            "  \"suite\": \"unit\",\n"
            "  \"meta\": {},\n"
            "  \"metrics\": {\n"
            "    \"events_per_sec\": 1234.5,\n"
            "    \"odd \\\"key\\\"\\t\": 0.000123456789\n"
            "  },\n"
            "  \"peak_rss_bytes\": 1048576,\n"
            "  \"profile\": [\n"
            "    {\"path\": \"sim.run\", \"count\": 3, \"inclusive_ms\": "
            "2.500000, \"exclusive_ms\": 1.250000},\n"
            "    {\"path\": \"sim.run/fcl.merge\", \"count\": 7, "
            "\"inclusive_ms\": 1.250000, \"exclusive_ms\": 1.250000}\n"
            "  ],\n"
            "  \"counters\": {\n"
            "    \"alloc.bytes\": 4096,\n"
            "    \"alloc.count\": 12\n"
            "  }\n"
            "}\n");
}

serve::ServeReport runServeOnce() {
  serve::EngineConfig Cfg;
  Cfg.P = serve::Policy::FluidicCorun;
  Cfg.Streams = 4;
  Cfg.Seed = 11;
  Cfg.Horizon = Duration::milliseconds(15);
  serve::Engine Engine(Cfg);
  return Engine.run();
}

// The determinism invariant from the ISSUE: profiling reads only the wall
// clock, so the simulated serve report must be byte-identical with
// profiling on or off.
TEST_F(ProfTest, ServeReportByteIdenticalWithProfilingOn) {
  std::string Off = runServeOnce().toJson();
  Profiler::instance().setEnabled(true);
  std::string On = runServeOnce().toJson();
  Profiler::instance().setEnabled(false);
  EXPECT_EQ(Off, On);
  // And the profiler actually saw the run.
  Snapshot S = Profiler::instance().snapshot();
  EXPECT_NE(findPhase(S, "sim.run"), nullptr);
}

// Same invariant for the single-run report path.
TEST_F(ProfTest, RunReportByteIdenticalWithProfilingOn) {
  work::Workload W = work::makeSyrk(128, 128);
  work::RunConfig C;
  std::string Off =
      work::reportUnder(work::RuntimeKind::FluidiCL, W, C).renderJson();
  Profiler::instance().setEnabled(true);
  std::string On =
      work::reportUnder(work::RuntimeKind::FluidiCL, W, C).renderJson();
  Profiler::instance().setEnabled(false);
  EXPECT_EQ(Off, On);
}

// Satellite 1: the sim event-queue health counters surface in reports.
TEST_F(ProfTest, RunReportCarriesSimQueueHealthStats) {
  work::Workload W = work::makeSyrk(128, 128);
  stats::RunReport Rep =
      work::reportUnder(work::RuntimeKind::FluidiCL, W, work::RunConfig());
  EXPECT_GT(Rep.Counters.counter("sim_events_executed"), 0u);
  std::string Json = Rep.renderJson();
  EXPECT_NE(Json.find("sim_events_executed"), std::string::npos);
  EXPECT_NE(Json.find("sim_pending_tombstones"), std::string::npos);
}

TEST_F(ProfTest, ServeReportCarriesSimQueueHealthStats) {
  serve::ServeReport Rep = runServeOnce();
  std::string Json = Rep.toJson();
  EXPECT_NE(Json.find("sim_events_executed"), std::string::npos);
  EXPECT_NE(Json.find("sim_tombstone_skips"), std::string::npos);
  EXPECT_NE(Json.find("sim_pending_tombstones"), std::string::npos);
  // Retired with tombstone compaction: absent, not a silent 0.
  EXPECT_EQ(Json.find("sim_compaction_runs"), std::string::npos);
}

TEST_F(ProfTest, OnlyEffectiveCancelsAreCounted) {
  Profiler::instance().setEnabled(true);
  sim::Simulator Sim;
  sim::EventId Fired = Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  sim::EventId Doomed = Sim.scheduleAfter(Duration::nanoseconds(2), [] {});
  EXPECT_TRUE(Sim.cancel(Doomed));
  EXPECT_FALSE(Sim.cancel(Doomed));
  EXPECT_FALSE(Sim.cancel(sim::EventId()));
  Sim.run();
  EXPECT_FALSE(Sim.cancel(Fired));
  Sim.run(); // Empty queue: nothing to flush, the counters stay put.
  Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  Sim.run();
  Snapshot S = Profiler::instance().snapshot();
  EXPECT_EQ(S.Counters.at("sim.events_cancelled"), 1u);
  EXPECT_EQ(S.Counters.at("sim.events_executed"), 2u);
  EXPECT_EQ(S.Counters.at("sim.tombstone_skips"), 1u);
  EXPECT_EQ(S.Counters.count("sim.compaction_runs"), 0u);
}

} // namespace
