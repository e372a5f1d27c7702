//===- cluster/Report.cpp - Cluster-level serving metrics -----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/Report.h"

#include "support/Format.h"
#include "support/JsonWriter.h"

using namespace fcl;
using namespace fcl::cluster;

std::string ClusterReport::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema").value("fcl-cluster-report-v1");
  W.key("workers").value(Workers);
  W.key("placement").value(PlacementName);
  W.key("steal").value(Steal);
  W.key("policy").value(PolicyName);
  W.key("arrival").value(ArrivalDesc);
  W.key("mix").value(Mix);
  W.key("machine").value(Machine);
  W.key("seed").value(Seed);
  W.key("streams").value(Streams);
  W.key("queue_depth").value(QueueDepth);
  W.key("large_threshold_groups").value(LargeThreshold);
  W.key("horizon_ms").value(HorizonMs);
  W.key("quantum_ms").value(QuantumMs);
  W.key("link_latency_us").value(LinkLatencyUs);
  W.key("submitted").value(Submitted);
  W.key("rejected").value(Rejected);
  W.key("completed").value(Completed);
  W.key("stolen").value(Stolen);
  W.key("latency_ms").beginObject();
  serve::writeLatencyJson(W.key("queue_wait"), QueueWait);
  serve::writeLatencyJson(W.key("service"), Service);
  serve::writeLatencyJson(W.key("e2e"), E2e);
  W.end();
  W.key("makespan_ms").value(MakespanMs);
  W.key("throughput_jps").value(ThroughputJps);
  W.key("fabric").beginObject();
  W.key("epochs").value(Epochs);
  W.key("messages").value(Messages);
  W.key("steals").value(Steals);
  W.key("rebalance_epochs").value(RebalanceEpochs);
  W.end();
  W.key("per_worker").beginArray();
  for (const WorkerSummary &Wk : PerWorker) {
    W.beginObject(JsonWriter::Layout::Inline);
    W.key("worker").value(Wk.Index);
    W.key("assigned").value(Wk.Assigned);
    W.key("completed").value(Wk.Completed);
    W.key("rejected").value(Wk.Rejected);
    W.key("stolen_in").value(Wk.StolenIn);
    W.key("stolen_out").value(Wk.StolenOut);
    W.key("gpu_busy_ms").value(Wk.GpuBusyMs);
    W.key("cpu_busy_ms").value(Wk.CpuBusyMs);
    W.key("gpu_util").value(Wk.GpuUtil);
    W.key("cpu_util").value(Wk.CpuUtil);
    serve::writeLatencyJson(W.key("e2e"), Wk.E2e);
    W.end();
  }
  W.end();
  serve::writeVerdictsJson(W, *this);
  W.end();
  return W.str();
}

std::string ClusterReport::toText() const {
  std::string T;
  T += formatString("cluster: workers=%d placement=%s steal=%s policy=%s "
                    "arrival=%s mix=%s machine=%s seed=%llu streams=%d\n",
                    Workers, PlacementName.c_str(), Steal ? "on" : "off",
                    PolicyName.c_str(), ArrivalDesc.c_str(), Mix.c_str(),
                    Machine.c_str(), static_cast<unsigned long long>(Seed),
                    Streams);
  T += formatString(
      "jobs: submitted=%llu rejected=%llu completed=%llu stolen=%llu\n",
      static_cast<unsigned long long>(Submitted),
      static_cast<unsigned long long>(Rejected),
      static_cast<unsigned long long>(Completed),
      static_cast<unsigned long long>(Stolen));
  T += formatString("makespan %.3f ms, throughput %.1f jobs/s\n", MakespanMs,
                    ThroughputJps);
  T += "latency (ms):\n";
  T += serve::latencyRow("queue-wait", QueueWait);
  T += serve::latencyRow("service", Service);
  T += serve::latencyRow("e2e", E2e);
  T += formatString(
      "fabric: epochs=%llu messages=%llu steals=%llu rebalance-epochs=%llu\n",
      static_cast<unsigned long long>(Epochs),
      static_cast<unsigned long long>(Messages),
      static_cast<unsigned long long>(Steals),
      static_cast<unsigned long long>(RebalanceEpochs));
  for (const WorkerSummary &W : PerWorker)
    T += formatString("  w%-2d assigned=%-5llu completed=%-5llu "
                      "stolen-in=%-3llu stolen-out=%-3llu gpu %5.1f%% "
                      "cpu %5.1f%%\n",
                      W.Index, static_cast<unsigned long long>(W.Assigned),
                      static_cast<unsigned long long>(W.Completed),
                      static_cast<unsigned long long>(W.StolenIn),
                      static_cast<unsigned long long>(W.StolenOut),
                      W.GpuUtil * 100, W.CpuUtil * 100);
  if (SloChecked)
    T += formatString("slo: %.3f ms -> %llu violation(s)\n", SloMs,
                      static_cast<unsigned long long>(SloViolations));
  if (Validated)
    T += formatString("validation: %llu failure(s)\n",
                      static_cast<unsigned long long>(ValidationFailures));
  if (CheckEnabled)
    T += formatString("check: %llu error(s), %llu warning(s)\n",
                      static_cast<unsigned long long>(CheckErrors),
                      static_cast<unsigned long long>(CheckWarnings));
  if (RacesEnabled)
    T += formatString("races: %llu finding(s)\n",
                      static_cast<unsigned long long>(RaceFindings));
  return T;
}

std::string ClusterReport::toCsv() const {
  std::string C = "id,stream,workload,max_groups,large,first_worker,worker,"
                  "stolen,rejected,arrival_ms,start_ms,end_ms,queue_wait_ms,"
                  "service_ms,e2e_ms\n";
  for (const ClusterJobRecord &R : Jobs) {
    if (R.Rejected) {
      C += formatString("%llu,%d,%s,%llu,%d,%d,%d,%d,1,%.6f,,,,,\n",
                        static_cast<unsigned long long>(R.Id), R.Stream,
                        R.Workload.c_str(),
                        static_cast<unsigned long long>(R.MaxGroups),
                        R.Large ? 1 : 0, R.FirstWorker, R.Worker,
                        R.Stolen ? 1 : 0, R.ArrivalAt.nanos() * 1e-6);
      continue;
    }
    C += formatString(
        "%llu,%d,%s,%llu,%d,%d,%d,%d,0,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
        static_cast<unsigned long long>(R.Id), R.Stream, R.Workload.c_str(),
        static_cast<unsigned long long>(R.MaxGroups), R.Large ? 1 : 0,
        R.FirstWorker, R.Worker, R.Stolen ? 1 : 0, R.ArrivalAt.nanos() * 1e-6,
        R.StartAt.nanos() * 1e-6, R.EndAt.nanos() * 1e-6, R.queueWaitMs(),
        R.serviceMs(), R.e2eMs());
  }
  return C;
}
