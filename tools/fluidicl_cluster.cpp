//===- tools/fluidicl_cluster.cpp - Sharded multi-pair serve driver -------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the fcl::cluster tier: a master shards kernel streams across N
/// worker pairs (one serve engine + private simulator + OS thread each),
/// with epoch-barrier work stealing, and prints a cluster-level
/// throughput/latency report. Same seed, same configuration =>
/// byte-identical report at any worker count, by construction.
///
///   fluidicl_cluster --workers=4 --placement=least --steal=on
///       --streams=16 --policy=corun --arrival=poisson:400
///       --duration=0.25 --stats-json=cluster.json
///
/// Exit status: 0 on success, 1 on usage errors, 2 when --slo-ms was given
/// and any completed job missed the SLO, 3 on validation failures
/// (--functional --validate), 4 on check error diagnostics under
/// --check=fail, 5 on race findings under --races=fail.
///
//===----------------------------------------------------------------------===//

#include "ServeCli.h"
#include "cluster/Cluster.h"

#include <cstdio>

using namespace fcl;

int main(int Argc, char **Argv) {
  ArgParser Args("fluidicl_cluster",
                 "sharded multi-pair serving: a master shards the "
                 "--streams client streams across N simulated CPU+GPU "
                 "worker pairs, each configured by the serving flags");
  Args.addOption("workers", "worker pairs (one thread + simulator each)",
                 "2");
  Args.addOption("placement", "placement policy: hash|least|size", "least");
  Args.addOption("steal", "epoch-boundary work stealing: on|off", "on");
  Args.addOption("quantum-ms", "fabric epoch quantum in simulated ms", "1");
  Args.addOption("link-us",
                 "simulated link latency per stolen-job transfer in us",
                 "20");
  const servecli::Tool Cluster{/*ClosedLoops=*/false, "dag-placement",
                               "jobs-csv", "job"};
  servecli::addFlags(Args, Cluster);
  cluster::ClusterConfig Cfg;
  if (std::optional<int> Rc =
          servecli::parseFlags(Args, Argc, Argv, Cluster, Cfg.Worker))
    return *Rc;

  Cfg.Workers = static_cast<int>(Args.i64("workers"));
  if (Cfg.Workers <= 0 || Cfg.Workers > 64) {
    std::fprintf(stderr, "error: --workers must be in [1, 64]\n");
    return 1;
  }
  if (!cluster::parsePlacement(Args.str("placement"), Cfg.Place)) {
    std::fprintf(stderr,
                 "error: unknown --placement '%s' (hash|least|size)\n",
                 Args.str("placement").c_str());
    return 1;
  }
  std::string Steal = Args.str("steal");
  if (Steal != "on" && Steal != "off") {
    std::fprintf(stderr, "error: bad --steal value '%s' (on|off)\n",
                 Steal.c_str());
    return 1;
  }
  Cfg.Steal = Steal == "on";
  Cfg.Quantum = Duration::seconds(Args.f64("quantum-ms") * 1e-3);
  if (Cfg.Quantum <= Duration::zero()) {
    std::fprintf(stderr, "error: need positive --quantum-ms\n");
    return 1;
  }
  double LinkUs = 0;
  if (!Args.number("link-us", LinkUs, 0.0)) {
    std::fprintf(stderr, "error: %s\n", Args.error().c_str());
    return 1;
  }
  Cfg.LinkLatency = Duration::seconds(LinkUs * 1e-6);

  servecli::Outputs Out(Args, Cluster, Cfg.Worker);
  cluster::Cluster Tier(Cfg);
  return Out.finish(Tier.run());
}
