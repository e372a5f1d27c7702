//===- tools/fluidicl_serve.cpp - Multi-tenant serving driver --------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the fcl::serve engine: N concurrent client streams submitting
/// Polybench jobs over the simulated CPU+GPU pair under a chosen
/// scheduling policy, and prints a throughput/latency report.
///
///   fluidicl_serve --streams=8 --policy=corun --arrival=poisson:120
///       --duration=0.25 --slo-ms=20 --stats-json=serve.json
///
/// Exit status: 0 on success, 1 on usage errors, 2 when --slo-ms was given
/// and any completed request missed the SLO, 3 on validation failures
/// (--functional --validate), 4 on check error diagnostics under
/// --check=fail, 5 on race findings under --races=fail.
///
//===----------------------------------------------------------------------===//

#include "ServeCli.h"

#include <cstdio>

using namespace fcl;

int main(int Argc, char **Argv) {
  ArgParser Args("fluidicl_serve",
                 "multi-tenant kernel-stream serving over the simulated "
                 "CPU+GPU pair");
  const servecli::Tool Serve{};
  servecli::addFlags(Args, Serve);
  Args.addFlag("dag-stats",
               "print the DAG shape table of the chosen mix and exit");
  serve::EngineConfig Cfg;
  if (std::optional<int> Rc =
          servecli::parseFlags(Args, Argc, Argv, Serve, Cfg))
    return *Rc;

  if (Args.flag("dag-stats")) {
    // Deterministic shape table of the mix's templates; compound ones get
    // their graph metrics, plain ones a "-" row.
    std::printf("%-14s %-8s %5s %5s %5s %9s\n", "template", "shape", "nodes",
                "edges", "width", "groups");
    for (const serve::JobTemplate &T : serve::jobTemplates(Cfg.Mix)) {
      if (T.Dag)
        std::printf("%-14s %-8s %5zu %5zu %5zu %9llu\n", T.W.Name.c_str(),
                    T.Dag->shapeName(), T.Dag->size(), T.Dag->numEdges(),
                    T.Dag->maxParallelism(),
                    static_cast<unsigned long long>(T.MaxGroups));
      else
        std::printf("%-14s %-8s %5zu %5s %5s %9llu\n", T.W.Name.c_str(), "-",
                    T.W.Calls.size(), "-", "-",
                    static_cast<unsigned long long>(T.MaxGroups));
    }
    return 0;
  }

  servecli::Outputs Out(Args, Serve, Cfg);
  serve::Engine Engine(Cfg);
  return Out.finish(Engine.run());
}
