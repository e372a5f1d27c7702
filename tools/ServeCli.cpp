//===- tools/ServeCli.cpp - Shared flag and result block ------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ServeCli.h"

#include "prof/Profiler.h"
#include "support/File.h"
#include "support/Format.h"

#include <climits>

using namespace fcl;
using namespace fcl::servecli;

void fcl::servecli::addFlags(ArgParser &Args, const Tool &T) {
  Args.addOption("streams", "number of concurrent client streams", "8");
  Args.addOption("policy", "dispatch policy: fifo|affine|corun", "corun");
  Args.addOption("arrival",
                 T.ClosedLoops ? "arrival process: poisson:<rps>|uniform:"
                                 "<rps>|closed:<think-ms> (per stream)"
                               : "arrival process: poisson:<rps>|uniform:"
                                 "<rps> (per stream)",
                 "poisson:120");
  Args.addOption("duration", "admission window in seconds", "0.25");
  Args.addOption("seed", "load-generator seed", "1");
  Args.addOption("queue-depth", "admission queue bound (backpressure)",
                 "64");
  Args.addOption("threshold",
                 "work-group count at/above which a job is 'large'", "64");
  Args.addOption("mix", "job mix: mixed|small|large|pipeline", "mixed");
  Args.addOption(T.DagPlacementFlag,
                 "compound (DAG) node placement: residency|blind "
                 "(pipeline mix)",
                 "residency");
  Args.addOption("machine",
                 std::string("simulated machine: ") + hw::machineNames(),
                 "paper");
  Args.addOption("slo-ms",
                 "end-to-end SLO in ms; exit 2 on any violation (0 = off)",
                 "0");
  Args.addOption("stats-json", "write the report JSON here", "");
  Args.addOption(T.CsvFlag, std::string("write per-") + T.Unit + " CSV here",
                 "");
  Args.addOption("trace", "write a Chrome/Perfetto trace here", "");
  Args.addOption("check",
                 "fluidic-safety checking in every cooperative job's "
                 "runtime: off|warn|fail (fail -> exit 4 on error "
                 "diagnostics)",
                 "off");
  Args.addOption("races",
                 "happens-before race analysis over the whole run: "
                 "off|warn|fail (fail -> exit 5 on findings; never "
                 "perturbs the report bytes)",
                 "off");
  Args.addFlag("functional", "execute kernels for real");
  Args.addFlag("prof",
               "collect a wall-clock host profile and print the top "
               "self-time phases (never affects the simulated results)");
  Args.addFlag("validate",
               "validate every job's results (needs --functional)");
}

namespace {

bool usageError(const std::string &Msg) {
  std::fprintf(stderr, "error: %s\n", Msg.c_str());
  return false;
}

bool parseConfig(const ArgParser &Args, const Tool &T,
                 serve::EngineConfig &Cfg) {
  Cfg.MachineName = Args.str("machine");
  if (!hw::machineByName(Cfg.MachineName, Cfg.M))
    return usageError(formatString("unknown --machine '%s' (expected %s)",
                                   Cfg.MachineName.c_str(),
                                   hw::machineNames()));
  if (!serve::parsePolicy(Args.str("policy"), Cfg.P))
    return usageError(
        formatString("unknown --policy '%s' (fifo|affine|corun)",
                     Args.str("policy").c_str()));
  std::string Err;
  if (!serve::parseArrivalSpec(Args.str("arrival"), Cfg.Arrival, Err))
    return usageError(Err);
  if (!T.ClosedLoops && Cfg.Arrival.Kind == serve::ArrivalKind::Closed)
    return usageError("--arrival=closed:* is not supported by the cluster "
                      "(think loops would couple worker clocks)");
  if (!serve::parseMix(Args.str("mix"), Cfg.Mix))
    return usageError(
        formatString("unknown --mix '%s' (mixed|small|large|pipeline)",
                     Args.str("mix").c_str()));
  if (!dag::parsePlacement(Args.str(T.DagPlacementFlag), Cfg.DagPlace))
    return usageError(formatString("unknown --%s '%s' (residency|blind)",
                                   T.DagPlacementFlag,
                                   Args.str(T.DagPlacementFlag).c_str()));
  if (Args.flag("validate") && !Args.flag("functional"))
    return usageError("--validate requires --functional");
  Cfg.Mode = Args.flag("functional") ? mcl::ExecMode::Functional
                                     : mcl::ExecMode::TimingOnly;
  Cfg.Validate = Args.flag("validate");
  if (!check::parsePolicy(Args.str("check"), Cfg.FclOpts.Check))
    return usageError(formatString("bad --check value '%s' (off|warn|fail)",
                                   Args.str("check").c_str()));
  if (!check::parsePolicy(Args.str("races"), Cfg.Races))
    return usageError(formatString("bad --races value '%s' (off|warn|fail)",
                                   Args.str("races").c_str()));
  // The engine FCL_CHECKs a positive depth; a negative threshold would
  // wrap to "every job is small". The horizon must last at least one
  // simulated nanosecond.
  int64_t Streams = 0, Seed = 0, QueueDepth = 0, Threshold = 0;
  double Seconds = 0;
  if (!Args.number<int64_t>("streams", Streams, 1, INT_MAX) ||
      !Args.number<int64_t>("seed", Seed, 0) ||
      !Args.number("duration", Seconds, 1e-9) ||
      !Args.number("slo-ms", Cfg.SloMs, 0.0) ||
      !Args.number<int64_t>("queue-depth", QueueDepth, 1, INT_MAX) ||
      !Args.number<int64_t>("threshold", Threshold, 0))
    return usageError(Args.error());
  Cfg.Streams = static_cast<int>(Streams);
  Cfg.Seed = static_cast<uint64_t>(Seed);
  Cfg.Horizon = Duration::seconds(Seconds);
  Cfg.QueueDepth = static_cast<int>(QueueDepth);
  Cfg.LargeThreshold = static_cast<uint64_t>(Threshold);
  return true;
}

} // namespace

std::optional<int> fcl::servecli::parseFlags(ArgParser &Args, int Argc,
                                             char **Argv, const Tool &T,
                                             serve::EngineConfig &Cfg) {
  if (!Args.parse(Argc - 1, Argv + 1)) {
    std::fprintf(stderr, "error: %s\n%s", Args.error().c_str(),
                 Args.helpText().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    std::printf("%s", Args.helpText().c_str());
    return 0;
  }
  if (!parseConfig(Args, T, Cfg))
    return 1;
  return std::nullopt;
}

Outputs::Outputs(const ArgParser &Args, const Tool &T,
                 serve::EngineConfig &Cfg)
    : Args(Args), T(T), Cfg(Cfg) {
  if (!Args.str("trace").empty())
    Cfg.Tracer = &Tracer;
  if (Args.flag("prof"))
    prof::Profiler::instance().setEnabled(true);
}

void Outputs::stopProfile() {
  if (!Args.flag("prof"))
    return;
  prof::Profiler::instance().setEnabled(false);
  prof::Snapshot Snap = prof::Profiler::instance().snapshot();
  std::printf("\n%s", Snap.renderText(/*TopN=*/10).c_str());
  if (!Args.str("trace").empty())
    Tracer.annotateProfile(Snap);
}

bool Outputs::write(const char *Flag, const std::string &What,
                    const std::function<std::string()> &Contents) {
  const std::string &Path = Args.str(Flag);
  if (Path.empty())
    return true;
  if (!writeFile(Path, Contents())) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("%s written to %s\n", What.c_str(), Path.c_str());
  return true;
}
