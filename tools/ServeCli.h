//===- tools/ServeCli.h - Shared flag and result block ----------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line surface fluidicl_serve and fluidicl_cluster share: the
/// serve::EngineConfig flags (declaration and validation) and the result
/// tail (text report, --prof, the JSON/CSV/trace writers and exit codes
/// 2-5). Each tool declares only its own flags around this block.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_TOOLS_SERVECLI_H
#define FCL_TOOLS_SERVECLI_H

#include "serve/Engine.h"
#include "support/ArgParser.h"
#include "trace/Tracer.h"

#include <cstdio>
#include <functional>
#include <optional>
#include <string>

namespace fcl {
namespace servecli {

/// What differs between the two tools inside the shared block.
struct Tool {
  /// Accept closed-loop arrivals; the cluster rejects them (think loops
  /// would couple worker clocks).
  bool ClosedLoops = true;
  /// Flag naming the compound (DAG) node placement.
  const char *DagPlacementFlag = "placement";
  /// Flag naming the per-request / per-job CSV path.
  const char *CsvFlag = "requests-csv";
  /// One CSV row / SLO violation: "request" or "job".
  const char *Unit = "request";
};

/// Declares the shared flags (after any the tool declared first).
void addFlags(ArgParser &Args, const Tool &T);

/// Parses the command line and fills \p Cfg from the shared flags.
/// Returns the exit code when the tool must stop here: 0 after --help,
/// 1 on a usage error (one "error: ..." line on stderr).
std::optional<int> parseFlags(ArgParser &Args, int Argc, char **Argv,
                              const Tool &T, serve::EngineConfig &Cfg);

/// Strict non-negative number flag: the whole value must parse; otherwise
/// prints one usage-error line and returns false.
bool nonNegativeFlag(const ArgParser &Args, const char *Name, double &Out);

/// The output side of one run. Construct it before the run: it wires
/// --trace into the configuration and starts the --prof profiler.
class Outputs {
public:
  Outputs(const ArgParser &Args, const Tool &T, serve::EngineConfig &Cfg);

  /// Prints the text report (and the profile), writes the JSON/CSV/trace
  /// files and returns the exit code: 1 when a file cannot be written,
  /// then 3 on validation failures, 2 on SLO violations, 4 on check
  /// errors under --check=fail, 5 on race findings under --races=fail.
  template <class ReportT> int finish(const ReportT &R);

private:
  void stopProfile();
  /// Writes \p Contents() to the path given by \p Flag, if any; false
  /// (after one "error: cannot write <path>" line) when it cannot.
  bool write(const char *Flag, const std::string &What,
             const std::function<std::string()> &Contents);

  const ArgParser &Args;
  Tool T;
  const serve::EngineConfig &Cfg;
  trace::Tracer Tracer;
};

template <class ReportT> int Outputs::finish(const ReportT &R) {
  std::printf("%s", R.toText().c_str());
  stopProfile();
  if (!write("stats-json", "report JSON", [&R] { return R.toJson(); }) ||
      !write(T.CsvFlag, std::string(T.Unit) + " CSV",
             [&R] { return R.toCsv(); }) ||
      !write("trace", "trace", [this] { return Tracer.renderChromeTrace(); }))
    return 1;

  if (R.Validated && R.ValidationFailures > 0) {
    std::fprintf(stderr, "FAIL: %llu job(s) produced wrong results\n",
                 static_cast<unsigned long long>(R.ValidationFailures));
    return 3;
  }
  if (R.SloChecked && R.SloViolations > 0) {
    std::fprintf(stderr, "FAIL: %llu %s(s) exceeded the %.3f ms SLO\n",
                 static_cast<unsigned long long>(R.SloViolations), T.Unit,
                 R.SloMs);
    return 2;
  }
  if (Cfg.FclOpts.Check == check::Policy::Fail && R.CheckErrors > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu check error diagnostic(s) under --check=fail\n",
                 static_cast<unsigned long long>(R.CheckErrors));
    return 4;
  }
  if (Cfg.Races == check::Policy::Fail && R.RaceFindings > 0) {
    std::fprintf(stderr, "FAIL: %llu race finding(s) under --races=fail\n",
                 static_cast<unsigned long long>(R.RaceFindings));
    return 5;
  }
  return 0;
}

} // namespace servecli
} // namespace fcl

#endif // FCL_TOOLS_SERVECLI_H
