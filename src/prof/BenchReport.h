//===- prof/BenchReport.h - Host resource probes ----------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host resource probes for the repository benchmark (perfbench/), which
/// reports the peak resident set of each run.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PROF_BENCHREPORT_H
#define FCL_PROF_BENCHREPORT_H

#include <cstdint>

namespace fcl {
namespace prof {

/// Peak resident set size of this process, in bytes (0 if unavailable).
uint64_t peakRssBytes();

} // namespace prof
} // namespace fcl

#endif // FCL_PROF_BENCHREPORT_H
