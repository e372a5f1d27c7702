//===- perfbench/AllocCounter.h - Counting global operator new --*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary replaces the global operator new/delete with
/// versions that tally allocations when armed. Tallies are per thread (the
/// cluster workload allocates from three threads at once) and fold into
/// process-wide totals when a thread exits. Disarmed, an allocation costs
/// one relaxed atomic load on top of malloc.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PERFBENCH_ALLOCCOUNTER_H
#define FCL_PERFBENCH_ALLOCCOUNTER_H

#include <cstdint>

namespace perfbench {

struct AllocTally {
  uint64_t Allocs = 0;
  uint64_t Bytes = 0;
};

/// Starts or stops counting (process-wide).
void setAllocCounting(bool On);

/// Totals over exited threads plus the calling thread. Call it from the
/// main thread once worker threads have joined.
AllocTally allocTotals();

} // namespace perfbench

#endif // FCL_PERFBENCH_ALLOCCOUNTER_H
