//===- prof/BenchReport.cpp - Host benchmark reports ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "prof/BenchReport.h"

#include "support/File.h"
#include "support/JsonWriter.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace fcl;
using namespace fcl::prof;

uint64_t fcl::prof::peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(Usage.ru_maxrss); // Bytes on macOS.
#else
  return static_cast<uint64_t>(Usage.ru_maxrss) * 1024; // KiB on Linux.
#endif
#else
  return 0;
#endif
}

void BenchReport::attachProfile(const Snapshot &S, size_t N) {
  Profile = S.topByExclusive(N);
  Counters = S.Counters;
}

std::string BenchReport::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema").value("fcl-bench-report-v1");
  W.key("name").value(Name);
  W.key("suite").value(Suite);
  W.members("meta", Meta);
  W.members("metrics", Metrics, "%.9g");
  W.key("peak_rss_bytes").value(PeakRss);
  W.key("profile").beginArray();
  for (const PhaseStats &P : Profile) {
    W.beginObject(JsonWriter::Layout::Inline);
    W.key("path").value(P.Path);
    W.key("count").value(P.Count);
    W.key("inclusive_ms").value(P.inclusiveMs());
    W.key("exclusive_ms").value(P.exclusiveMs());
    W.end();
  }
  W.end();
  W.members("counters", Counters);
  W.end();
  return W.str();
}

bool BenchReport::write(const std::string &Path) const {
  return writeFile(Path, toJson());
}
