//===- perfbench/Spans.cpp - Benchmark-side span recorder -----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "prof/Profiler.h"

#include <cstdio>

using namespace perfbench;

SpanRecorder &SpanRecorder::instance() {
  static SpanRecorder R;
  return R;
}

int64_t SpanRecorder::open(const char *Name, uint64_t JobId) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.JobId = JobId;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = fcl::prof::wallNowNs();
  All.push_back(S);
  Open.push_back(static_cast<int64_t>(All.size()) - 1);
  return Open.back();
}

void SpanRecorder::close(int64_t Idx) {
  if (Idx < 0)
    return;
  All[static_cast<size_t>(Idx)].EndNs = fcl::prof::wallNowNs();
  Open.pop_back();
}

std::vector<double> SpanRecorder::durationsNs(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : All)
    if (Name == S.Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
  return Out;
}

double SpanRecorder::selfNs(const std::string &Name) const {
  // Children are recorded after their parent and close before it, so one
  // pass that subtracts each span from its parent yields self times.
  std::vector<int64_t> Self(All.size());
  for (size_t I = 0; I < All.size(); ++I)
    Self[I] = All[I].EndNs - All[I].StartNs;
  for (const Span &S : All)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
  double Sum = 0;
  for (size_t I = 0; I < All.size(); ++I)
    if (Name == All[I].Name)
      Sum += static_cast<double>(Self[I]);
  return Sum;
}

bool SpanRecorder::write(const std::string &Path,
                         const std::string &Fingerprint) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\"schema\":\"fcl-perfbench-spans-v1\",\"fingerprint\":{%s},"
               "\"spans\":[",
               Fingerprint.c_str());
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"job\":%llu}",
                 I ? "," : "", I, S.Name, static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.JobId));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
