//===- perfbench/Spans.h - Benchmark-side span recorder ---------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around the public calls it makes into each
/// layer: name, host start and end, parent span, and the id of the job (or
/// call) every span of one unit of work shares. Recording is off unless
/// armed; spans stay in memory and are written once, at exit.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PERFBENCH_SPANS_H
#define FCL_PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the recorder, -1 for a root.
  int64_t Parent = -1;
  uint64_t JobId = 0;
};

class SpanRecorder {
public:
  static SpanRecorder &instance();

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  const std::vector<Span> &spans() const { return All; }

  /// Opens a span under the innermost open one; returns its index or -1
  /// when recording is off.
  int64_t open(const char *Name, uint64_t JobId);
  void close(int64_t Idx);

  /// Host nanoseconds inside spans named \p Name, one entry per span.
  std::vector<double> durationsNs(const std::string &Name) const;
  /// Summed self time (duration minus the time direct children cover) of
  /// every span named \p Name.
  double selfNs(const std::string &Name) const;

  /// Writes all spans as one JSON document headed by \p Fingerprint (the
  /// members of a JSON object); false on I/O failure.
  bool write(const std::string &Path, const std::string &Fingerprint) const;

private:
  bool Enabled = false;
  std::vector<Span> All;
  std::vector<int64_t> Open;
};

/// RAII span; a no-op while recording is off.
class SpanScope {
public:
  SpanScope(const char *Name, uint64_t JobId)
      : Idx(SpanRecorder::instance().open(Name, JobId)) {}
  ~SpanScope() { SpanRecorder::instance().close(Idx); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int64_t Idx;
};

} // namespace perfbench

#endif // FCL_PERFBENCH_SPANS_H
