//===- support/JsonWriter.h - Deterministic JSON documents ------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON writer behind every report (run, serve, cluster, bench).
/// Members come out in the order the caller writes them; block containers
/// put one element per line, indented two spaces per level; inline
/// containers keep a whole row on one line ({"p50": 1.000000, ...});
/// empty containers render as {} and []; every key and string goes through
/// jsonEscape; doubles print with one fixed printf format, "%.6f" unless
/// the caller names another. Same values in, same bytes out - the
/// determinism gates byte-diff same-seed reports.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_JSONWRITER_H
#define FCL_SUPPORT_JSONWRITER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fcl {

/// Builds one JSON document front to back. Open a container, write keys
/// (inside objects) and values, close it with end(), then take str().
class JsonWriter {
public:
  /// Block: one element per indented line. Inline: the whole container on
  /// one line; everything nested inside it is inline too.
  enum class Layout { Block, Inline };

  JsonWriter &beginObject(Layout L = Layout::Block) {
    return open('{', '}', L);
  }
  JsonWriter &beginArray(Layout L = Layout::Block) {
    return open('[', ']', L);
  }
  /// Closes the innermost open container.
  JsonWriter &end();

  /// Names the next value (objects only).
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(bool B) { return scalar(B ? "true" : "false"); }
  JsonWriter &value(int V) { return scalar(std::to_string(V)); }
  JsonWriter &value(uint64_t V) { return scalar(std::to_string(V)); }
  /// \p Fmt is the printf conversion for this one value.
  JsonWriter &value(double V, const char *Fmt = "%.6f");

  /// Writes \p K as a block object holding \p M's entries in iteration
  /// order (sorted, for a std::map); \p Fmt as for value(double).
  template <class MapT, class... FmtT>
  JsonWriter &members(std::string_view K, const MapT &M, FmtT... Fmt) {
    key(K).beginObject();
    for (const auto &[Name, V] : M)
      key(Name).value(V, Fmt...);
    return end();
  }

  /// Splices a rendered document (a str() result) in as the next element,
  /// verbatim minus its final newline: it is not re-indented, so it keeps
  /// its own columns.
  JsonWriter &raw(std::string_view Doc);

  /// The finished document, newline-terminated.
  std::string str() const;

private:
  struct Frame {
    Layout L;
    char Close;
    bool Empty = true;
  };

  /// Writes what precedes the next key or value: the separator, and in a
  /// block container a line break plus (when \p Indent) the indentation.
  void element(bool Indent = true);
  JsonWriter &open(char Open, char Close, Layout L);
  JsonWriter &scalar(std::string_view Text);

  std::string Out;
  std::vector<Frame> Stack;
  bool AfterKey = false;
};

} // namespace fcl

#endif // FCL_SUPPORT_JSONWRITER_H
