//===- support/Csv.h - CSV writer ------------------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal CSV writer. Every bench harness writes its series to a CSV next
/// to the human-readable table so results can be replotted.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_CSV_H
#define FCL_SUPPORT_CSV_H

#include <string>
#include <vector>

namespace fcl {

/// Accumulates rows and writes an RFC-4180-ish CSV file.
class CsvWriter {
public:
  explicit CsvWriter(std::vector<std::string> Header);

  void addRow(std::vector<std::string> Cells);

  /// Renders all rows (header first) as CSV text.
  std::string render() const;

  /// Writes the CSV to \p Path (see fcl::writeFile); false if it cannot be
  /// written, in which case the file may be partial.
  bool writeFile(const std::string &Path) const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace fcl

#endif // FCL_SUPPORT_CSV_H
