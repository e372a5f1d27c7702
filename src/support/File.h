//===- support/File.h - Whole-file output -----------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one function every report, CSV and trace writer goes through, so a
/// full disk or a missing directory fails the same way everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_FILE_H
#define FCL_SUPPORT_FILE_H

#include <string>

namespace fcl {

/// Replaces the contents of \p Path with \p Text. False when the file cannot
/// be opened, written in full or closed (the close flushes, so this is where
/// a full device shows up).
bool writeFile(const std::string &Path, const std::string &Text);

} // namespace fcl

#endif // FCL_SUPPORT_FILE_H
