//===- support/ArgParser.h - Tiny command-line parser -----------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal declarative command-line parser for the tools: long options
/// only ("--name=value" or "--name value" for valued options, "--name" for
/// booleans), with typed accessors, defaults, and generated --help text.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_ARGPARSER_H
#define FCL_SUPPORT_ARGPARSER_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace fcl {

/// Declarative long-option parser.
class ArgParser {
public:
  explicit ArgParser(std::string ProgramName, std::string Summary);

  /// Declares a boolean flag (present => true).
  void addFlag(const std::string &Name, const std::string &Help);

  /// Declares a string option with a default.
  void addOption(const std::string &Name, const std::string &Help,
                 const std::string &Default);

  /// Parses argv (excluding argv[0]). Returns false (and fills error())
  /// on unknown options or missing values. "--help" sets helpRequested().
  bool parse(int Argc, const char *const *Argv);

  bool helpRequested() const { return HelpRequested; }
  const std::string &error() const { return Error; }

  bool flag(const std::string &Name) const;
  const std::string &str(const std::string &Name) const;
  int64_t i64(const std::string &Name) const;
  double f64(const std::string &Name) const;

  /// Strict numeric accessor (T is int64_t or double): the whole value
  /// must parse - as a base-10 integer, or as a finite number - and lie
  /// in [Min, Max], with Min itself excluded when \p MinExclusive. On
  /// success stores it in \p Out; otherwise leaves \p Out alone, sets
  /// error() to one line such as "bad --chunk value 'abc' (need a number
  /// in (0, 100])" and returns false.
  template <class T>
  bool number(const std::string &Name, T &Out, T Min,
              T Max = std::numeric_limits<T>::max(),
              bool MinExclusive = false) const;

  /// True when the option was given explicitly (not defaulted).
  bool given(const std::string &Name) const;

  /// Positional arguments (everything not starting with "--").
  const std::vector<std::string> &positional() const { return Positional; }

  /// Generated usage text.
  std::string helpText() const;

private:
  struct Decl {
    std::string Help;
    std::string Value;
    bool IsFlag = false;
    bool Given = false;
  };

  const Decl &get(const std::string &Name) const;

  std::string ProgramName;
  std::string Summary;
  std::map<std::string, Decl> Decls;
  std::vector<std::string> Order;
  std::vector<std::string> Positional;
  /// The last parse() or number() failure.
  mutable std::string Error;
  bool HelpRequested = false;
};

} // namespace fcl

#endif // FCL_SUPPORT_ARGPARSER_H
