//===- support/ArgParser.cpp - Tiny command-line parser --------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <type_traits>

using namespace fcl;

ArgParser::ArgParser(std::string ProgramName, std::string Summary)
    : ProgramName(std::move(ProgramName)), Summary(std::move(Summary)) {}

void ArgParser::addFlag(const std::string &Name, const std::string &Help) {
  Decl D;
  D.Help = Help;
  D.IsFlag = true;
  D.Value = "0";
  FCL_CHECK(Decls.emplace(Name, std::move(D)).second, "duplicate option");
  Order.push_back(Name);
}

void ArgParser::addOption(const std::string &Name, const std::string &Help,
                          const std::string &Default) {
  Decl D;
  D.Help = Help;
  D.Value = Default;
  FCL_CHECK(Decls.emplace(Name, std::move(D)).second, "duplicate option");
  Order.push_back(Name);
}

bool ArgParser::parse(int Argc, const char *const *Argv) {
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      HelpRequested = true;
      continue;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }
    auto It = Decls.find(Name);
    if (It == Decls.end()) {
      Error = formatString("unknown option '--%s'", Name.c_str());
      return false;
    }
    Decl &D = It->second;
    if (D.IsFlag) {
      if (HasValue) {
        Error = formatString("flag '--%s' takes no value", Name.c_str());
        return false;
      }
      D.Value = "1";
      D.Given = true;
      continue;
    }
    if (!HasValue) {
      if (I + 1 >= Argc) {
        Error = formatString("option '--%s' needs a value", Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    D.Value = Value;
    D.Given = true;
  }
  return true;
}

const ArgParser::Decl &ArgParser::get(const std::string &Name) const {
  auto It = Decls.find(Name);
  if (It == Decls.end())
    fatalError(__FILE__, __LINE__,
               formatString("undeclared option '%s'", Name.c_str()).c_str());
  return It->second;
}

bool ArgParser::flag(const std::string &Name) const {
  return get(Name).Value == "1";
}

const std::string &ArgParser::str(const std::string &Name) const {
  return get(Name).Value;
}

int64_t ArgParser::i64(const std::string &Name) const {
  return std::strtoll(get(Name).Value.c_str(), nullptr, 10);
}

double ArgParser::f64(const std::string &Name) const {
  return std::strtod(get(Name).Value.c_str(), nullptr);
}

template <class T>
bool ArgParser::number(const std::string &Name, T &Out, T Min, T Max,
                       bool MinExclusive) const {
  const std::string &V = str(Name);
  char *End = nullptr;
  T X;
  bool Representable;
  std::string Need;
  if constexpr (std::is_integral_v<T>) {
    errno = 0;
    X = std::strtoll(V.c_str(), &End, 10);
    Representable = errno != ERANGE;
    Need = formatString("an integer in %c%lld, %lld]",
                        MinExclusive ? '(' : '[', static_cast<long long>(Min),
                        static_cast<long long>(Max));
  } else {
    X = std::strtod(V.c_str(), &End);
    Representable = std::isfinite(X);
    Need = Max == std::numeric_limits<T>::max()
               ? formatString("a number %s %g", MinExclusive ? ">" : ">=", Min)
               : formatString("a number in %c%g, %g]",
                              MinExclusive ? '(' : '[', Min, Max);
  }
  if (!V.empty() && *End == '\0' && Representable &&
      (MinExclusive ? X > Min : X >= Min) && X <= Max) {
    Out = X;
    return true;
  }
  Error = formatString("bad --%s value '%s' (need %s)", Name.c_str(),
                       V.c_str(), Need.c_str());
  return false;
}

template bool ArgParser::number<int64_t>(const std::string &, int64_t &,
                                         int64_t, int64_t, bool) const;
template bool ArgParser::number<double>(const std::string &, double &, double,
                                        double, bool) const;

bool ArgParser::given(const std::string &Name) const {
  return get(Name).Given;
}

std::string ArgParser::helpText() const {
  std::string Out = ProgramName + " - " + Summary + "\n\noptions:\n";
  for (const std::string &Name : Order) {
    const Decl &D = Decls.at(Name);
    std::string Left = "  --" + Name + (D.IsFlag ? "" : "=<value>");
    Out += formatString("%-32s %s", Left.c_str(), D.Help.c_str());
    if (!D.IsFlag && !D.Value.empty())
      Out += formatString(" (default: %s)", D.Value.c_str());
    Out += '\n';
  }
  Out += "  --help                           show this help\n";
  return Out;
}
