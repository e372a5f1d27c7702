//===- support/JsonWriter.cpp - Deterministic JSON documents --------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/JsonWriter.h"

#include "support/Error.h"
#include "support/Format.h"

using namespace fcl;

void JsonWriter::element(bool Indent) {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (Stack.empty())
    return;
  Frame &F = Stack.back();
  if (!F.Empty)
    Out += F.L == Layout::Inline ? ", " : ",";
  if (F.L == Layout::Block) {
    Out += '\n';
    if (Indent)
      Out.append(2 * Stack.size(), ' ');
  }
  F.Empty = false;
}

JsonWriter &JsonWriter::open(char Open, char Close, Layout L) {
  element();
  if (!Stack.empty() && Stack.back().L == Layout::Inline)
    L = Layout::Inline;
  Out += Open;
  Stack.push_back({L, Close});
  return *this;
}

JsonWriter &JsonWriter::end() {
  FCL_CHECK(!Stack.empty() && !AfterKey, "json: unbalanced end()");
  Frame F = Stack.back();
  Stack.pop_back();
  if (!F.Empty && F.L == Layout::Block) {
    Out += '\n';
    Out.append(2 * Stack.size(), ' ');
  }
  Out += F.Close;
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  FCL_CHECK(!Stack.empty() && Stack.back().Close == '}' && !AfterKey,
            "json: key outside an object");
  scalar('"' + jsonEscape(K) + "\": ");
  AfterKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  return scalar('"' + jsonEscape(S) + '"');
}

JsonWriter &JsonWriter::value(double V, const char *Fmt) {
  return scalar(formatString(Fmt, V));
}

JsonWriter &JsonWriter::scalar(std::string_view Text) {
  element();
  Out += Text;
  return *this;
}

JsonWriter &JsonWriter::raw(std::string_view Doc) {
  element(/*Indent=*/false);
  if (!Doc.empty() && Doc.back() == '\n')
    Doc.remove_suffix(1);
  Out += Doc;
  return *this;
}

std::string JsonWriter::str() const {
  FCL_CHECK(Stack.empty(), "json: document has open containers");
  return Out + '\n';
}
