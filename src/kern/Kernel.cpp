//===- kern/Kernel.cpp - Kernel execution helpers --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "kern/Kernel.h"

#include <algorithm>
#include <vector>

using namespace fcl;
using namespace fcl::kern;

void fcl::kern::executeGroups(const KernelInfo &Kernel, const NDRange &Range,
                              const ArgsView &Args, uint64_t Begin,
                              uint64_t End) {
  std::vector<std::byte> Scratch(Kernel.LocalBytes);
  Dim3 Local = Range.localSize();
  uint64_t Items = Range.itemsPerGroup();
  ItemCtx Ctx;
  Ctx.LocalSize = Local;
  Ctx.NumGroups = Range.numGroups();
  Ctx.Local = Scratch.empty() ? nullptr : Scratch.data();
  for (uint64_t Group = Begin; Group < End; ++Group) {
    std::fill(Scratch.begin(), Scratch.end(), std::byte{0});
    Dim3 GroupId = unflattenGroupId(Group, Ctx.NumGroups);
    Ctx.GroupId = GroupId;
    for (int Phase = 0; Phase < Kernel.NumPhases; ++Phase) {
      Ctx.Phase = Phase;
      for (uint64_t Flat = 0; Flat < Items; ++Flat) {
        Ctx.LocalId.X = Flat % Local.X;
        uint64_t Rest = Flat / Local.X;
        Ctx.LocalId.Y = Rest % Local.Y;
        Ctx.LocalId.Z = Rest / Local.Y;
        Ctx.GlobalId.X = GroupId.X * Local.X + Ctx.LocalId.X;
        Ctx.GlobalId.Y = GroupId.Y * Local.Y + Ctx.LocalId.Y;
        Ctx.GlobalId.Z = GroupId.Z * Local.Z + Ctx.LocalId.Z;
        Kernel.Fn(Ctx, Args);
      }
    }
  }
}
