//===- mcl/CommandQueue.cpp - In-order command queues ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/CommandQueue.h"

#include "mcl/Buffer.h"
#include "mcl/Context.h"
#include "mcl/Device.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Log.h"
#include "trace/Tracer.h"

#include <cstring>
#include <utility>
#include <vector>

using namespace fcl;
using namespace fcl::mcl;

namespace {

enum class CommandKind {
  Write,
  Read,
  Copy,
  Launch,
  Callback,
};

} // namespace

struct CommandQueue::Command {
  CommandKind Kind;
  EventPtr Done;
  TimePoint StartedAt; // For tracing (includes channel-wait time).
  // Write/Read/Copy.
  Buffer *Src = nullptr;
  Buffer *Dst = nullptr;
  void *HostDst = nullptr;
  std::vector<std::byte> HostSrcCopy; // Captured write payload.
  uint64_t Bytes = 0;
  uint64_t Offset = 0;
  // Launch.
  LaunchDesc Launch;
  // Callback.
  std::function<void()> Fn;
};

CommandQueue::CommandQueue(Context &Ctx, Device &Dev, std::string DebugName)
    : Ctx(Ctx), Dev(Dev), DebugName(std::move(DebugName)) {}

CommandQueue::~CommandQueue() {
  // Commands hold only non-owning references; destroying a queue with
  // pending commands is a bug in the caller.
  FCL_CHECK(idle(), "command queue destroyed while commands pending");
}

EventPtr CommandQueue::enqueue(Command Cmd) {
  EventPtr Done = std::make_shared<Event>(Ctx);
  Cmd.Done = Done;
  Pending.push_back(std::move(Cmd));
  if (Pending.size() == 1)
    startHead();
  return Done;
}

void CommandQueue::traceCommand(const Command &Cmd) const {
  trace::Tracer *T = Ctx.tracer();
  if (!T)
    return;
  bool IsGpu = Dev.kind() == DeviceKind::Gpu;
  std::string Lane, Name;
  switch (Cmd.Kind) {
  case CommandKind::Write:
    Lane = IsGpu ? "PCIe H2D" : "HostCopy H2D";
    Name = formatString("write %s (%llu B)",
                        Cmd.Dst ? Cmd.Dst->debugName().c_str() : "?",
                        static_cast<unsigned long long>(Cmd.Bytes));
    break;
  case CommandKind::Read:
    Lane = IsGpu ? "PCIe D2H" : "HostCopy D2H";
    Name = formatString("read %s (%llu B)",
                        Cmd.Src ? Cmd.Src->debugName().c_str() : "?",
                        static_cast<unsigned long long>(Cmd.Bytes));
    break;
  case CommandKind::Copy:
    Lane = Dev.name() + " copy";
    Name = formatString("copy %s -> %s",
                        Cmd.Src ? Cmd.Src->debugName().c_str() : "?",
                        Cmd.Dst ? Cmd.Dst->debugName().c_str() : "?");
    break;
  case CommandKind::Launch: {
    Lane = Dev.name();
    uint64_t Begin = Cmd.Launch.clampedBegin();
    uint64_t End = Cmd.Launch.clampedEnd();
    Name = Cmd.Launch.Kernel->Name;
    if (Begin != 0 || End != Cmd.Launch.Range.totalGroups())
      Name += formatString(" [%llu,%llu)",
                           static_cast<unsigned long long>(Begin),
                           static_cast<unsigned long long>(End));
    break;
  }
  case CommandKind::Callback:
    return; // Zero-duration bookkeeping; not worth a slice.
  }
  T->record(std::move(Lane), std::move(Name), Cmd.StartedAt, Ctx.now(),
            "queue=" + DebugName);
}

void CommandQueue::startHead() {
  sim::Simulator &Sim = Ctx.simulator();
  Command &Cmd = Pending.front();
  Cmd.StartedAt = Ctx.now();
  switch (Cmd.Kind) {
  case CommandKind::Write:
  case CommandKind::Read: {
    TimePoint End = Dev.scheduleTransfer(Cmd.Kind == CommandKind::Write
                                             ? TransferDir::HostToDevice
                                             : TransferDir::DeviceToHost,
                                         Cmd.Bytes);
    Ctx.noteTransferStart();
    Sim.scheduleAt(End, [this] { completeHead(); });
    return;
  }
  case CommandKind::Copy:
    Sim.scheduleAfter(Dev.copyDuration(Cmd.Bytes), [this] { completeHead(); });
    return;
  case CommandKind::Launch:
    Dev.executeLaunch(Cmd.Launch,
                      [this](uint64_t Executed) { completeHead(Executed); });
    return;
  case CommandKind::Callback:
    // Runs as its own simulator event so completion callbacks observe a
    // consistent queue state.
    Sim.scheduleAfter(Duration::zero(), [this] { completeHead(); });
    return;
  }
  FCL_UNREACHABLE("covered switch");
}

void CommandQueue::completeHead(uint64_t Payload) {
  // Commands enqueued from the landing, Fn or Done's subscribers go behind
  // this one: the head leaves the queue only once Done has fired.
  Command &Cmd = Pending.front();
  switch (Cmd.Kind) {
  case CommandKind::Write:
    FCL_LOG_DEBUG("queue %s: write %s lands at t=%lld", DebugName.c_str(),
                  Cmd.Dst->debugName().c_str(), (long long)Ctx.now().nanos());
    if (Cmd.Dst->backed() && !Cmd.HostSrcCopy.empty()) {
      FCL_CHECK(Cmd.Offset + Cmd.Bytes <= Cmd.Dst->size(),
                "write overruns buffer");
      std::memcpy(Cmd.Dst->data() + Cmd.Offset, Cmd.HostSrcCopy.data(),
                  Cmd.Bytes);
    }
    Ctx.noteTransferEnd();
    break;
  case CommandKind::Read:
    FCL_LOG_DEBUG("queue %s: read %s lands at t=%lld", DebugName.c_str(),
                  Cmd.Src->debugName().c_str(), (long long)Ctx.now().nanos());
    if (Cmd.Src->backed() && Cmd.HostDst) {
      FCL_CHECK(Cmd.Offset + Cmd.Bytes <= Cmd.Src->size(),
                "read overruns buffer");
      std::memcpy(Cmd.HostDst, Cmd.Src->data() + Cmd.Offset, Cmd.Bytes);
    }
    Ctx.noteTransferEnd();
    break;
  case CommandKind::Copy:
    if (Cmd.Src->backed() && Cmd.Dst->backed()) {
      FCL_CHECK(Cmd.Bytes <= Cmd.Src->size() && Cmd.Bytes <= Cmd.Dst->size(),
                "copy overruns buffer");
      std::memcpy(Cmd.Dst->data(), Cmd.Src->data(), Cmd.Bytes);
    }
    break;
  case CommandKind::Launch:
    break;
  case CommandKind::Callback:
    if (Cmd.Fn)
      Cmd.Fn();
    break;
  }
  traceCommand(Cmd);
  Cmd.Done->fire(Payload);
  Pending.pop_front();
  if (!Pending.empty())
    startHead();
}

EventPtr CommandQueue::enqueueWrite(Buffer &Dst, const void *Src,
                                    uint64_t Bytes, uint64_t Offset) {
  FCL_CHECK(&Dst.device() == &Dev, "buffer belongs to another device");
  FCL_CHECK(Offset + Bytes <= Dst.size(), "write overruns buffer");
  Command Cmd;
  Cmd.Kind = CommandKind::Write;
  Cmd.Dst = &Dst;
  Cmd.Bytes = Bytes;
  Cmd.Offset = Offset;
  if (Ctx.functional() && Src) {
    const std::byte *P = static_cast<const std::byte *>(Src);
    Cmd.HostSrcCopy.assign(P, P + Bytes);
  }
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueRead(Buffer &Src, void *Dst, uint64_t Bytes,
                                   uint64_t Offset) {
  FCL_CHECK(&Src.device() == &Dev, "buffer belongs to another device");
  FCL_CHECK(Offset + Bytes <= Src.size(), "read overruns buffer");
  Command Cmd;
  Cmd.Kind = CommandKind::Read;
  Cmd.Src = &Src;
  Cmd.HostDst = Dst;
  Cmd.Bytes = Bytes;
  Cmd.Offset = Offset;
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueCopy(Buffer &Src, Buffer &Dst, uint64_t Bytes) {
  FCL_CHECK(&Src.device() == &Dev && &Dst.device() == &Dev,
            "copy requires both buffers on this device");
  FCL_CHECK(Bytes <= Src.size() && Bytes <= Dst.size(),
            "copy overruns buffer");
  Command Cmd;
  Cmd.Kind = CommandKind::Copy;
  Cmd.Src = &Src;
  Cmd.Dst = &Dst;
  Cmd.Bytes = Bytes;
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueKernel(LaunchDesc Desc) {
  FCL_CHECK(Desc.Kernel != nullptr, "launch without kernel");
  FCL_CHECK(Desc.Kernel->Args.size() == Desc.Args.size(),
            "launch argument arity mismatch");
  Command Cmd;
  Cmd.Kind = CommandKind::Launch;
  Cmd.Launch = std::move(Desc);
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueCallback(std::function<void()> Fn) {
  Command Cmd;
  Cmd.Kind = CommandKind::Callback;
  Cmd.Fn = std::move(Fn);
  return enqueue(std::move(Cmd));
}

void CommandQueue::finish() {
  Ctx.simulator().runWhileNot([this] { return idle(); });
}
