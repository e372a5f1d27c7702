//===- sim/Simulator.cpp - Deterministic discrete-event simulator --------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "prof/Profiler.h"
#include "race/Race.h"
#include "support/Error.h"

#include <cassert>
#include <optional>

using namespace fcl;
using namespace fcl::sim;

// Event-queue churn counters (wall-clock profiler view; the deterministic
// member counters feed the stats registries instead). The hot path only
// bumps plain members; flushProfCounters() publishes the deltas at
// run-loop exit, keeping atomic traffic out of the per-event dispatch.
static prof::Counter ProfScheduled("sim.events_scheduled");
static prof::Counter ProfCancelled("sim.events_cancelled");
static prof::Counter ProfExecuted("sim.events_executed");
static prof::Counter ProfTombstoneSkips("sim.tombstone_skips");

void Simulator::flushProfCounters() {
  ProfScheduled.add((NextSeq - 1) - LastProfFlush.Scheduled);
  ProfCancelled.add(Cancelled - LastProfFlush.Cancelled);
  ProfExecuted.add(Executed - LastProfFlush.Executed);
  ProfTombstoneSkips.add(TombstoneSkips - LastProfFlush.TombstoneSkips);
  LastProfFlush = {NextSeq - 1, Cancelled, Executed, TombstoneSkips};
}

uint32_t Simulator::raceDomain() {
  if (RaceDomain == 0)
    RaceDomain = race::Analyzer::instance().allocDomain();
  return RaceDomain;
}

// Callbacks and intrusive events share one path from here on: both take a
// sequence number and a slot, report to the race analyzer at arm time, and
// are dispatched by dispatchTop() in (At, Seq) order.
Simulator::Slot &Simulator::enqueue(TimePoint At, EventId &Id) {
  FCL_CHECK(At >= Now, "cannot schedule an event in the past");
  uint64_t Seq = NextSeq++;
  uint32_t Idx;
  if (FreeSlots.empty()) {
    Idx = static_cast<uint32_t>(Slots.size());
    Slots.emplace_back();
  } else {
    Idx = FreeSlots.back();
    FreeSlots.pop_back();
  }
  Queue.push(Entry{At, Seq, Idx});
  Slots[Idx].Seq = Seq;
  ++Live;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().onSchedule(Seq, raceDomain());
  Id = EventId(Idx, Seq);
  return Slots[Idx];
}

void Simulator::release(uint32_t Idx) {
  Slots[Idx].Seq = 0;
  Slots[Idx].Intrusive = nullptr;
  FreeSlots.push_back(Idx);
  --Live;
}

EventId Simulator::scheduleAt(TimePoint At, Callback Fn) {
  FCL_CHECK(Fn != nullptr, "cannot schedule a null callback");
  EventId Id;
  enqueue(At, Id).Fn = std::move(Fn);
  return Id;
}

EventId Simulator::scheduleAfter(Duration Delay, Callback Fn) {
  FCL_CHECK(Delay >= Duration::zero(), "negative delay");
  return scheduleAt(Now + Delay, std::move(Fn));
}

EventId Simulator::armAfter(Duration Delay, Event &E) {
  FCL_CHECK(Delay >= Duration::zero(), "negative delay");
  EventId Id;
  enqueue(Now + Delay, Id).Intrusive = &E;
  return Id;
}

bool Simulator::cancel(EventId Id) {
  if (!Id.valid() || Id.Slot >= Slots.size() || Slots[Id.Slot].Seq != Id.Seq)
    return false;
  // The heap entry stays queued as a tombstone until it pops.
  Callback Dropped;
  Dropped.swap(Slots[Id.Slot].Fn);
  release(Id.Slot);
  ++Cancelled;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().onCancel(Id.Seq, raceDomain());
  return true;
}

void Simulator::dispatchTop() {
  Entry Top = Queue.top();
  Queue.pop();
  // Free the slot before running the payload, so the event can re-arm
  // itself (into the same slot) or schedule successors.
  Slot &S = Slots[Top.Slot];
  Event *Intrusive = S.Intrusive;
  Callback Fn;
  Fn.swap(S.Fn);
  release(Top.Slot);
  assert(Top.At >= Now && "event queue went backwards");
  Now = Top.At;
  ++Executed;
  bool Analyzed = race::Analyzer::enabled();
  if (Analyzed)
    race::Analyzer::instance().onEventBegin(Top.Seq, raceDomain());
  if (Intrusive)
    Intrusive->fire();
  else
    Fn();
  if (Analyzed)
    race::Analyzer::instance().onEventEnd();
}

bool Simulator::step() {
  while (!Queue.empty() && topIsTombstone()) {
    Queue.pop();
    ++TombstoneSkips;
  }
  if (Queue.empty())
    return false;
  dispatchTop();
  return true;
}

// The run loops open a "sim.run" profiler phase only when there is event
// work to do (hostAdvance()-style calls hit these entry points thousands
// of times per run with an empty or not-yet-due queue), and only on the
// outermost entry: event callbacks routinely pump the loop again, and
// scoping every re-entry would charge two timestamp reads per nesting
// level for no extra information. Counter deltas flush on outermost exit.

// Returning from any run loop is a drain: the caller blocked until every
// event THIS simulator executed so far had finished, which orders it
// after all of them (other simulators' events may still be running on
// other threads, so the join is per-domain). The analyzer join is O(1)
// (a version watermark), so every exit path reports it.
void Simulator::raceDrainExit() {
  if (race::Analyzer::enabled())
    race::Analyzer::instance().onDrainExit(raceDomain());
}

void Simulator::run() {
  if (Queue.empty()) {
    raceDrainExit();
    return;
  }
  bool Outer = !InRunLoop;
  InRunLoop = true;
  {
    std::optional<prof::ScopedPhase> Phase;
    if (Outer)
      Phase.emplace("sim.run");
    while (step()) {
    }
  }
  if (Outer) {
    InRunLoop = false;
    flushProfCounters();
  }
  raceDrainExit();
}

void Simulator::runUntil(TimePoint Deadline) {
  FCL_CHECK(Deadline >= Now, "deadline in the past");
  if (!Queue.empty() && Queue.top().At <= Deadline) {
    bool Outer = !InRunLoop;
    InRunLoop = true;
    {
      std::optional<prof::ScopedPhase> Phase;
      if (Outer)
        Phase.emplace("sim.run");
      // Tombstones are skipped inside the deadline test, so a cancelled
      // entry on top never lets a later live event run past the deadline.
      while (!Queue.empty() && Queue.top().At <= Deadline) {
        if (topIsTombstone()) {
          Queue.pop();
          ++TombstoneSkips;
        } else {
          dispatchTop();
        }
      }
    }
    if (Outer) {
      InRunLoop = false;
      flushProfCounters();
    }
  }
  Now = Deadline;
  raceDrainExit();
}

bool Simulator::runWhileNot(const std::function<bool()> &Pred) {
  if (Pred())
    return true;
  if (Queue.empty())
    return false;
  bool Outer = !InRunLoop;
  InRunLoop = true;
  bool Satisfied = false;
  {
    std::optional<prof::ScopedPhase> Phase;
    if (Outer)
      Phase.emplace("sim.run");
    while (step()) {
      if (Pred()) {
        Satisfied = true;
        break;
      }
    }
  }
  if (Outer) {
    InRunLoop = false;
    flushProfCounters();
  }
  raceDrainExit();
  return Satisfied;
}
