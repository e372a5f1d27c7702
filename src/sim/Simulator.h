//===- sim/Simulator.h - Deterministic discrete-event simulator -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event simulation core that stands in for wall-clock time and
/// hardware concurrency. Devices (simulated GPU/CPU), the PCIe link, and the
/// FluidiCL host-side "threads" are all event-driven state machines scheduled
/// on a single Simulator, which makes every experiment deterministic and
/// bit-reproducible.
///
/// Events with equal timestamps fire in schedule order (a monotonically
/// increasing sequence number breaks ties), so there is no ordering
/// nondeterminism.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SIM_SIMULATOR_H
#define FCL_SIM_SIMULATOR_H

#include "support/SimTime.h"

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace fcl {
namespace sim {

/// Opaque handle identifying a scheduled event, usable for cancellation: the
/// queue slot the event occupies and the sequence number that owns it. A
/// slot is reused once its event fires or is cancelled, but never under the
/// same sequence number, so a stale handle cannot reach the next occupant.
class EventId {
public:
  EventId() = default;

  bool valid() const { return Seq != 0; }
  auto operator<=>(const EventId &) const = default;

private:
  friend class Simulator;
  EventId(uint32_t Slot, uint64_t Seq) : Slot(Slot), Seq(Seq) {}
  uint32_t Slot = 0;
  uint64_t Seq = 0;
};

/// An intrusive event: an object its owner arms with Simulator::armAfter
/// instead of scheduling a heap-allocated callback. The owner keeps it alive
/// while armed and may re-arm it from fire(), or destroy it there; the
/// simulator does not touch it after fire() is entered. It may be armed at
/// most once at a time. The simulator holds its address, so it is not
/// copyable.
class Event {
public:
  Event() = default;
  Event(const Event &) = delete;
  Event &operator=(const Event &) = delete;

  virtual void fire() = 0;

protected:
  ~Event() = default;
};

/// A single-threaded discrete-event simulator with a virtual clock.
class Simulator {
public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// Current virtual time. Advances only inside run()/runUntil()/step().
  TimePoint now() const { return Now; }

  /// Schedules \p Fn to run at absolute time \p At (>= now()).
  EventId scheduleAt(TimePoint At, Callback Fn);

  /// Schedules \p Fn to run \p Delay after now().
  EventId scheduleAfter(Duration Delay, Callback Fn);

  /// Arms \p E to fire \p Delay after now(). Takes a sequence number and
  /// fires in (time, sequence) order exactly like scheduleAfter().
  EventId armAfter(Duration Delay, Event &E);

  /// Cancels a pending event. Returns true if the event was still pending.
  /// Cancelling an already-fired or already-cancelled event is a no-op.
  bool cancel(EventId Id);

  /// Runs until the event queue is empty.
  void run();

  /// Runs events with timestamps <= \p Deadline, then sets now() to
  /// \p Deadline (if the queue drained earlier).
  void runUntil(TimePoint Deadline);

  /// Runs until \p Pred() returns true (checked after each event) or the
  /// queue drains. Returns true if the predicate was satisfied.
  bool runWhileNot(const std::function<bool()> &Pred);

  /// Fires the single earliest pending event. Returns false if none.
  bool step();

  /// Number of events executed since construction.
  uint64_t eventsExecuted() const { return Executed; }

  /// Whether any event is pending (cancelled entries still queued do not
  /// count).
  bool hasPending() const { return Live != 0; }

  // --- Event-queue health (exported as fcl::stats gauges/counters so
  // --- queue degradation is visible in run reports) ----------------------

  /// Cancelled entries still queued: their slots are free, but their heap
  /// entries wait to be popped and skipped.
  uint64_t pendingTombstones() const { return Queue.size() - Live; }

  /// Queue pops that hit a cancelled entry and were skipped.
  uint64_t tombstoneSkips() const { return TombstoneSkips; }

  /// Event slots allocated so far. Freed slots are reused, so this never
  /// exceeds the peak number of simultaneously pending events.
  size_t slotCount() const { return Slots.size(); }

private:
  /// A heap entry. (At, Seq) is the dispatch order; Slot locates the
  /// payload, which is live only while the slot's Seq still matches.
  struct Entry {
    TimePoint At;
    uint64_t Seq;
    uint32_t Slot;
    bool operator>(const Entry &RHS) const {
      if (At != RHS.At)
        return At > RHS.At;
      return Seq > RHS.Seq;
    }
  };

  /// A pending event's payload: an intrusive event or a callback. Seq is
  /// the sequence number of the occupying event, 0 while the slot is free.
  struct Slot {
    uint64_t Seq = 0;
    Event *Intrusive = nullptr;
    Callback Fn;
  };

  /// Takes a sequence number and a slot for an event at \p At and queues
  /// it; the caller fills in the payload.
  Slot &enqueue(TimePoint At, EventId &Id);

  /// Returns a slot to the free list.
  void release(uint32_t Idx);

  /// Whether the earliest queued entry was cancelled.
  bool topIsTombstone() const {
    const Entry &Top = Queue.top();
    return Slots[Top.Slot].Seq != Top.Seq;
  }

  /// Pops the earliest entry, which must be live, and runs its payload.
  void dispatchTop();

  /// This simulator's race-analyzer domain, allocated lazily on the first
  /// hook so unanalyzed runs never touch the analyzer. Event sequence
  /// numbers are per-simulator, so every instance needs its own namespace
  /// in the process-wide analyzer (the cluster tier runs one simulator per
  /// worker thread).
  uint32_t raceDomain();

  /// Reports the drain join at every run-loop exit (O(1) watermark).
  void raceDrainExit();

  /// Publishes the deltas of the plain member counters since the last flush
  /// to the wall-clock profiler's churn counters. Called at run-loop exit so
  /// the per-event path stays free of atomic operations.
  void flushProfCounters();

  TimePoint Now;
  uint64_t NextSeq = 1;
  uint64_t Executed = 0;
  uint64_t Live = 0;
  uint64_t Cancelled = 0;
  uint64_t TombstoneSkips = 0;
  /// True while a run loop is active, so re-entrant pumping from event
  /// callbacks skips the "sim.run" profiler phase and the counter flush.
  bool InRunLoop = false;
  /// Lazily-allocated analyzer domain (0 = not yet allocated).
  uint32_t RaceDomain = 0;

  /// Member-counter values as of the last flushProfCounters() call.
  struct ProfFlushMark {
    uint64_t Scheduled = 0;
    uint64_t Cancelled = 0;
    uint64_t Executed = 0;
    uint64_t TombstoneSkips = 0;
  } LastProfFlush;

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> Queue;
  std::vector<Slot> Slots;
  std::vector<uint32_t> FreeSlots;
};

} // namespace sim
} // namespace fcl

#endif // FCL_SIM_SIMULATOR_H
