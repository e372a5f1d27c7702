//===- tests/sim_test.cpp - Discrete-event simulator tests -----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace fcl;
using namespace fcl::sim;

namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator Sim;
  EXPECT_EQ(Sim.now().nanos(), 0);
  EXPECT_FALSE(Sim.hasPending());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.scheduleAfter(Duration::nanoseconds(30), [&] { Order.push_back(3); });
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] { Order.push_back(1); });
  Sim.scheduleAfter(Duration::nanoseconds(20), [&] { Order.push_back(2); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Sim.now().nanos(), 30);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator Sim;
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    Sim.scheduleAfter(Duration::nanoseconds(5), [&, I] { Order.push_back(I); });
  Sim.run();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[static_cast<size_t>(I)], I);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator Sim;
  TimePoint Seen;
  Sim.scheduleAt(TimePoint(12345), [&] { Seen = Sim.now(); });
  Sim.run();
  EXPECT_EQ(Seen.nanos(), 12345);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] {
    Order.push_back(1);
    Sim.scheduleAfter(Duration::nanoseconds(5), [&] { Order.push_back(2); });
  });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  EXPECT_EQ(Sim.now().nanos(), 15);
}

TEST(SimulatorTest, ZeroDelayEventFiresAtSameTime) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAfter(Duration::zero(), [&] { Ran = true; });
  Sim.run();
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Sim.now().nanos(), 0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator Sim;
  bool Ran = false;
  EventId Id = Sim.scheduleAfter(Duration::nanoseconds(10), [&] { Ran = true; });
  EXPECT_TRUE(Sim.cancel(Id));
  Sim.run();
  EXPECT_FALSE(Ran);
}

TEST(SimulatorTest, CancelReturnsFalseWhenAlreadyFired) {
  Simulator Sim;
  EventId Id = Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  Sim.run();
  EXPECT_FALSE(Sim.cancel(Id));
}

TEST(SimulatorTest, CancelTwiceIsNoOp) {
  Simulator Sim;
  EventId Id = Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  EXPECT_TRUE(Sim.cancel(Id));
  EXPECT_FALSE(Sim.cancel(Id));
  Sim.run();
}

TEST(SimulatorTest, DefaultEventIdIsInvalid) {
  Simulator Sim;
  EXPECT_FALSE(Sim.cancel(EventId()));
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator Sim;
  int Count = 0;
  Sim.scheduleAfter(Duration::nanoseconds(1), [&] { ++Count; });
  Sim.scheduleAfter(Duration::nanoseconds(2), [&] { ++Count; });
  EXPECT_TRUE(Sim.step());
  EXPECT_EQ(Count, 1);
  EXPECT_TRUE(Sim.step());
  EXPECT_EQ(Count, 2);
  EXPECT_FALSE(Sim.step());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] { Order.push_back(1); });
  Sim.scheduleAfter(Duration::nanoseconds(30), [&] { Order.push_back(2); });
  Sim.runUntil(TimePoint(20));
  EXPECT_EQ(Order, (std::vector<int>{1}));
  EXPECT_EQ(Sim.now().nanos(), 20);
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAt(TimePoint(20), [&] { Ran = true; });
  Sim.runUntil(TimePoint(20));
  EXPECT_TRUE(Ran);
}

TEST(SimulatorTest, RunWhileNotStopsWhenPredicateHolds) {
  Simulator Sim;
  int Count = 0;
  for (int I = 1; I <= 10; ++I)
    Sim.scheduleAfter(Duration::nanoseconds(I), [&] { ++Count; });
  bool Satisfied = Sim.runWhileNot([&] { return Count >= 4; });
  EXPECT_TRUE(Satisfied);
  EXPECT_EQ(Count, 4);
}

TEST(SimulatorTest, RunWhileNotReturnsFalseWhenQueueDrains) {
  Simulator Sim;
  Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  EXPECT_FALSE(Sim.runWhileNot([] { return false; }));
}

TEST(SimulatorTest, RunWhileNotImmediateWhenAlreadyTrue) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAfter(Duration::nanoseconds(1), [&] { Ran = true; });
  EXPECT_TRUE(Sim.runWhileNot([] { return true; }));
  EXPECT_FALSE(Ran);
}

TEST(SimulatorTest, EventsExecutedCounts) {
  Simulator Sim;
  for (int I = 0; I < 5; ++I)
    Sim.scheduleAfter(Duration::nanoseconds(I), [] {});
  Sim.run();
  EXPECT_EQ(Sim.eventsExecuted(), 5u);
}

TEST(SimulatorTest, ManyCancellationsCompactWithoutLoss) {
  Simulator Sim;
  int Ran = 0;
  std::vector<EventId> Ids;
  // Interleave survivors and cancels at scale: every cancelled slot is
  // reused by a later event.
  for (int I = 0; I < 5000; ++I) {
    if (I % 2 == 0) {
      Ids.push_back(
          Sim.scheduleAfter(Duration::nanoseconds(I), [&] { ++Ran; }));
    } else {
      EventId Doomed =
          Sim.scheduleAfter(Duration::nanoseconds(I), [&] { ++Ran; });
      EXPECT_TRUE(Sim.cancel(Doomed));
    }
  }
  // Cancel half of the survivors too.
  for (size_t I = 0; I < Ids.size(); I += 2)
    EXPECT_TRUE(Sim.cancel(Ids[I]));
  Sim.run();
  EXPECT_EQ(Ran, 1250);
}

TEST(SimulatorTest, TombstoneHealthCountersTrackCancellations) {
  Simulator Sim;
  EXPECT_EQ(Sim.pendingTombstones(), 0u);
  EXPECT_EQ(Sim.tombstoneSkips(), 0u);
  std::vector<EventId> Doomed;
  for (int I = 0; I < 8; ++I) {
    EventId Id = Sim.scheduleAfter(Duration::nanoseconds(I), [] {});
    if (I % 2 == 1)
      Doomed.push_back(Id);
  }
  for (EventId Id : Doomed)
    EXPECT_TRUE(Sim.cancel(Id));
  // Cancelled entries linger in the queue as tombstones until they pop.
  EXPECT_EQ(Sim.pendingTombstones(), Doomed.size());
  Sim.run();
  // Every cancelled entry was popped and skipped.
  EXPECT_EQ(Sim.tombstoneSkips(), Doomed.size());
  EXPECT_EQ(Sim.pendingTombstones(), 0u);
  EXPECT_EQ(Sim.eventsExecuted(), 4u);
}

// A cancellation-heavy batch load: 8 batches of 4096 short-delay events,
// every 4th cancelled before its batch runs. The executed and skipped
// counts are exact, so a change to how the core pops, cancels or reuses
// slots shows up as a different number, not only as a different speed.
TEST(SimulatorTest, CancellationHeavyBatchesCountExactly) {
  Simulator Sim;
  std::vector<EventId> Cancellable;
  uint64_t Tick = 0;
  for (int B = 0; B < 8; ++B) {
    Cancellable.clear();
    for (int I = 0; I < 4096; ++I) {
      EventId Id =
          Sim.scheduleAfter(Duration::nanoseconds(++Tick % 97), [] {});
      if (I % 4 == 0)
        Cancellable.push_back(Id);
    }
    for (EventId Id : Cancellable)
      EXPECT_TRUE(Sim.cancel(Id));
    Sim.run();
  }
  EXPECT_EQ(Sim.eventsExecuted(), 8u * 3072);
  EXPECT_EQ(Sim.tombstoneSkips(), 8u * 1024);
  EXPECT_EQ(Sim.pendingTombstones(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineBehindTombstone) {
  Simulator Sim;
  bool LateRan = false;
  EventId Early = Sim.scheduleAt(TimePoint(10), [] {});
  Sim.scheduleAt(TimePoint(100), [&] { LateRan = true; });
  EXPECT_TRUE(Sim.cancel(Early));
  Sim.runUntil(TimePoint(50));
  EXPECT_FALSE(LateRan);
  EXPECT_EQ(Sim.now().nanos(), 50);
  EXPECT_EQ(Sim.tombstoneSkips(), 1u);
  Sim.run();
  EXPECT_TRUE(LateRan);
  EXPECT_EQ(Sim.now().nanos(), 100);
}

TEST(SimulatorTest, SlotCountBoundedByPeakPending) {
  Simulator Sim;
  // A million schedule/fire/cancel cycles with at most 8 events pending at
  // once: freed slots are reused, so the pool never outgrows the peak.
  std::vector<EventId> Pending;
  size_t Peak = 0;
  for (int Cycle = 0; Cycle < 1000000; ++Cycle) {
    Pending.push_back(
        Sim.scheduleAfter(Duration::nanoseconds(1 + Cycle % 7), [] {}));
    Peak = std::max(Peak, Pending.size());
    if (Pending.size() == 8) {
      size_t Victim = static_cast<size_t>(Cycle / 8) % 8;
      EXPECT_TRUE(Sim.cancel(Pending[Victim]));
      Sim.step();
      Pending.clear(); // Survivors still fire; their ids are not needed.
      Sim.run();
    }
  }
  Sim.run();
  EXPECT_EQ(Peak, 8u);
  EXPECT_LE(Sim.slotCount(), Peak);
  EXPECT_EQ(Sim.pendingTombstones(), 0u);
}

TEST(SimulatorTest, StaleEventIdCannotCancelReusedSlot) {
  Simulator Sim;
  EventId Fired = Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  Sim.run();
  // The new event reuses the freed slot under a newer sequence number.
  bool Ran = false;
  EventId Reused =
      Sim.scheduleAfter(Duration::nanoseconds(1), [&] { Ran = true; });
  EXPECT_EQ(Sim.slotCount(), 1u);
  EXPECT_NE(Fired, Reused);
  EXPECT_FALSE(Sim.cancel(Fired));
  Sim.run();
  EXPECT_TRUE(Ran);
  // Likewise for a cancelled handle.
  EventId Doomed = Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  EXPECT_TRUE(Sim.cancel(Doomed));
  Ran = false;
  Sim.scheduleAfter(Duration::nanoseconds(1), [&] { Ran = true; });
  EXPECT_FALSE(Sim.cancel(Doomed));
  Sim.run();
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Sim.slotCount(), 1u);
}

/// An intrusive event that logs its tag and re-arms itself \p Rearms times.
struct TaggedEvent final : Event {
  Simulator &Sim;
  std::vector<int> &Order;
  int Tag;
  int Rearms;
  TaggedEvent(Simulator &Sim, std::vector<int> &Order, int Tag, int Rearms)
      : Sim(Sim), Order(Order), Tag(Tag), Rearms(Rearms) {}
  void fire() override {
    Order.push_back(Tag);
    if (Rearms-- > 0)
      Sim.armAfter(Duration::nanoseconds(5), *this);
  }
};

TEST(SimulatorTest, IntrusiveAndCallbackEventsAtEqualTimeFireInSeqOrder) {
  Simulator Sim;
  std::vector<int> Order;
  TaggedEvent A(Sim, Order, 1, 1);
  TaggedEvent B(Sim, Order, 3, 0);
  Sim.armAfter(Duration::nanoseconds(5), A);
  Sim.scheduleAt(TimePoint(5), [&] { Order.push_back(2); });
  Sim.armAfter(Duration::nanoseconds(5), B);
  Sim.scheduleAt(TimePoint(5), [&] { Order.push_back(4); });
  // A re-arms at t=5 for t=10, behind this callback scheduled earlier.
  Sim.scheduleAt(TimePoint(10), [&] { Order.push_back(5); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3, 4, 5, 1}));
  EXPECT_EQ(Sim.eventsExecuted(), 6u);
  EXPECT_EQ(Sim.now().nanos(), 10);
}

TEST(SimulatorTest, CancelledIntrusiveEventDoesNotFire) {
  Simulator Sim;
  std::vector<int> Order;
  TaggedEvent A(Sim, Order, 1, 0);
  EventId Id = Sim.armAfter(Duration::nanoseconds(3), A);
  EXPECT_TRUE(Sim.cancel(Id));
  EXPECT_FALSE(Sim.hasPending());
  Sim.run();
  EXPECT_TRUE(Order.empty());
  EXPECT_EQ(Sim.tombstoneSkips(), 1u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator Sim;
  Sim.scheduleAfter(Duration::nanoseconds(100), [] {});
  Sim.run();
  EXPECT_DEATH(Sim.scheduleAt(TimePoint(5), [] {}), "past");
}

TEST(SimulatorDeathTest, NegativeDelayAborts) {
  Simulator Sim;
  EXPECT_DEATH(Sim.scheduleAfter(Duration::nanoseconds(-1), [] {}),
               "negative");
}

} // namespace
