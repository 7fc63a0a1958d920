#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dfim {
namespace {

constexpr Seconds kQ = 60.0;

Assignment A(int op, int c, Seconds start, Seconds end, bool opt = false) {
  return Assignment{op, c, start, end, opt};
}

TEST(ScheduleTest, EmptySchedule) {
  Schedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.num_containers(), 0);
  EXPECT_DOUBLE_EQ(s.makespan(), 0);
  EXPECT_EQ(s.LeasedQuanta(kQ), 0);
  EXPECT_TRUE(s.FindIdleSlots(kQ).empty());
  EXPECT_TRUE(s.CheckNoOverlap());
}

TEST(ScheduleTest, MakespanIgnoresOptionalOps) {
  Schedule s;
  s.Add(A(0, 0, 0, 50));
  s.Add(A(1, 0, 50, 55, /*opt=*/true));
  EXPECT_DOUBLE_EQ(s.makespan(), 50);
  EXPECT_DOUBLE_EQ(s.TotalSpan(), 55);
}

TEST(ScheduleTest, LeasedQuantaPerContainer) {
  Schedule s;
  s.Add(A(0, 0, 0, 61));    // 2 quanta
  s.Add(A(1, 1, 0, 10));    // 1 quantum
  s.Add(A(2, 2, 0, 120));   // exactly 2 quanta
  EXPECT_EQ(s.LeasedQuanta(kQ), 5);
  EXPECT_EQ(s.num_containers(), 3);
}

TEST(ScheduleTest, IdleSlotsBetweenOpsAndTail) {
  Schedule s;
  s.Add(A(0, 0, 0, 20));
  s.Add(A(1, 0, 40, 50));
  auto slots = s.FindIdleSlots(kQ);
  // Gap [20,40) and tail [50,60).
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_DOUBLE_EQ(slots[0].start, 20);
  EXPECT_DOUBLE_EQ(slots[0].end, 40);
  EXPECT_EQ(slots[0].quantum_index, 0);
  EXPECT_DOUBLE_EQ(slots[1].start, 50);
  EXPECT_DOUBLE_EQ(slots[1].end, 60);
  EXPECT_DOUBLE_EQ(s.TotalIdle(kQ), 30);
}

TEST(ScheduleTest, IdleSlotsSplitAtQuantumBoundaries) {
  Schedule s;
  s.Add(A(0, 0, 0, 30));
  s.Add(A(1, 0, 150, 170));
  auto slots = s.FindIdleSlots(kQ);
  // Idle [30,150) splits into [30,60), [60,120), [120,150); tail [170,180).
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_DOUBLE_EQ(slots[0].end, 60);
  EXPECT_EQ(slots[1].quantum_index, 1);
  EXPECT_DOUBLE_EQ(slots[1].size(), 60);
  EXPECT_DOUBLE_EQ(slots[2].end, 150);
  EXPECT_DOUBLE_EQ(slots[3].start, 170);
}

TEST(ScheduleTest, NoIdleWhenPackedToQuantum) {
  Schedule s;
  s.Add(A(0, 0, 0, 60));
  EXPECT_TRUE(s.FindIdleSlots(kQ).empty());
  EXPECT_DOUBLE_EQ(s.TotalIdle(kQ), 0);
}

TEST(ScheduleTest, LeadingIdleBeforeFirstOp) {
  Schedule s;
  s.Add(A(0, 0, 45, 60));
  auto slots = s.FindIdleSlots(kQ);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_DOUBLE_EQ(slots[0].start, 0);
  EXPECT_DOUBLE_EQ(slots[0].end, 45);
}

TEST(ScheduleTest, OverlapDetection) {
  Schedule ok;
  ok.Add(A(0, 0, 0, 10));
  ok.Add(A(1, 0, 10, 20));
  ok.Add(A(2, 1, 5, 15));
  EXPECT_TRUE(ok.CheckNoOverlap());
  Schedule bad;
  bad.Add(A(0, 0, 0, 10));
  bad.Add(A(1, 0, 9, 20));
  EXPECT_FALSE(bad.CheckNoOverlap());
  Schedule negative;
  negative.Add(A(0, 0, 10, 5));
  EXPECT_FALSE(negative.CheckNoOverlap());
}

TEST(ScheduleTest, TimelinesSortedByStart) {
  Schedule s;
  s.Add(A(1, 0, 30, 40));
  s.Add(A(0, 0, 0, 10));
  s.Add(A(2, 1, 0, 5));
  ASSERT_EQ(s.timelines().size(), 2u);
  const Timeline& tl = s.timelines()[0];
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.op_id(0), 0);
  EXPECT_EQ(tl.op_id(1), 1);
  // The view walks container by container, each in timeline order.
  std::vector<Assignment> all(s.assignments().begin(), s.assignments().end());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], A(0, 0, 0, 10));
  EXPECT_EQ(all[1], A(1, 0, 30, 40));
  EXPECT_EQ(all[2], A(2, 1, 0, 5));
  EXPECT_EQ(s.assignments().size(), 3u);
  EXPECT_EQ(s.size(), 3u);
}

TEST(ScheduleTest, EqualStartsInsertBeforeExisting) {
  // Timeline::Insert puts a new entry before any equal start; BusySeconds
  // sums in that order, so a schedule keeps it.
  Schedule s;
  s.Add(A(4, 0, 10, 10));
  s.Add(A(2, 0, 10, 10));
  const Timeline& tl = s.timelines()[0];
  EXPECT_EQ(tl.op_id(0), 2);
  EXPECT_EQ(tl.op_id(1), 4);
}

TEST(ScheduleTest, EmptyMiddleContainerStillLeasesOneQuantum) {
  Schedule s;
  s.Add(A(0, 0, 0, 61));   // 2 quanta
  s.Add(A(1, 2, 0, 10));   // 1 quantum; container 1 holds nothing
  EXPECT_EQ(s.num_containers(), 3);
  EXPECT_TRUE(s.timelines()[1].empty());
  EXPECT_EQ(s.LeasedQuanta(kQ), 4);
  EXPECT_DOUBLE_EQ(s.last_end(1), 0);
  EXPECT_DOUBLE_EQ(s.last_end(2), 10);
  EXPECT_DOUBLE_EQ(s.last_end(7), 0);
}

TEST(ScheduleTest, AdoptedTimelinesDropTrailingEmptyOnes) {
  std::vector<Timeline> tls(4);
  tls[1].Insert(A(0, 1, 0, 10));
  Schedule s(std::move(tls));
  EXPECT_EQ(s.num_containers(), 2);
  EXPECT_EQ(s.LeasedQuanta(kQ), 2);
  EXPECT_EQ(Schedule(std::vector<Timeline>(3)).num_containers(), 0);
}

TEST(ScheduleTest, NegativeContainerIsRejectedNotStored) {
  Schedule s;
  s.Add(A(0, -1, 0, 10));
  s.Add(A(1, -2, 0, 10));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.num_containers(), 0);
  ASSERT_TRUE(s.rejected().has_value());
  EXPECT_EQ(*s.rejected(), A(0, -1, 0, 10));
}

TEST(ScheduleTest, AsciiArtHasRowPerContainer) {
  Schedule s;
  s.Add(A(0, 0, 0, 30));
  s.Add(A(1, 1, 0, 10, /*opt=*/true));
  std::string art = s.ToAscii(kQ, 60);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('+'), std::string::npos);
  EXPECT_NE(art.find("c0"), std::string::npos);
  EXPECT_NE(art.find("c1"), std::string::npos);
}

}  // namespace
}  // namespace dfim
