/**
 * @file
 * Unit tests for disk/scheduler.
 */

#include <gtest/gtest.h>

#include "disk/scheduler.hh"

namespace dlw
{
namespace disk
{
namespace
{

DiskGeometry
flatGeometry()
{
    // 100 cylinders of 10 blocks each.
    std::vector<Zone> zones = {{0, 1000, 10}};
    return DiskGeometry(std::move(zones), 7200);
}

QueuedRequest
reqAt(Lba lba, std::size_t index)
{
    trace::Request r;
    r.arrival = 0;
    r.lba = lba;
    r.blocks = 1;
    r.op = trace::Op::Read;
    return QueuedRequest{r, index};
}

TEST(Scheduler, FcfsAlwaysFront)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Fcfs);
    RequestQueue q = {reqAt(900, 0), reqAt(10, 1), reqAt(500, 2)};
    EXPECT_EQ(s.pick(q, 50, g), 0u);
}

TEST(Scheduler, SstfPicksNearestCylinder)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Sstf);
    // Head at cylinder 50 (block 500).
    RequestQueue q = {reqAt(900, 0), reqAt(480, 1), reqAt(10, 2)};
    EXPECT_EQ(s.pick(q, 50, g), 1u); // cylinder 48 is closest
}

TEST(Scheduler, SstfExactMatchWins)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Sstf);
    RequestQueue q = {reqAt(900, 0), reqAt(505, 1)};
    EXPECT_EQ(s.pick(q, 50, g), 1u);
}

TEST(Scheduler, ElevatorSweepsUpThenReverses)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Elevator);
    // Head at 50, sweeping up: picks 60 not 45.
    RequestQueue q = {reqAt(450, 0), reqAt(600, 1)};
    EXPECT_EQ(s.pick(q, 50, g), 1u);
    // Nothing above 90: reverses and picks the highest below.
    RequestQueue q2 = {reqAt(450, 0), reqAt(100, 1)};
    EXPECT_EQ(s.pick(q2, 90, g), 0u);
}

TEST(Scheduler, ElevatorPrefersNearestAhead)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Elevator);
    RequestQueue q = {reqAt(990, 0), reqAt(600, 1), reqAt(700, 2)};
    EXPECT_EQ(s.pick(q, 50, g), 1u);
}

TEST(Scheduler, TiesGoToLowestIndex)
{
    DiskGeometry g = flatGeometry();
    // Cylinders 40 and 60 are equally far from 50; 60 twice.
    Scheduler sstf(SchedPolicy::Sstf);
    RequestQueue q = {reqAt(600, 0), reqAt(400, 1), reqAt(605, 2)};
    EXPECT_EQ(sstf.pick(q, 50, g), 0u);
    RequestQueue q2 = {reqAt(400, 0), reqAt(600, 1)};
    EXPECT_EQ(sstf.pick(q2, 50, g), 0u);
    // The elevator sweeps up: the two requests on cylinder 60 tie.
    Scheduler elev(SchedPolicy::Elevator);
    EXPECT_EQ(elev.pick(q, 50, g), 0u);
    RequestQueue q3 = {reqAt(400, 0), reqAt(605, 1), reqAt(600, 2)};
    EXPECT_EQ(elev.pick(q3, 50, g), 1u);
}

TEST(Scheduler, SingleElementShortCircuits)
{
    DiskGeometry g = flatGeometry();
    for (auto p : {SchedPolicy::Fcfs, SchedPolicy::Sstf,
                   SchedPolicy::Elevator}) {
        Scheduler s(p);
        RequestQueue q = {reqAt(990, 7)};
        EXPECT_EQ(s.pick(q, 0, g), 0u) << schedPolicyName(p);
    }
}

TEST(Scheduler, PolicyNames)
{
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Fcfs), "FCFS");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Sstf), "SSTF");
    EXPECT_STREQ(schedPolicyName(SchedPolicy::Elevator), "ELEVATOR");
}

TEST(SchedulerDeathTest, EmptyQueue)
{
    DiskGeometry g = flatGeometry();
    Scheduler s(SchedPolicy::Fcfs);
    RequestQueue q;
    EXPECT_DEATH(s.pick(q, 0, g), "empty queue");
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
