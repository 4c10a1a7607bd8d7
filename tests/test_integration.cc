/**
 * @file
 * Integration tests: the full pipeline from synthesis through
 * servicing, aggregation, and characterization, checked for the
 * invariants that hold across module boundaries.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/burstiness.hh"
#include "core/characterize.hh"
#include "core/family.hh"
#include "core/idleness.hh"
#include "core/utilization.hh"
#include "disk/drive.hh"
#include "synth/family.hh"
#include "synth/workload.hh"
#include "trace/aggregate.hh"
#include "trace/binio.hh"
#include "trace/csvio.hh"

#include <sstream>

namespace dlw
{
namespace
{

/** Build a ms trace, run it through the drive, return both. */
struct PipelineResult
{
    trace::MsTrace tr;
    disk::ServiceLog log;
};

PipelineResult
runPipeline(double rate, Tick duration, std::uint64_t seed)
{
    Rng rng(seed);
    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    synth::Workload w = synth::Workload::makeOltp(
        cfg.geometry.capacityBlocks(), rate);
    PipelineResult r{w.generate(rng, "pipe", 0, duration), {}};
    disk::DiskDrive drive(cfg);
    r.log = drive.service(r.tr);
    return r;
}

TEST(Integration, BusyTimePlusIdleTimeEqualsWindow)
{
    auto r = runPipeline(60.0, 30 * kSec, 1);
    core::IdlenessAnalysis idle(r.log);
    EXPECT_EQ(idle.totalIdle() + r.log.busyTime(),
              r.log.window_end - r.log.window_start);
    EXPECT_NEAR(idle.idleFraction() + r.log.utilization(), 1.0, 1e-9);
}

TEST(Integration, HigherRateRaisesUtilization)
{
    auto lo = runPipeline(20.0, 30 * kSec, 2);
    auto hi = runPipeline(150.0, 30 * kSec, 2);
    EXPECT_GT(hi.log.utilization(), lo.log.utilization() * 2.0);
}

TEST(Integration, ServiceLogBusyMatchesHourAggregation)
{
    auto r = runPipeline(50.0, 2 * kHour, 3);
    trace::HourTrace ht = trace::msToHour(r.tr, r.log.busy);
    EXPECT_TRUE(trace::consistentMsHour(r.tr, ht));
    Tick hour_busy = 0;
    for (const trace::HourBucket &b : ht.buckets())
        hour_busy += b.busy;
    // Busy may extend past the trace window (final destage); the
    // aggregation clips to the window grid, so allow the tail.
    EXPECT_LE(r.log.busyTime() - hour_busy, kMinute);
    EXPECT_GE(r.log.busyTime(), hour_busy);
}

TEST(Integration, UtilizationAgreesBetweenLogAndHourTrace)
{
    auto r = runPipeline(80.0, 2 * kHour, 4);
    trace::HourTrace ht = trace::msToHour(r.tr, r.log.busy);
    core::UtilizationProfile from_hours =
        core::utilizationProfile(ht);
    core::UtilizationProfile from_log =
        core::utilizationProfile(r.log, kHour);
    // Compare the full hours both views share (the log view drops a
    // trailing partial bin created by the final destage).
    ASSERT_GE(from_hours.series.size(), 2u);
    ASSERT_GE(from_log.series.size(), 2u);
    for (std::size_t h = 0; h < 2; ++h) {
        EXPECT_NEAR(from_hours.series[h], from_log.series[h], 0.02)
            << "hour " << h;
    }
}

TEST(Integration, TraceSurvivesSerializationIntoSameAnalysis)
{
    auto r = runPipeline(40.0, 60 * kSec, 5);
    std::stringstream bin(std::ios::in | std::ios::out |
                          std::ios::binary);
    trace::writeMsBinary(bin, r.tr);
    trace::MsTrace back =
        trace::readMsBinary(bin, trace::IngestOptions{}).valueOrThrow();

    core::BurstinessReport a = core::analyzeBurstiness(r.tr);
    core::BurstinessReport b = core::analyzeBurstiness(back);
    EXPECT_DOUBLE_EQ(a.interarrival_cv, b.interarrival_cv);
    ASSERT_EQ(a.idc.size(), b.idc.size());
    for (std::size_t i = 0; i < a.idc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.idc[i].idc, b.idc[i].idc);
}

TEST(Integration, DeterministicEndToEnd)
{
    auto a = runPipeline(70.0, 30 * kSec, 42);
    auto b = runPipeline(70.0, 30 * kSec, 42);
    ASSERT_EQ(a.log.completions.size(), b.log.completions.size());
    for (std::size_t i = 0; i < a.log.completions.size(); ++i) {
        EXPECT_EQ(a.log.completions[i].finish,
                  b.log.completions[i].finish);
    }
    EXPECT_EQ(a.log.busyTime(), b.log.busyTime());
}

TEST(Integration, ThreeScalesOneDrive)
{
    // The paper's setting: the same drive observed at ms, hour, and
    // lifetime granularity, with consistent aggregates.
    auto r = runPipeline(60.0, 3 * kHour, 6);
    trace::HourTrace ht = trace::msToHour(r.tr, r.log.busy);
    trace::LifetimeRecord life = trace::hourToLifetime(ht);

    core::DriveCharacterization c = core::characterizeMs(r.tr, r.log);
    core::addHourScale(c, ht);
    core::addLifetimeScale(c, life);

    ASSERT_TRUE(c.lifetime_requests.has_value());
    EXPECT_EQ(*c.lifetime_requests, r.tr.size());
    ASSERT_TRUE(c.read_fraction.has_value());
    ASSERT_TRUE(c.lifetime_read_fraction.has_value());
    EXPECT_NEAR(*c.read_fraction, *c.lifetime_read_fraction, 1e-9);
    EXPECT_FALSE(c.render().empty());
}

TEST(Integration, FamilyPipelineFindsStreamers)
{
    synth::FamilyConfig cfg;
    cfg.seed = 7;
    synth::FamilyModel model(cfg);
    trace::LifetimeTrace lt = model.generateLifetimeTrace(96, 4000,
                                                          8000);
    ASSERT_TRUE(lt.validate());
    core::FamilyReport rep = core::analyzeFamily(lt);
    // Reproduce the abstract's population claims qualitatively.
    EXPECT_GT(rep.util_p90, rep.util_p10 * 3.0);
    EXPECT_GT(lt.fractionWithSaturatedRun(3), 0.0);
    EXPECT_LT(lt.fractionWithSaturatedRun(3), 0.5);
}

TEST(Integration, CacheAblationShiftsIdleStructure)
{
    Rng rng(8);
    disk::DriveConfig on = disk::DriveConfig::makeEnterprise();
    disk::DriveConfig off = disk::DriveConfig::makeEnterprise();
    off.cache.enabled = false;
    synth::Workload w = synth::Workload::makeFileServer(
        on.geometry.capacityBlocks(), 50.0);
    trace::MsTrace tr = w.generate(rng, "abl", 0, 60 * kSec);

    disk::ServiceLog log_on = disk::DiskDrive(on).service(tr);
    disk::ServiceLog log_off = disk::DiskDrive(off).service(tr);
    // Write-back + read hits reduce mechanical response time.
    EXPECT_LT(log_on.meanResponse(), log_off.meanResponse());
    EXPECT_GT(log_on.read_hits + log_on.buffered_writes, 0u);
    EXPECT_EQ(log_off.read_hits, 0u);
}

} // anonymous namespace
} // namespace dlw
