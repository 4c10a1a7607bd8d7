/**
 * @file
 * Tests for the top-level multi-scale characterization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "synth/family.hh"
#include "synth/workload.hh"
#include "trace/aggregate.hh"

namespace dlw
{
namespace core
{
namespace
{

TEST(Characterize, MsScalePopulatesFields)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeOltp(1 << 22, 60.0);
    trace::MsTrace tr = w.generate(rng, "drv-0", 0, 60 * kSec);
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    disk::ServiceLog log = drive.service(tr);

    DriveCharacterization c = characterizeMs(tr, log);
    EXPECT_EQ(c.drive_id, "drv-0");
    ASSERT_TRUE(c.util_1s.has_value());
    ASSERT_TRUE(c.util_1min.has_value());
    ASSERT_TRUE(c.idle_fraction.has_value());
    ASSERT_TRUE(c.ms_burstiness.has_value());
    ASSERT_TRUE(c.arrival_rate.has_value());
    EXPECT_NEAR(*c.idle_fraction + c.util_1s->mean, 1.0, 0.02);
    EXPECT_GT(*c.arrival_rate, 10.0);
    ASSERT_TRUE(c.p95_response_ms.has_value());
    ASSERT_TRUE(c.p99_response_ms.has_value());
    EXPECT_GE(*c.p99_response_ms, *c.p95_response_ms);
    EXPECT_GE(*c.p95_response_ms, 0.0);
    EXPECT_FALSE(c.util_hour.has_value());
}

TEST(Characterize, ResponseLogSinkRendersTheSameReport)
{
    // Served into a ResponseLog, with no completions kept, the report
    // must match the one built from a full ServiceLog.
    Rng rng(3);
    synth::Workload w = synth::Workload::makeOltp(1 << 22, 300.0);
    trace::MsTrace tr = w.generate(rng, "drv-r", 0, 30 * kSec);
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    const std::string want = characterizeMs(tr, drive.service(tr)).render();

    disk::ResponseLog responses;
    trace::MsTraceSource served(tr);
    const disk::ServiceLog log = drive.service(served, &responses);
    ASSERT_TRUE(log.completions.empty());
    MsTracePass pass;
    trace::MsTraceSource src(tr);
    pass.run(src);
    EXPECT_EQ(characterizeMs(pass, log, responses).render(), want);
}

TEST(Characterize, HourAndLifetimeScalesExtend)
{
    synth::FamilyConfig cfg;
    synth::FamilyModel model(cfg);
    synth::DriveProfile p = model.sampleProfile(2);
    trace::HourTrace ht = model.generateHourTrace(p, 24 * 14);
    trace::LifetimeRecord life = trace::hourToLifetime(ht);

    DriveCharacterization c;
    c.drive_id = p.id;
    addHourScale(c, ht);
    addLifetimeScale(c, life);

    ASSERT_TRUE(c.util_hour.has_value());
    ASSERT_TRUE(c.idle_hour_fraction.has_value());
    ASSERT_TRUE(c.lifetime_utilization.has_value());
    EXPECT_NEAR(*c.lifetime_utilization, c.util_hour->mean, 1e-9);
    EXPECT_EQ(*c.lifetime_requests, ht.totalRequests());
}

TEST(Characterize, RenderContainsKeyRows)
{
    Rng rng(2);
    synth::Workload w = synth::Workload::makeFileServer(1 << 22, 40.0);
    trace::MsTrace tr = w.generate(rng, "drv-9", 0, 30 * kSec);
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    DriveCharacterization c = characterizeMs(tr, drive.service(tr));

    const std::string s = c.render();
    EXPECT_NE(s.find("drv-9"), std::string::npos);
    EXPECT_NE(s.find("arrival rate"), std::string::npos);
    EXPECT_NE(s.find("utilization mean"), std::string::npos);
    EXPECT_NE(s.find("idle fraction"), std::string::npos);
    EXPECT_NE(s.find("Hurst"), std::string::npos);
    // Hour rows absent without hour data.
    EXPECT_EQ(s.find("hourly utilization"), std::string::npos);
}

TEST(Characterize, RenderGrowsWithScales)
{
    DriveCharacterization c;
    c.drive_id = "x";
    const std::size_t empty_len = c.render().size();
    c.lifetime_utilization = 0.25;
    c.lifetime_read_fraction = 0.7;
    EXPECT_GT(c.render().size(), empty_len);
    EXPECT_NE(c.render().find("lifetime utilization"),
              std::string::npos);
}

TEST(Characterize, JsonRenderingIsPinned)
{
    DriveCharacterization c;
    c.drive_id = "d\"r\\v\x01\t";
    EXPECT_EQ(renderCharacterizationJson(c),
              "{\"drive\":\"d\\\"r\\\\v\\u0001\\t\"}");

    c.arrival_rate = 12.5;
    c.read_fraction = 2.0 / 3.0;
    c.mean_response_ms = std::numeric_limits<double>::quiet_NaN();
    c.idle_fraction = 0.25;
    BurstinessReport b;
    b.interarrival_cv = 1.75;
    b.peak_to_mean = 1e-7;
    b.hurst_var.h = 0.8125;
    b.hurst_rs.h = INFINITY;
    b.idc = {{1, 1.5, 10}, {8, 42.0, 2}};
    b.decorrelation_lag = 17;
    c.ms_burstiness = b;
    RwDynamics d;
    d.mean_run_length = 3.25;
    d.write_dominated_fraction = 123456789.125;
    d.longest_write_run = 99;
    d.write_bursts = 4;
    c.ms_rw = d;
    // Non-finite values render as null, finite ones as %.12g.
    EXPECT_EQ(renderCharacterizationJson(c),
              "{\"drive\":\"d\\\"r\\\\v\\u0001\\t\","
              "\"arrival_rate\":12.5,\"read_fraction\":0.666666666667,"
              "\"mean_response_ms\":null,\"idle_fraction\":0.25,"
              "\"interarrival_cv\":1.75,\"peak_to_mean\":1e-07,"
              "\"hurst_var\":0.8125,\"hurst_rs\":null,"
              "\"idc_finest\":1.5,\"idc_coarsest\":42,"
              "\"decorrelation_lag\":17,\"mean_run_length\":3.25,"
              "\"write_dominated_fraction\":123456789.125,"
              "\"longest_write_run\":99,\"write_bursts\":4}");
}

} // anonymous namespace
} // namespace core
} // namespace dlw
