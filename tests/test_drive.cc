/**
 * @file
 * Tests for the event-driven drive engine: timing of single
 * requests, queueing, caching, destage draining, busy-interval
 * invariants, and scheduler ablation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace disk
{
namespace
{

DriveConfig
testConfig(bool cache_enabled)
{
    std::vector<Zone> zones = {{0, 100000, 100}};
    DiskGeometry geom(std::move(zones), 6000); // 10 ms/rev
    SeekModel seek(geom.cylinders(), 200 * kUsec, 3 * kMsec, 6 * kMsec);
    DriveConfig cfg{std::move(geom), seek, CacheConfig{},
                    SchedPolicy::Fcfs, 100 * kUsec, 20 * kMsec};
    cfg.cache.enabled = cache_enabled;
    return cfg;
}

trace::MsTrace
singleRead(Lba lba, BlockCount blocks)
{
    trace::MsTrace tr("t", 0, kSec);
    trace::Request r;
    r.arrival = 0;
    r.lba = lba;
    r.blocks = blocks;
    r.op = trace::Op::Read;
    tr.append(r);
    return tr;
}

TEST(Drive, SingleReadTimingDecomposes)
{
    DiskDrive drive(testConfig(false));
    ServiceLog log = drive.service(singleRead(0, 10));
    ASSERT_EQ(log.completions.size(), 1u);
    const Completion &c = log.completions[0];
    // Head starts at cylinder 0, target angle 0, platter angle at
    // overhead time (0.1 ms into a 10 ms rev) = 0.01 -> wait 0.99
    // revolutions, plus 1 ms transfer of 10/100 of a track.
    const Tick expect = 100 * kUsec /* overhead */ +
                        static_cast<Tick>(0.99 * 10 * kMsec + 0.5) +
                        kMsec;
    EXPECT_EQ(c.response(), expect);
    EXPECT_FALSE(c.cache_hit);
    ASSERT_EQ(log.busy.size(), 1u);
    EXPECT_EQ(log.busy[0].first, 0);
    EXPECT_EQ(log.busy[0].second, expect);
}

TEST(Drive, QueueingDelaysSecondRequest)
{
    DiskDrive drive(testConfig(false));
    trace::MsTrace tr("t", 0, kSec);
    for (int i = 0; i < 2; ++i) {
        trace::Request r;
        r.arrival = 0;
        r.lba = 50000; // same spot; second needs a full rotation
        r.blocks = 1;
        r.op = trace::Op::Read;
        tr.append(r);
    }
    ServiceLog log = drive.service(tr);
    ASSERT_EQ(log.completions.size(), 2u);
    EXPECT_GT(log.completions[1].response(),
              log.completions[0].response());
    EXPECT_GE(log.completions[1].start, log.completions[0].finish);
}

TEST(Drive, ReadCacheHitIsFast)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, kSec);
    trace::Request a;
    a.arrival = 0;
    a.lba = 1000;
    a.blocks = 10;
    a.op = trace::Op::Read;
    tr.append(a);
    trace::Request b = a;
    b.arrival = 500 * kMsec; // long after a completed
    tr.append(b);
    ServiceLog log = drive.service(tr);
    ASSERT_EQ(log.completions.size(), 2u);
    EXPECT_EQ(log.read_hits, 1u);
    const Completion &hit = log.completions[1];
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.response(), 100 * kUsec); // just overhead
}

TEST(Drive, SequentialReadPrefetchHits)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, 10 * kSec);
    // A sequential scan with large gaps: after the first media read
    // the look-ahead window should serve the following reads.
    for (int i = 0; i < 5; ++i) {
        trace::Request r;
        r.arrival = static_cast<Tick>(i) * kSec;
        r.lba = 2000 + static_cast<Lba>(i) * 10;
        r.blocks = 10;
        r.op = trace::Op::Read;
        tr.append(r);
    }
    ServiceLog log = drive.service(tr);
    EXPECT_GE(log.read_hits, 3u);
}

TEST(Drive, WriteBufferedThenDestagedOnIdle)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, kSec);
    trace::Request w;
    w.arrival = 0;
    w.lba = 5000;
    w.blocks = 100;
    w.op = trace::Op::Write;
    tr.append(w);
    ServiceLog log = drive.service(tr);
    ASSERT_EQ(log.completions.size(), 1u);
    EXPECT_TRUE(log.completions[0].cache_hit);
    EXPECT_EQ(log.completions[0].response(), 100 * kUsec);
    EXPECT_EQ(log.buffered_writes, 1u);
    EXPECT_EQ(log.destages, 1u);
    // The destage produced mechanical busy time after the arrival.
    EXPECT_GT(log.busyTime(), 0);
}

TEST(Drive, WriteThroughWhenCacheDisabled)
{
    DiskDrive drive(testConfig(false));
    trace::MsTrace tr("t", 0, kSec);
    trace::Request w;
    w.arrival = 0;
    w.lba = 5000;
    w.blocks = 100;
    w.op = trace::Op::Write;
    tr.append(w);
    ServiceLog log = drive.service(tr);
    EXPECT_EQ(log.buffered_writes, 0u);
    EXPECT_EQ(log.write_through, 1u);
    EXPECT_GT(log.completions[0].response(), kMsec);
}

TEST(Drive, BusyIntervalsSortedDisjoint)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeFileServer(100000, 60.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);
    DiskDrive drive(testConfig(true));
    ServiceLog log = drive.service(tr);
    for (std::size_t i = 0; i < log.busy.size(); ++i) {
        EXPECT_LT(log.busy[i].first, log.busy[i].second);
        if (i > 0)
            EXPECT_GT(log.busy[i].first, log.busy[i - 1].second);
    }
}

TEST(Drive, UtilizationWithinBounds)
{
    Rng rng(2);
    synth::Workload w = synth::Workload::makeOltp(100000, 80.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);
    DiskDrive drive(testConfig(true));
    ServiceLog log = drive.service(tr);
    EXPECT_GT(log.utilization(), 0.0);
    EXPECT_LE(log.utilization(), 1.0);
    EXPECT_LE(log.busyTime(), log.window_end - log.window_start);
}

TEST(Drive, AllRequestsComplete)
{
    Rng rng(3);
    synth::Workload w = synth::Workload::makeOltp(100000, 50.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    DiskDrive drive(testConfig(true));
    ServiceLog log = drive.service(tr);
    EXPECT_EQ(log.completions.size(), tr.size());
    // Every index appears exactly once.
    std::vector<bool> seen(tr.size(), false);
    for (const Completion &c : log.completions) {
        ASSERT_LT(c.index, tr.size());
        EXPECT_FALSE(seen[c.index]);
        seen[c.index] = true;
        EXPECT_GE(c.finish, c.arrival);
    }
}

TEST(Drive, CacheReducesMeanResponse)
{
    Rng rng(4);
    synth::Workload w = synth::Workload::makeFileServer(100000, 60.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);
    ServiceLog with = DiskDrive(testConfig(true)).service(tr);
    ServiceLog without = DiskDrive(testConfig(false)).service(tr);
    EXPECT_LT(with.meanResponse(), without.meanResponse());
}

TEST(Drive, SstfBeatsFcfsOnRandomLoad)
{
    Rng rng(5);
    synth::Workload w = synth::Workload::makeOltp(100000, 120.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 30 * kSec);

    DriveConfig fcfs = testConfig(false);
    DriveConfig sstf = testConfig(false);
    sstf.sched = SchedPolicy::Sstf;
    ServiceLog lf = DiskDrive(fcfs).service(tr);
    ServiceLog ls = DiskDrive(sstf).service(tr);
    // SSTF spends less time seeking: lower total busy time.
    EXPECT_LT(ls.busyTime(), lf.busyTime());
}

TEST(Drive, IdleIntervalsComplementBusy)
{
    Rng rng(6);
    synth::Workload w = synth::Workload::makeOltp(100000, 20.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    ServiceLog log = DiskDrive(testConfig(true)).service(tr);
    Tick idle = 0;
    for (Tick g : log.idleIntervals())
        idle += g;
    EXPECT_EQ(idle + log.busyTime(),
              log.window_end - log.window_start);
}

TEST(Drive, ResponseQuantilesOrdered)
{
    Rng rng(7);
    synth::Workload w = synth::Workload::makeOltp(100000, 50.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    ServiceLog log = DiskDrive(testConfig(true)).service(tr);
    EXPECT_LE(log.responseQuantile(0.5), log.responseQuantile(0.9));
    EXPECT_LE(log.responseQuantile(0.9), log.responseQuantile(0.99));
}

TEST(Drive, ResponseQuantileMatchesSortedReference)
{
    // Selection must return exactly the element a full sort puts at
    // rank round(q * (n - 1)), including among tied responses.
    Rng rng(8);
    for (const std::size_t n : {1u, 2u, 3u, 10u, 101u, 1000u, 4097u}) {
        ServiceLog log;
        for (std::size_t i = 0; i < n; ++i) {
            Completion c;
            c.index = i;
            c.arrival = rng.uniformInt(0, 1000);
            // Few distinct responses, so most ranks sit inside ties.
            c.finish = c.arrival + rng.uniformInt(0, 7) * kMsec;
            log.completions.push_back(c);
        }
        std::vector<Tick> sorted;
        for (const Completion &c : log.completions)
            sorted.push_back(c.response());
        std::sort(sorted.begin(), sorted.end());
        for (int k = 0; k <= 200; ++k) {
            const double q = k / 200.0;
            const auto idx = std::min(
                static_cast<std::size_t>(
                    q * static_cast<double>(n - 1) + 0.5),
                n - 1);
            ASSERT_EQ(log.responseQuantile(q), sorted[idx])
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Drive, ResponseLogMatchesServiceLog)
{
    // The response log's mean must be the serial sum over completions
    // ServiceLog::meanResponse always took, and its in-place
    // selections must return the sorted reference's elements in any
    // order of quantiles, across n = 1, ties and all-equal logs.
    Rng rng(9);
    for (const std::size_t n : {1u, 2u, 3u, 10u, 101u, 1000u, 4097u}) {
        for (const Tick spread : {Tick{0}, Tick{7}, Tick{1} << 40}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " spread=" + std::to_string(spread));
            ServiceLog log;
            ResponseLog responses;
            for (std::size_t i = 0; i < n; ++i) {
                Completion c;
                c.index = i;
                c.arrival = rng.uniformInt(0, 1000);
                c.finish = c.arrival + rng.uniformInt(0, spread) * kUsec;
                log.completions.push_back(c);
                responses.onCompletion(c);
            }
            double sum = 0.0;
            std::vector<Tick> sorted;
            for (const Completion &c : log.completions) {
                sum += static_cast<double>(c.response());
                sorted.push_back(c.response());
            }
            std::sort(sorted.begin(), sorted.end());
            const double mean = sum / static_cast<double>(n);
            ASSERT_EQ(responses.size(), n);
            EXPECT_EQ(responses.mean(), mean);
            EXPECT_EQ(log.meanResponse(), mean);

            auto rank = [n](double q) {
                return std::min(static_cast<std::size_t>(
                                    q * static_cast<double>(n - 1) + 0.5),
                                n - 1);
            };
            std::vector<double> qs = {0.95, 0.99, 0.0, 1.0, 0.5,
                                      0.99, 0.95, 1.0, 0.25, 0.0};
            for (int k = 0; k < 20; ++k)
                qs.push_back(rng.uniform());
            for (const double q : qs) {
                ASSERT_EQ(responses.quantile(q), sorted[rank(q)])
                    << "q=" << q;
                ASSERT_EQ(log.responseQuantile(q), sorted[rank(q)])
                    << "q=" << q;
            }
            // Selection reorders, but the mean is the arrival-order sum.
            EXPECT_EQ(responses.mean(), mean);
            // A response appended after a selection is selected too.
            responses.add(sorted.back() + 1);
            EXPECT_EQ(responses.quantile(1.0), sorted.back() + 1);
            EXPECT_EQ(responses.quantile(0.0), sorted.front());
        }
    }
}

TEST(Drive, ResponseLogSinkSeesEveryCompletion)
{
    Rng rng(10);
    synth::Workload w = synth::Workload::makeOltp(90000, 150.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    DiskDrive drive(testConfig(true));
    const ServiceLog whole = drive.service(tr);
    ResponseLog responses;
    trace::MsTraceSource src(tr);
    const ServiceLog streamed = drive.service(src, &responses, 7);
    EXPECT_TRUE(streamed.completions.empty());
    ASSERT_EQ(responses.size(), whole.completions.size());
    EXPECT_EQ(responses.mean(), whole.meanResponse());
    for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(responses.quantile(q), whole.responseQuantile(q));
}

TEST(DriveDeathTest, ResponseLogQuantileBounds)
{
    ResponseLog empty;
    EXPECT_DEATH(empty.quantile(0.5), "quantile of empty log");
    ResponseLog one;
    one.add(5);
    EXPECT_DEATH(one.quantile(1.5), "quantile out of range");
}

TEST(Drive, EmptyTraceProducesEmptyLog)
{
    DiskDrive drive(testConfig(true));
    trace::MsTrace tr("t", 0, kSec);
    ServiceLog log = drive.service(tr);
    EXPECT_TRUE(log.completions.empty());
    EXPECT_EQ(log.busyTime(), 0);
    EXPECT_DOUBLE_EQ(log.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(log.meanResponse(), 0.0);
}

TEST(Drive, UtilizationSeriesDropsPartialTrailingBin)
{
    ServiceLog log;
    log.window_start = 0;
    log.window_end = 25 * kSec; // 2 full 10 s bins + 5 s tail
    log.busy.emplace_back(0, 5 * kSec);
    log.busy.emplace_back(20 * kSec, 25 * kSec);
    stats::BinnedSeries u = log.utilizationSeries(10 * kSec);
    ASSERT_EQ(u.size(), 2u);
    EXPECT_DOUBLE_EQ(u.at(0), 0.5);
    EXPECT_DOUBLE_EQ(u.at(1), 0.0);
}

TEST(Drive, UtilizationSeriesShortWindowSingleBin)
{
    ServiceLog log;
    log.window_start = 0;
    log.window_end = 4 * kSec; // shorter than one bin
    log.busy.emplace_back(0, kSec);
    stats::BinnedSeries u = log.utilizationSeries(10 * kSec);
    ASSERT_EQ(u.size(), 1u);
    EXPECT_DOUBLE_EQ(u.at(0), 0.25); // normalized by covered span
}

TEST(Drive, UtilizationSeriesMatchesTotals)
{
    Rng rng(8);
    synth::Workload w = synth::Workload::makeOltp(100000, 40.0);
    trace::MsTrace tr = w.generate(rng, "t", 0, 20 * kSec);
    ServiceLog log = DiskDrive(testConfig(false)).service(tr);
    stats::BinnedSeries busy = log.busySeries(kSec);
    EXPECT_NEAR(busy.total(), static_cast<double>(log.busyTime()),
                1.0);
}

} // anonymous namespace
} // namespace disk
} // namespace dlw
