/**
 * @file
 * Unit tests for the observability layer: registry thread-safety,
 * disarmed no-op semantics, snapshot determinism, span nesting,
 * exporter golden output, and the fleet thread-count invariance of
 * every deterministic metric.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/analyze.hh"
#include "core/pass.hh"
#include "fleet/pipeline.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "trace/csvio.hh"
#include "trace/ingest.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace obs
{
namespace
{

// ---------------------------------------------------------------------------
// Registry primitives.

TEST(ObsCounter, DisarmedAddIsNoOp)
{
    resetAll();
    Counter &c = counter("test.disarmed", "events", "test", "help");
    c.reset();
    ASSERT_FALSE(enabled());
    c.add(5);
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ArmedAddAccumulates)
{
    resetAll();
    Counter &c = counter("test.armed", "events", "test", "help");
    ScopedEnable on;
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentIncrementsAreExact)
{
    resetAll();
    Counter &c = counter("test.concurrent", "events", "test", "help");
    ScopedEnable on;
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.add();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAndAdd)
{
    resetAll();
    Gauge &g = gauge("test.gauge", "tasks", "test", "help");
    ScopedEnable on;
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);
}

TEST(ObsHistogram, RecordsAndSummarizes)
{
    resetAll();
    Histogram &h =
        histogram("test.hist", "s", "test", "help", 1e-6, 1e3, 8);
    ScopedEnable on;
    h.record(0.5);
    h.record(1.5);
    h.record(2.5);
    stats::Summary s = h.summarize();
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 1.5);
    EXPECT_DOUBLE_EQ(s.min(), 0.5);
    EXPECT_DOUBLE_EQ(s.max(), 2.5);
}

TEST(ObsHistogram, ConcurrentRecordsKeepEveryObservation)
{
    resetAll();
    Histogram &h = histogram("test.hist_mt", "s", "test", "help");
    ScopedEnable on;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 5000;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            for (std::size_t i = 0; i < kPerThread; ++i)
                h.record(1e-3 * static_cast<double>(t + 1));
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(h.summarize().count(), kThreads * kPerThread);
}

TEST(ObsRegistry, SameNameReturnsSameMetric)
{
    Counter &a = counter("test.same", "events", "test", "help");
    Counter &b = counter("test.same", "events", "test", "help");
    EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, SnapshotIsSortedAndDeterministic)
{
    resetAll();
    counter("test.zz", "events", "test", "help");
    counter("test.aa", "events", "test", "help");
    const std::vector<MetricSnapshot> one =
        Registry::instance().snapshotMetrics();
    const std::vector<MetricSnapshot> two =
        Registry::instance().snapshotMetrics();
    ASSERT_EQ(one.size(), two.size());
    for (std::size_t i = 0; i + 1 < one.size(); ++i)
        EXPECT_LT(one[i].info.name, one[i + 1].info.name);
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].info.name, two[i].info.name);
        EXPECT_EQ(one[i].count, two[i].count);
        EXPECT_EQ(one[i].level, two[i].level);
    }
}

TEST(ObsTimer, ScopedTimerFeedsHistogram)
{
    resetAll();
    Histogram &h = histogram("test.timer", "s", "test", "help");
    ScopedEnable on;
    {
        ScopedTimer t(h);
    }
    stats::Summary s = h.summarize();
    EXPECT_EQ(s.count(), 1u);
    EXPECT_GE(s.min(), 0.0);
}

// ---------------------------------------------------------------------------
// Spans.

TEST(ObsSpan, DisarmedSpansLeaveNoTrace)
{
    resetAll();
    ASSERT_FALSE(enabled());
    {
        ScopedSpan outer("outer");
        ScopedSpan inner("inner");
    }
    EXPECT_TRUE(spanSnapshot().children.empty());
}

TEST(ObsSpan, NestingBuildsATree)
{
    resetAll();
    ScopedEnable on;
    for (int i = 0; i < 3; ++i) {
        ScopedSpan outer("outer");
        {
            ScopedSpan inner("inner");
        }
        {
            ScopedSpan inner("inner");
        }
    }
    {
        ScopedSpan other("other");
    }
    const SpanStats root = spanSnapshot();
    ASSERT_EQ(root.children.size(), 2u);
    // Children are sorted by name: "other" < "outer".
    EXPECT_EQ(root.children[0].name, "other");
    EXPECT_EQ(root.children[0].count, 1u);
    const SpanStats &outer = root.children[1];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.count, 3u);
    ASSERT_EQ(outer.children.size(), 1u);
    EXPECT_EQ(outer.children[0].name, "inner");
    EXPECT_EQ(outer.children[0].count, 6u);
    EXPECT_GE(outer.total_s, outer.children[0].total_s);
}

TEST(ObsSpan, ResetClearsTheTree)
{
    resetAll();
    {
        ScopedEnable on;
        ScopedSpan s("short-lived");
    }
    resetSpans();
    EXPECT_TRUE(spanSnapshot().children.empty());
}

// ---------------------------------------------------------------------------
// Exporters (pure functions of a hand-built snapshot).

MetricSnapshot
makeCounterSnap(const std::string &name, std::uint64_t count)
{
    MetricSnapshot m;
    m.info = {name, MetricType::kCounter, "records", "demo", "help"};
    m.count = count;
    return m;
}

TEST(ObsExport, JsonGolden)
{
    Snapshot snap;
    snap.metrics.push_back(makeCounterSnap("test.count", 7));
    EXPECT_EQ(renderJson(snap),
              "{\"metrics\":{\"test.count\":{\"type\":\"counter\","
              "\"unit\":\"records\",\"subsystem\":\"demo\","
              "\"value\":7}},\"spans\":{\"name\":\"\",\"count\":0,"
              "\"total_s\":0,\"min_s\":0,\"max_s\":0,"
              "\"children\":[]}}");
}

TEST(ObsExport, PromGolden)
{
    Snapshot snap;
    snap.metrics.push_back(makeCounterSnap("test.count", 7));
    MetricSnapshot g;
    g.info = {"test.depth", MetricType::kGauge, "tasks", "demo",
              "queue depth"};
    g.level = -2;
    snap.metrics.push_back(g);
    EXPECT_EQ(renderProm(snap),
              "# HELP dlw_test_count help\n"
              "# TYPE dlw_test_count counter\n"
              "dlw_test_count_total 7\n"
              "# HELP dlw_test_depth queue depth\n"
              "# TYPE dlw_test_depth gauge\n"
              "dlw_test_depth -2\n");
}

TEST(ObsExport, PromZeroCountHistogramOmitsQuantiles)
{
    Snapshot snap;
    MetricSnapshot h;
    h.info = {"test.lat", MetricType::kHistogram, "s", "demo",
              "latency"};
    h.count = 0;
    snap.metrics.push_back(h);
    // Quantiles of an empty distribution are undefined, not 0: only
    // the explicit empty _sum/_count pair may appear.
    EXPECT_EQ(renderProm(snap),
              "# HELP dlw_test_lat latency\n"
              "# TYPE dlw_test_lat summary\n"
              "dlw_test_lat_sum 0\n"
              "dlw_test_lat_count 0\n");

    // One observation brings the quantile lines back.
    snap.metrics[0].count = 1;
    snap.metrics[0].sum = 0.5;
    snap.metrics[0].p50 = 0.5;
    snap.metrics[0].p95 = 0.5;
    snap.metrics[0].p99 = 0.5;
    EXPECT_EQ(renderProm(snap),
              "# HELP dlw_test_lat latency\n"
              "# TYPE dlw_test_lat summary\n"
              "dlw_test_lat{quantile=\"0.5\"} 0.5\n"
              "dlw_test_lat{quantile=\"0.95\"} 0.5\n"
              "dlw_test_lat{quantile=\"0.99\"} 0.5\n"
              "dlw_test_lat_sum 0.5\n"
              "dlw_test_lat_count 1\n");
}

TEST(ObsExport, TextGolden)
{
    Snapshot snap;
    snap.metrics.push_back(makeCounterSnap("test.count", 7));
    EXPECT_EQ(renderText(snap),
              "== metrics ==\n"
              "  test.count  7 records  [demo]\n"
              "\n"
              "== spans ==\n"
              "  (none recorded)\n");
}

TEST(ObsExport, JsonNeverEmitsNonFinite)
{
    Snapshot snap;
    MetricSnapshot m;
    m.info = {"test.hist", MetricType::kHistogram, "s", "demo", "h"};
    m.count = 1;
    m.mean = std::numeric_limits<double>::infinity();
    m.p99 = std::numeric_limits<double>::quiet_NaN();
    snap.metrics.push_back(m);
    const std::string json = renderJson(snap);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ObsExport, ParseFormat)
{
    EXPECT_EQ(parseExportFormat("text").valueOrThrow(),
              ExportFormat::kText);
    EXPECT_EQ(parseExportFormat("json").valueOrThrow(),
              ExportFormat::kJson);
    EXPECT_EQ(parseExportFormat("prom").valueOrThrow(),
              ExportFormat::kProm);
    EXPECT_FALSE(parseExportFormat("xml").ok());
}

// ---------------------------------------------------------------------------
// Instrumented subsystems.

TEST(ObsIngest, ReaderPublishesCounters)
{
    resetAll();
    trace::registerIngestMetrics();
    ScopedEnable on;
    std::istringstream is(
        "# dlw-ms-v1,test,0,1000000000\n"
        "arrival_ns,lba,blocks,op\n"
        "0,100,8,R\n"
        "1000,bad,8,R\n"
        "2000,300,8,W\n");
    trace::IngestOptions io;
    io.policy = trace::RecordPolicy::kSkipAndCount;
    trace::IngestStats st;
    ASSERT_TRUE(trace::readMsCsv(is, io, &st).ok());

    std::map<std::string, std::uint64_t> vals;
    for (const MetricSnapshot &m :
         Registry::instance().snapshotMetrics())
        vals[m.info.name] = m.count;
    EXPECT_EQ(vals["ingest.passes"], 1u);
    EXPECT_EQ(vals["ingest.records_read"], 2u);
    EXPECT_EQ(vals["ingest.records_skipped"], 1u);
    EXPECT_EQ(vals["ingest.errors"], 1u);
    EXPECT_GT(vals["ingest.bytes_read"], 0u);
}

/** Metric counts, and span counts by name path, of one analyze run. */
std::map<std::string, std::uint64_t>
analyzeMetricValues(bool stream)
{
    Rng rng(3);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 80.0, 3);
    const std::string path = ::testing::TempDir() + "dlw_obs_analyze_" +
                             std::to_string(::getpid()) + ".csv";
    trace::writeMsCsv(path, w.generate(rng, "obs", 0, 60 * kSec));

    resetAll();
    trace::registerIngestMetrics();
    core::registerPassMetrics();
    ScopedEnable on;
    core::AnalyzeOptions opts;
    opts.stream = stream;
    std::ostringstream out;
    core::analyzeTraceFile(path, opts, out);

    std::map<std::string, std::uint64_t> vals;
    for (const MetricSnapshot &m :
         Registry::instance().snapshotMetrics())
        vals[m.info.name] = m.count;
    std::vector<std::pair<std::string, const SpanStats *>> todo;
    const SpanStats root = spanSnapshot();
    for (const SpanStats &top : root.children)
        todo.emplace_back(top.name, &top);
    while (!todo.empty()) {
        auto [path_name, node] = todo.back();
        todo.pop_back();
        vals["span." + path_name] = node->count;
        for (const SpanStats &child : node->children)
            todo.emplace_back(path_name + "/" + child.name, &child);
    }
    return vals;
}

TEST(ObsIngest, StreamedAnalyzeDecodesItsInputOnce)
{
    auto vals = analyzeMetricValues(true);
    EXPECT_EQ(vals["ingest.passes"], 1u);
    EXPECT_EQ(vals["core.pass.runs"], 1u);
    EXPECT_EQ(vals["core.pass.batches"], vals["trace.batch.batches"]);
    // Characterization time is its own slice, one per batch, nested
    // in service rather than a second trip after it.
    EXPECT_EQ(vals["span.service/ingest.parse/trace-pass"],
              vals["core.pass.batches"]);
    EXPECT_GT(vals["span.service/ingest.parse/trace-pass"], 0u);
    EXPECT_EQ(vals["span.characterize"], 1u);

    // The whole-trace path reads once and folds in its own pass.
    vals = analyzeMetricValues(false);
    EXPECT_EQ(vals["ingest.passes"], 1u);
    EXPECT_EQ(vals["core.pass.runs"], 1u);
    EXPECT_EQ(vals["span.trace-pass"], 1u);
}

/** Deterministic fleet metric values for one thread count. */
std::map<std::string, std::uint64_t>
fleetMetricValues(std::size_t threads)
{
    resetAll();
    fleet::registerFleetMetrics();
    ScopedEnable on;
    fleet::FleetConfig cfg;
    cfg.drives = 8;
    cfg.threads = threads;
    cfg.seed = 7;
    cfg.rate = 40.0;
    cfg.window = 10 * kSec;
    fleet::runFleet(cfg);

    std::map<std::string, std::uint64_t> vals;
    for (const MetricSnapshot &m :
         Registry::instance().snapshotMetrics()) {
        // Steal counts are scheduling noise by design; timing values
        // (sums, quantiles) are wall time.  Counter values and
        // histogram *counts* must match exactly.
        if (m.info.name == "fleet.pool.steals")
            continue;
        vals[m.info.name] = m.count;
    }
    // Span *counts* are part of the determinism contract too.
    for (const SpanStats &top : spanSnapshot().children) {
        vals["span." + top.name] = top.count;
        for (const SpanStats &child : top.children)
            vals["span." + top.name + "." + child.name] = child.count;
    }
    return vals;
}

TEST(ObsFleet, MetricsIdenticalAtAnyThreadCount)
{
    const auto serial = fleetMetricValues(1);
    const auto parallel = fleetMetricValues(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial.at("fleet.shards_ok"), 8u);
    EXPECT_EQ(serial.at("fleet.pool.tasks"), 8u);
    EXPECT_EQ(serial.at("stats.shard_merges"), 8u);
    EXPECT_EQ(serial.at("fleet.shard_seconds"), 8u);
    EXPECT_EQ(serial.at("span.fleet.run"), 1u);
    EXPECT_EQ(serial.at("span.fleet.shard"), 8u);
    EXPECT_EQ(serial.at("span.fleet.shard.generate"), 8u);
}

} // anonymous namespace
} // namespace obs
} // namespace dlw
