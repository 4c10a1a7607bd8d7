/**
 * @file
 * Unit tests for the bench-regression gate: BENCH report extraction
 * and the threshold semantics of diffBenchReports (wall growth, p95
 * growth, volume drift, metrics appearing or disappearing).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/benchdiff.hh"

namespace dlw
{
namespace obs
{
namespace
{

// ---------------------------------------------------------------------------
// BENCH report extraction.

/** A minimal BENCH json with one counter and one histogram. */
std::string
benchJson(double wall, double work, std::uint64_t count, double p95)
{
    std::ostringstream os;
    os << "{\"bench\":\"demo\",\"wall_seconds\":" << wall
       << ",\"snapshot\":{\"metrics\":{"
       << "\"demo.work\":{\"type\":\"counter\",\"unit\":\"ops\","
       << "\"subsystem\":\"demo\",\"value\":" << work << "},"
       << "\"demo.lat\":{\"type\":\"histogram\",\"unit\":\"s\","
       << "\"subsystem\":\"demo\",\"count\":" << count
       << ",\"sum\":1,\"mean\":1,\"min\":1,\"max\":1,\"p50\":1,"
       << "\"p95\":" << p95 << ",\"p99\":1}"
       << "},\"spans\":{}}}";
    return os.str();
}

TEST(BenchReport, ParsesWallAndMetrics)
{
    StatusOr<BenchReport> rep =
        parseBenchReport(benchJson(2.5, 100, 32, 0.7));
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().bench, "demo");
    EXPECT_DOUBLE_EQ(rep.value().wall_seconds, 2.5);
    ASSERT_EQ(rep.value().metrics.size(), 2u);
    const BenchSample &work = rep.value().metrics.at("demo.work");
    EXPECT_EQ(work.type, MetricType::kCounter);
    EXPECT_DOUBLE_EQ(work.value, 100.0);
    const BenchSample &lat = rep.value().metrics.at("demo.lat");
    EXPECT_EQ(lat.type, MetricType::kHistogram);
    EXPECT_EQ(lat.count, 32u);
    EXPECT_DOUBLE_EQ(lat.p95, 0.7);
}

TEST(BenchReport, RejectsNonBenchJson)
{
    EXPECT_FALSE(parseBenchReport("{\"other\":1}").ok());
    EXPECT_FALSE(parseBenchReport("not json").ok());
}

TEST(BenchReport, ReadReportsMissingFile)
{
    EXPECT_FALSE(readBenchReport("/nonexistent/BENCH_x.json").ok());
}

// ---------------------------------------------------------------------------
// Diff semantics.

BenchReport
report(double wall, double work, std::uint64_t count, double p95)
{
    return parseBenchReport(benchJson(wall, work, count, p95))
        .valueOrThrow();
}

TEST(BenchDiff, IdenticalReportsAreClean)
{
    const BenchReport r = report(2.0, 100, 32, 0.5);
    const BenchDiffResult d =
        diffBenchReports(r, r, BenchDiffThresholds());
    EXPECT_FALSE(d.regressed);
    for (const BenchDiffEntry &e : d.entries)
        EXPECT_FALSE(e.regressed) << e.key;
    EXPECT_TRUE(d.only_old.empty());
    EXPECT_TRUE(d.only_new.empty());
}

TEST(BenchDiff, WallGrowthBeyondThresholdRegresses)
{
    const BenchReport older = report(2.0, 100, 32, 0.5);
    const BenchReport newer = report(2.5, 100, 32, 0.5); // +25 %
    BenchDiffThresholds th;
    th.wall_pct = 10.0;
    const BenchDiffResult d = diffBenchReports(older, newer, th);
    EXPECT_TRUE(d.regressed);
    bool found = false;
    for (const BenchDiffEntry &e : d.entries) {
        if (e.key == "wall_seconds") {
            found = true;
            EXPECT_TRUE(e.regressed);
            EXPECT_NEAR(e.delta_pct, 25.0, 1e-9);
        }
    }
    EXPECT_TRUE(found);
    // A faster run never regresses on wall time.
    EXPECT_FALSE(
        diffBenchReports(newer, older, th).regressed);
}

TEST(BenchDiff, WallGrowthWithinThresholdIsClean)
{
    const BenchReport older = report(2.0, 100, 32, 0.5);
    const BenchReport newer = report(2.1, 100, 32, 0.5); // +5 %
    EXPECT_FALSE(
        diffBenchReports(older, newer, BenchDiffThresholds())
            .regressed);
}

TEST(BenchDiff, P95GrowthBeyondThresholdRegresses)
{
    const BenchReport older = report(2.0, 100, 32, 0.5);
    const BenchReport newer = report(2.0, 100, 32, 0.8); // +60 %
    const BenchDiffResult d =
        diffBenchReports(older, newer, BenchDiffThresholds());
    EXPECT_TRUE(d.regressed);
    bool found = false;
    for (const BenchDiffEntry &e : d.entries) {
        if (e.key == "demo.lat.p95") {
            found = true;
            EXPECT_TRUE(e.regressed);
        }
    }
    EXPECT_TRUE(found);
}

TEST(BenchDiff, CounterDriftEitherWayRegresses)
{
    const BenchReport base = report(2.0, 100, 32, 0.5);
    const BenchReport more = report(2.0, 120, 32, 0.5); // +20 %
    const BenchReport less = report(2.0, 80, 32, 0.5);  // -20 %
    EXPECT_TRUE(
        diffBenchReports(base, more, BenchDiffThresholds()).regressed);
    EXPECT_TRUE(
        diffBenchReports(base, less, BenchDiffThresholds()).regressed);
}

TEST(BenchDiff, MissingAndNewMetricsAreListed)
{
    const BenchReport older = report(2.0, 100, 32, 0.5);
    BenchReport newer = older;
    newer.metrics.erase("demo.lat");
    BenchSample fresh;
    fresh.type = MetricType::kCounter;
    fresh.value = 1.0;
    newer.metrics["demo.fresh"] = fresh;
    const BenchDiffResult d =
        diffBenchReports(older, newer, BenchDiffThresholds());
    ASSERT_EQ(d.only_old.size(), 1u);
    EXPECT_EQ(d.only_old[0], "demo.lat");
    ASSERT_EQ(d.only_new.size(), 1u);
    EXPECT_EQ(d.only_new[0], "demo.fresh");
}

TEST(BenchDiff, RenderNamesTheVerdict)
{
    const BenchReport older = report(2.0, 100, 32, 0.5);
    const BenchReport slower = report(3.0, 100, 32, 0.5);
    const BenchDiffThresholds th;

    const BenchDiffResult clean = diffBenchReports(older, older, th);
    EXPECT_NE(renderBenchDiff(older, older, clean)
                  .find("no regression"),
              std::string::npos);

    const BenchDiffResult bad = diffBenchReports(older, slower, th);
    const std::string text = renderBenchDiff(older, slower, bad);
    EXPECT_NE(text.find("REGRESSION"), std::string::npos);
    EXPECT_NE(text.find("wall_seconds"), std::string::npos);
}

} // anonymous namespace
} // namespace obs
} // namespace dlw
