/**
 * @file
 * Complexity as a tested property: serving a saturated trace must
 * cost time linear in its length, however deep the drive queue
 * grows.  An engine whose per-dispatch work grows with queue depth
 * (a vector popped from the front, a full scan per request) shows a
 * log-log slope near 2 here and fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "stats/regression.hh"

namespace dlw
{
namespace disk
{
namespace
{

/**
 * n random reads, one every 2 ms: 500 req/s against an uncached
 * enterprise drive that serves fewer than 200, so the queue ends
 * about 0.6 n deep.
 */
trace::MsTrace
saturatedTrace(std::size_t n, Lba capacity)
{
    const Tick gap = 2 * kMsec;
    trace::MsTrace tr("t", 0, static_cast<Tick>(n) * gap);
    Rng rng(21);
    for (std::size_t i = 0; i < n; ++i) {
        trace::Request r;
        r.arrival = static_cast<Tick>(i) * gap;
        r.lba = static_cast<Lba>(rng.uniformInt(
            0, static_cast<std::int64_t>(capacity) - 64));
        r.blocks = 8;
        r.op = trace::Op::Read;
        tr.append(r);
    }
    return tr;
}

TEST(DriveScaling, SaturatedServiceIsLinearInTraceLength)
{
    DriveConfig cfg = DriveConfig::makeEnterprise();
    cfg.cache.enabled = false;
    DiskDrive drive(cfg);

    const std::size_t n = 8000;
    std::vector<double> log_n;
    std::vector<double> log_ns;
    std::vector<double> mean_response;
    for (const std::size_t k : {n, 2 * n, 4 * n, 8 * n}) {
        const trace::MsTrace tr =
            saturatedTrace(k, cfg.geometry.capacityBlocks());
        // The minimum of three runs filters out scheduling noise
        // from other processes; it is the run closest to the
        // engine's own cost.
        double best_ns = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            const ServiceLog log = drive.service(tr);
            const auto t1 = std::chrono::steady_clock::now();
            const double ns = static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0).count());
            best_ns = rep == 0 ? ns : std::min(best_ns, ns);
            if (rep == 0) {
                ASSERT_EQ(log.completions.size(), k);
                mean_response.push_back(log.meanResponse());
            }
        }
        log_n.push_back(std::log(static_cast<double>(k)));
        log_ns.push_back(std::log(std::max(best_ns, 1.0)));
    }

    // The trace must really saturate the drive, or a queue-depth
    // bound engine would look linear: the queue, and with it the
    // mean response, grows in proportion to the trace.
    EXPECT_GT(mean_response.back(), 4.0 * mean_response.front());

    const double slope = stats::leastSquares(log_n, log_ns).slope;
    RecordProperty("slope", std::to_string(slope));
    EXPECT_LE(slope, 1.3) << "service time grows as n^" << slope;
}

} // namespace
} // namespace disk
} // namespace dlw
