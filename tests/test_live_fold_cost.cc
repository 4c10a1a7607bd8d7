/**
 * @file
 * The live fold's cost bound: LiveCharacterization::observe may cost
 * at most 1.5x the three accumulators it feeds.
 *
 * observe() checks each record for stream readiness and then hands
 * the batch to the burstiness, read/write-mix and totals
 * accumulators.  The check is a few compares per record; anything
 * heavier on the happy path (say, building an error message for
 * every record that passes) multiplies the fold's cost while leaving
 * every output byte and every allocation count unchanged.  This test
 * times both sides over the same 1M seeded sorted requests, keeps the
 * fastest of five runs of each, and bounds the ratio.
 *
 * A timing test: it runs alone (RUN_SERIAL) so parallel tests do not
 * skew it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/burstiness.hh"
#include "core/live.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "trace/batch.hh"
#include "trace/source.hh"

namespace
{

using namespace dlw;

constexpr std::size_t kBatches = 256;
constexpr std::size_t kBatchRequests = 4096; // 1,048,576 requests
constexpr int kRuns = 5;
constexpr double kMaxRatio = 1.5;

/** Header-only source: what the accumulators' begin() reads. */
class HeaderSource final : public trace::RequestSource
{
  public:
    explicit HeaderSource(const trace::MsStreamHeader &m) : m_(m) {}

    const std::string &driveId() const override { return m_.drive_id; }

    Tick start() const override { return m_.start; }

    Tick duration() const override { return m_.duration; }

    bool next(trace::RequestBatch &) override { return false; }

  private:
    trace::MsStreamHeader m_;
};

/** Seeded sorted batches: ~4000 req/s, 60% reads, 4-64 KiB. */
std::vector<trace::RequestBatch>
sortedBatches(trace::MsStreamHeader &meta)
{
    Rng rng(11);
    std::vector<trace::RequestBatch> out;
    out.reserve(kBatches);
    Tick at = 0;
    for (std::size_t b = 0; b < kBatches; ++b) {
        out.emplace_back(kBatchRequests);
        for (std::size_t i = 0; i < kBatchRequests; ++i) {
            at += static_cast<Tick>(rng.exponential(250000.0));
            trace::Request r;
            r.arrival = at;
            r.lba = static_cast<Lba>(rng.uniformInt(0, 1ll << 30));
            r.blocks =
                static_cast<BlockCount>(8 << rng.uniformInt(0, 4));
            r.op = rng.uniform() < 0.6 ? trace::Op::Read
                                       : trace::Op::Write;
            out.back().append(r);
        }
    }
    meta.drive_id = "fold-cost";
    meta.start = 0;
    meta.duration = at + 1;
    return out;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

TEST(LiveFoldCost, ObserveCostsAtMostOneAndAHalfAccumulatorFolds)
{
    trace::MsStreamHeader meta;
    const std::vector<trace::RequestBatch> batches = sortedBatches(meta);
    const double requests =
        static_cast<double>(kBatches * kBatchRequests);

    double live_best = 1e30;
    double direct_best = 1e30;
    std::uint64_t folded = 0;
    for (int run = 0; run < kRuns; ++run) {
        {
            core::LiveCharacterization live(meta);
            const auto t0 = std::chrono::steady_clock::now();
            for (const trace::RequestBatch &b : batches) {
                const Status s = live.observe(b);
                ASSERT_TRUE(s.ok()) << s.toString();
            }
            live_best = std::min(live_best, secondsSince(t0));
            folded = live.requests();
        }
        {
            HeaderSource src(meta);
            core::BurstinessAccumulator burstiness;
            core::RwMixAccumulator rwmix;
            core::TraceTotalsAccumulator totals;
            burstiness.begin(src);
            rwmix.begin(src);
            totals.begin(src);
            const auto t0 = std::chrono::steady_clock::now();
            for (const trace::RequestBatch &b : batches) {
                burstiness.observe(b);
                rwmix.observe(b);
                totals.observe(b);
            }
            direct_best = std::min(direct_best, secondsSince(t0));
            ASSERT_EQ(totals.count(), folded);
        }
    }
    ASSERT_EQ(folded, kBatches * kBatchRequests);

    const double live_ns = live_best * 1e9 / requests;
    const double direct_ns = direct_best * 1e9 / requests;
    const double ratio = live_ns / direct_ns;
    std::printf("live fold %.1f ns/req, accumulators %.1f ns/req, "
                "ratio %.2f (bound %.2f)\n",
                live_ns, direct_ns, ratio, kMaxRatio);
    EXPECT_LE(ratio, kMaxRatio)
        << "LiveCharacterization::observe costs " << live_ns
        << " ns/req against " << direct_ns
        << " ns/req for the accumulators it feeds";
}

} // anonymous namespace
