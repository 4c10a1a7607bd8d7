/**
 * @file
 * trace::ReadyChecker against the loops it replaced (naive_ready).
 *
 * Seeded batches carry clean runs with equal arrivals and arrivals on
 * the window edges, and at most one injected violation, often on a
 * batch's first or last record.  The checker's batch and per-record
 * forms must stop at the same index, for the same reason, with the
 * same previous arrival as the naive loops; LiveCharacterization and
 * MsTrace::checkValid must render the same text.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/live.hh"
#include "naive_ready.hh"
#include "trace/batch.hh"
#include "trace/mstrace.hh"
#include "trace/ready.hh"

namespace
{

using namespace dlw;
using trace::ReadyFault;
using trace::Request;

constexpr Tick kStart = 5000;
constexpr Tick kDuration = 2000000;
constexpr Tick kEnd = kStart + kDuration;

/** What a 2^32 blocks field narrows to in a 32-bit BlockCount. */
constexpr BlockCount kBlocks2To32 = static_cast<BlockCount>(1ull << 32);

enum class Damage
{
    kZeroBlocks,
    kBlocks2To32,
    kZeroAndBeforePrevious, // breaks two rules: size wins
    kZeroAndPastEnd,
    kBeforePrevious,
    kBelowStart,
    kAtEnd,
    kPastEnd,
    kCount,
};

/**
 * `n` sorted records from `from` inside the window: ties are common,
 * and some records sit exactly on the window's first and last tick.
 */
std::vector<Request>
cleanRun(Rng &rng, std::size_t n, Tick from)
{
    std::vector<Request> out(n);
    Tick at = from;
    for (Request &r : out) {
        const double u = rng.uniform();
        if (u < 0.02)
            at = kEnd - 1;
        else if (u > 0.3)
            at = std::min(kEnd - 1, at + rng.uniformInt(0, 900));
        r.arrival = at;
        r.lba = static_cast<Lba>(rng.uniformInt(0, 1 << 24));
        r.blocks = rng.uniform() < 0.01
            ? ~BlockCount{0}
            : static_cast<BlockCount>(rng.uniformInt(1, 256));
        r.op = rng.uniform() < 0.5 ? trace::Op::Read : trace::Op::Write;
    }
    return out;
}

/** Break record `pos` the way `d` says. */
void
damage(std::vector<Request> &reqs, std::size_t pos, Damage d, Tick prev)
{
    Request &r = reqs[pos];
    switch (d) {
      case Damage::kZeroBlocks:
        r.blocks = 0;
        break;
      case Damage::kBlocks2To32:
        r.blocks = kBlocks2To32;
        break;
      case Damage::kZeroAndBeforePrevious:
        r.blocks = 0;
        r.arrival = (pos == 0 ? prev : reqs[pos - 1].arrival) - 1;
        break;
      case Damage::kZeroAndPastEnd:
        r.blocks = 0;
        r.arrival = kEnd;
        break;
      case Damage::kBeforePrevious:
        r.arrival = (pos == 0 ? prev : reqs[pos - 1].arrival) - 1;
        break;
      case Damage::kBelowStart:
        r.arrival = kStart - 1;
        break;
      case Damage::kAtEnd:
        r.arrival = kEnd;
        break;
      case Damage::kPastEnd:
      case Damage::kCount:
        r.arrival = kEnd + 12345;
        break;
    }
}

/** A seeded batch, damaged at its first, last or a random record. */
std::vector<Request>
seededBatch(Rng &rng, std::size_t n, Tick prev)
{
    std::vector<Request> reqs = cleanRun(rng, n, prev);
    if (rng.uniform() < 0.2)
        return reqs;
    const double where = rng.uniform();
    const std::size_t pos = where < 0.35 ? 0
        : where < 0.7 ? n - 1
        : static_cast<std::size_t>(rng.uniformInt(
              0, static_cast<std::int64_t>(n) - 1));
    const auto d = static_cast<Damage>(
        rng.uniformInt(0, static_cast<int>(Damage::kCount) - 1));
    damage(reqs, pos, d, prev);
    return reqs;
}

trace::RequestBatch
toBatch(const std::vector<Request> &reqs)
{
    trace::RequestBatch batch(reqs.size());
    for (const Request &r : reqs)
        batch.append(r);
    return batch;
}

std::size_t
seededSize(Rng &rng)
{
    const double u = rng.uniform();
    if (u < 0.1)
        return 1;
    if (u < 0.15)
        return 4096;
    return static_cast<std::size_t>(rng.uniformInt(2, 300));
}

TEST(ReadyOracle, BatchAndRecordFormsMatchTheNaiveLoops)
{
    Rng rng(2024);
    for (int iter = 0; iter < 4000; ++iter) {
        SCOPED_TRACE("iter " + std::to_string(iter));
        const Tick prev0 = rng.uniform() < 0.3
            ? kStart
            : kStart + rng.uniformInt(0, kDuration - 1);
        const std::vector<Request> reqs =
            seededBatch(rng, seededSize(rng), prev0);
        const trace::RequestBatch batch = toBatch(reqs);

        trace::ReadyChecker checker(kStart, kEnd);
        checker.setPrev(prev0);
        const trace::ReadyVerdict v = checker.check(batch);

        Tick live_prev = prev0;
        const trace::naive::Verdict nv =
            trace::naive::liveObserve(batch, 0, live_prev, kEnd);
        Tick src_prev = prev0;
        const std::size_t src_index =
            trace::naive::readyCheckSource(batch, src_prev, kEnd);

        ASSERT_EQ(v.index, nv.index);
        ASSERT_EQ(v.index, src_index);
        ASSERT_EQ(v.fault, nv.fault);
        ASSERT_EQ(v.ok(), v.index == reqs.size());
        ASSERT_EQ(checker.prev(), live_prev);
        ASSERT_EQ(checker.prev(), src_prev);

        trace::ReadyChecker single(kStart, kEnd);
        single.setPrev(prev0);
        std::size_t i = 0;
        ReadyFault f = ReadyFault::kNone;
        for (; i < reqs.size(); ++i) {
            f = single.check(reqs[i].arrival, reqs[i].blocks);
            if (f != ReadyFault::kNone)
                break;
        }
        ASSERT_EQ(i, v.index);
        ASSERT_EQ(f, v.fault);
        ASSERT_EQ(single.prev(), checker.prev());
    }
}

TEST(ReadyOracle, LiveObserveTextMatchesAcrossBatches)
{
    Rng rng(77);
    trace::MsStreamHeader meta;
    meta.drive_id = "oracle";
    meta.start = kStart;
    meta.duration = kDuration;
    int refusals = 0;
    for (int stream = 0; stream < 300; ++stream) {
        SCOPED_TRACE("stream " + std::to_string(stream));
        core::LiveCharacterization live(meta);
        Tick prev = kStart;
        std::uint64_t n = 0;
        for (int b = 0; b < 20; ++b) {
            // Mostly clean batches, so refusals land deep in a stream.
            std::vector<Request> reqs =
                rng.uniform() < 0.8
                    ? cleanRun(rng, seededSize(rng), prev)
                    : seededBatch(rng, seededSize(rng), prev);
            const trace::RequestBatch batch = toBatch(reqs);
            const trace::naive::Verdict nv =
                trace::naive::liveObserve(batch, n, prev, kEnd);
            const Status s = live.observe(batch);
            ASSERT_EQ(s.ok(), nv.fault == ReadyFault::kNone);
            if (!s.ok()) {
                EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
                ASSERT_EQ(s.message(), nv.text);
                ++refusals;
                break;
            }
            n += batch.size();
            ASSERT_EQ(live.requests(), n);
        }
    }
    EXPECT_GT(refusals, 50);
}

TEST(ReadyOracle, MsTraceCheckValidTextMatches)
{
    // MsTrace::append refuses zero-length requests, so the size rule
    // is not reachable here; the order and window rules are.
    Rng rng(5);
    int invalid = 0;
    for (int iter = 0; iter < 1500; ++iter) {
        SCOPED_TRACE("iter " + std::to_string(iter));
        std::vector<Request> reqs =
            cleanRun(rng, seededSize(rng), kStart);
        if (rng.uniform() < 0.8) {
            const std::size_t pos = rng.uniform() < 0.5
                ? reqs.size() - 1
                : static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(reqs.size()) - 1));
            const auto d = static_cast<Damage>(rng.uniformInt(
                static_cast<int>(Damage::kBeforePrevious),
                static_cast<int>(Damage::kPastEnd)));
            damage(reqs, pos, d, kStart);
        }
        trace::MsTrace tr("ms-" + std::to_string(iter), kStart,
                          kDuration);
        for (const Request &r : reqs)
            tr.append(r);
        const trace::naive::Verdict nv =
            trace::naive::msTraceCheckValid(tr);
        const Status s = tr.checkValid();
        ASSERT_EQ(s.ok(), nv.fault == ReadyFault::kNone);
        if (!s.ok()) {
            EXPECT_EQ(s.code(), StatusCode::kCorruptData);
            ASSERT_EQ(s.message(), nv.text);
            ++invalid;
        }
    }
    EXPECT_GT(invalid, 500);
}

TEST(ReadyOracle, EdgeRecords)
{
    struct Edge
    {
        Tick arrival;
        BlockCount blocks;
        ReadyFault want;
    };
    const Edge edges[] = {
        {kStart, 8, ReadyFault::kNone},
        {kStart - 1, 8, ReadyFault::kOutOfOrder},
        {kEnd - 1, 8, ReadyFault::kNone},
        {kEnd, 8, ReadyFault::kOutsideWindow},
        {kStart, 0, ReadyFault::kZeroBlocks},
        {kStart, kBlocks2To32, ReadyFault::kZeroBlocks},
        {kStart, ~BlockCount{0}, ReadyFault::kNone},
        {kEnd, 0, ReadyFault::kZeroBlocks},
    };
    for (const Edge &e : edges) {
        SCOPED_TRACE(std::to_string(e.arrival) + "/" +
                     std::to_string(e.blocks));
        trace::ReadyChecker checker(kStart, kEnd);
        EXPECT_EQ(checker.check(e.arrival, e.blocks), e.want);
        EXPECT_EQ(checker.prev(),
                  e.want == ReadyFault::kNone ? e.arrival : kStart);

        const trace::RequestBatch batch =
            toBatch({{e.arrival, 0, e.blocks, trace::Op::Read}});
        Tick prev = kStart;
        EXPECT_EQ(trace::naive::liveObserve(batch, 0, prev, kEnd).fault,
                  e.want);
    }

    // Equal arrivals are legal, and a failure leaves prev() on the
    // last accepted arrival.
    trace::ReadyChecker checker(kStart, kEnd);
    const trace::RequestBatch ties =
        toBatch({{kStart + 9, 0, 8, trace::Op::Read},
                 {kStart + 9, 8, 8, trace::Op::Write},
                 {kStart + 9, 16, 8, trace::Op::Read},
                 {kStart + 8, 24, 8, trace::Op::Read}});
    const trace::ReadyVerdict v = checker.check(ties);
    EXPECT_EQ(v.index, 3u);
    EXPECT_EQ(v.fault, ReadyFault::kOutOfOrder);
    EXPECT_EQ(checker.prev(), kStart + 9);

    const trace::ReadyVerdict empty =
        checker.check(trace::RequestBatch(4));
    EXPECT_TRUE(empty.ok());
    EXPECT_EQ(empty.index, 0u);
}

} // anonymous namespace
