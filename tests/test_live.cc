/**
 * @file
 * LiveCharacterization's stream-readiness errors, pinned byte for
 * byte.
 *
 * observe() refuses a batch holding a zero-length request, an
 * arrival before its predecessor (or the window start), or an
 * arrival at or past the window end.  The daemon sends these texts
 * to clients on the `DLWR1 error` line and `dlwtool characterize`
 * prints them, so each one is checked here as whole strings, with
 * the global stream offset `n + i` crossing batch boundaries at batch
 * sizes 1, 7 and 4096.  The checkpointed fold state (request count
 * and previous arrival) after a refusal is pinned too.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binenc.hh"
#include "common/rng.hh"
#include "core/live.hh"
#include "trace/batch.hh"

namespace
{

using namespace dlw;

constexpr Tick kStart = 1000;
constexpr Tick kDuration = 50000000;
constexpr Tick kEnd = kStart + kDuration;
constexpr std::size_t kRecords = 10000;

const std::size_t kBatchSizes[] = {1, 7, 4096};
const std::size_t kPositions[] = {0, 1, 6, 7, 8, 4095, 4096, 4097,
                                  kRecords - 1};

trace::MsStreamHeader
header()
{
    trace::MsStreamHeader h;
    h.drive_id = "live-drv";
    h.start = kStart;
    h.duration = kDuration;
    return h;
}

/** A seeded arrival-sorted stream inside the window, with ties. */
std::vector<trace::Request>
sortedStream(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<trace::Request> out(kRecords);
    Tick at = kStart;
    for (trace::Request &r : out) {
        at += rng.uniformInt(0, 4000);
        r.arrival = at;
        r.lba = static_cast<Lba>(rng.uniformInt(0, 1 << 20));
        r.blocks = static_cast<BlockCount>(rng.uniformInt(1, 64));
        r.op = rng.uniform() < 0.6 ? trace::Op::Read : trace::Op::Write;
    }
    return out;
}

/** Fold `reqs` in batches of `cap`; the first refusal, or OK. */
Status
feed(core::LiveCharacterization &live,
     const std::vector<trace::Request> &reqs, std::size_t cap)
{
    trace::RequestBatch batch(cap);
    for (std::size_t i = 0; i < reqs.size();) {
        batch.clear();
        while (!batch.full() && i < reqs.size())
            batch.append(reqs[i++]);
        const Status s = live.observe(batch);
        if (!s.ok())
            return s;
    }
    return Status();
}

/** The (requests, previous arrival) tail of a saveState() blob. */
std::pair<std::uint64_t, Tick>
savedCursor(const core::LiveCharacterization &live)
{
    std::string blob;
    BinEnc enc(blob);
    live.saveState(enc);
    std::uint64_t n = 0;
    Tick prev = 0;
    std::memcpy(&n, blob.data() + blob.size() - 16, 8);
    std::memcpy(&prev, blob.data() + blob.size() - 8, 8);
    return {n, prev};
}

/**
 * Corrupt record `pos`, fold at every batch size, and check the exact
 * message plus the fold state left behind: every batch before the
 * failing one counted, and the previous arrival at record pos - 1.
 */
template <typename Corrupt, typename Expect>
void
checkRefusal(Corrupt corrupt, Expect expect)
{
    for (std::size_t pos : kPositions) {
        std::vector<trace::Request> reqs = sortedStream(7 + pos);
        corrupt(reqs, pos);
        const std::string want = expect(reqs, pos);
        for (std::size_t cap : kBatchSizes) {
            SCOPED_TRACE("pos " + std::to_string(pos) + " batch " +
                         std::to_string(cap));
            core::LiveCharacterization live(header());
            const Status s = feed(live, reqs, cap);
            EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
            EXPECT_EQ(s.message(), want);
            EXPECT_EQ(live.requests(), pos / cap * cap);
            const auto [n, prev] = savedCursor(live);
            EXPECT_EQ(n, pos / cap * cap);
            EXPECT_EQ(prev, pos == 0 ? kStart : reqs[pos - 1].arrival);
        }
    }
}

TEST(LiveErrors, ZeroLengthRequestText)
{
    checkRefusal(
        [](std::vector<trace::Request> &r, std::size_t pos) {
            r[pos].blocks = 0;
        },
        [](const std::vector<trace::Request> &, std::size_t pos) {
            return "zero-length request at stream offset " +
                   std::to_string(pos);
        });
}

TEST(LiveErrors, OutOfOrderArrivalText)
{
    checkRefusal(
        [](std::vector<trace::Request> &r, std::size_t pos) {
            r[pos].arrival =
                (pos == 0 ? kStart : r[pos - 1].arrival) - 1;
        },
        [](const std::vector<trace::Request> &r, std::size_t pos) {
            const Tick prev = pos == 0 ? kStart : r[pos - 1].arrival;
            return "out-of-order arrival at stream offset " +
                   std::to_string(pos) + " (" +
                   std::to_string(r[pos].arrival) + " after " +
                   std::to_string(prev) + ")";
        });
}

TEST(LiveErrors, OutsideWindowText)
{
    checkRefusal(
        [](std::vector<trace::Request> &r, std::size_t pos) {
            r[pos].arrival = kEnd;
        },
        [](const std::vector<trace::Request> &, std::size_t pos) {
            return "arrival outside the observation window at stream"
                   " offset " +
                   std::to_string(pos);
        });
}

TEST(LiveErrors, LiteralTexts)
{
    const auto one = [](std::vector<trace::Request> reqs) {
        core::LiveCharacterization live(header());
        return feed(live, reqs, 2).message();
    };
    using trace::Op;
    EXPECT_EQ(one({{1500, 0, 8, Op::Read}, {2000, 8, 8, Op::Write},
                   {1500, 16, 8, Op::Read}}),
              "out-of-order arrival at stream offset 2 (1500 after "
              "2000)");
    EXPECT_EQ(one({{999, 0, 8, Op::Read}}),
              "out-of-order arrival at stream offset 0 (999 after "
              "1000)");
    EXPECT_EQ(one({{1500, 0, 8, Op::Read}, {1600, 8, 0, Op::Read}}),
              "zero-length request at stream offset 1");
    EXPECT_EQ(one({{1500, 0, 8, Op::Read}, {1600, 8, 8, Op::Read},
                   {1700, 8, 8, Op::Read}, {kEnd, 8, 8, Op::Read}}),
              "arrival outside the observation window at stream offset "
              "3");
}

TEST(LiveErrors, RulesApplyInOrder)
{
    // A record breaking several rules reports the first: size, then
    // order, then the window.
    const auto one = [](trace::Request bad) {
        core::LiveCharacterization live(header());
        return feed(live, {{2000, 0, 8, trace::Op::Read}, bad}, 4096)
            .message();
    };
    EXPECT_EQ(one({1500, 0, 0, trace::Op::Read}),
              "zero-length request at stream offset 1");
    EXPECT_EQ(one({kEnd, 0, 0, trace::Op::Read}),
              "zero-length request at stream offset 1");
    // Below the start is out of order (the previous arrival starts
    // at the window start), never outside the window.
    core::LiveCharacterization live(header());
    EXPECT_EQ(feed(live, {{kStart - 5, 0, 8, trace::Op::Read}}, 1)
                  .message(),
              "out-of-order arrival at stream offset 0 (995 after "
              "1000)");
}

TEST(LiveErrors, WindowEdgesAndTiesAreLegal)
{
    std::vector<trace::Request> reqs = {
        {kStart, 0, 8, trace::Op::Read},
        {kStart, 8, 8, trace::Op::Write},
        {kEnd - 1, 16, 8, trace::Op::Read},
        {kEnd - 1, 24, ~BlockCount{0}, trace::Op::Read},
    };
    for (std::size_t cap : kBatchSizes) {
        core::LiveCharacterization live(header());
        EXPECT_TRUE(feed(live, reqs, cap).ok());
        EXPECT_EQ(live.requests(), reqs.size());
        EXPECT_EQ(savedCursor(live).second, kEnd - 1);
    }
}

TEST(LiveErrors, CleanStreamFoldsTheSameAtEveryBatchSize)
{
    const std::vector<trace::Request> reqs = sortedStream(3);
    std::string want;
    for (std::size_t cap : kBatchSizes) {
        core::LiveCharacterization live(header());
        ASSERT_TRUE(feed(live, reqs, cap).ok());
        EXPECT_EQ(live.requests(), kRecords);
        EXPECT_EQ(savedCursor(live).second, reqs.back().arrival);
        const std::string got = live.finish().render();
        if (want.empty())
            want = got;
        EXPECT_EQ(got, want);
    }
}

} // anonymous namespace
