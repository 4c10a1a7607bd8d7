/**
 * @file
 * Differential tests: the drive engine against the naive reference
 * engine in naive_drive.hh, over seeded traces and every scheduler,
 * cache and drive-class combination.  Both must produce the same
 * completions, element for element, and the same counters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "naive_drive.hh"
#include "synth/workload.hh"

namespace dlw
{
namespace disk
{
namespace
{

struct OracleConfig
{
    std::string name;
    DriveConfig drive;
};

/** {FCFS, SSTF, Elevator} x cache {on, off} x {enterprise, nearline}. */
std::vector<OracleConfig>
allConfigs()
{
    std::vector<OracleConfig> out;
    for (const bool nearline : {false, true}) {
        for (const SchedPolicy p :
             {SchedPolicy::Fcfs, SchedPolicy::Sstf,
              SchedPolicy::Elevator}) {
            for (const bool cache : {true, false}) {
                DriveConfig d = nearline ? DriveConfig::makeNearline()
                                         : DriveConfig::makeEnterprise();
                d.sched = p;
                d.cache.enabled = cache;
                out.push_back(OracleConfig{
                    std::string(nearline ? "nearline" : "enterprise") +
                        "/" + schedPolicyName(p) + "/cache-" +
                        (cache ? "on" : "off"),
                    std::move(d)});
            }
        }
    }
    return out;
}

/** Stamps a different tenant onto every batch it passes through. */
class TaggingSource : public trace::RequestSource
{
  public:
    explicit TaggingSource(const trace::MsTrace &tr) : inner_(tr) {}

    const std::string &driveId() const override
    {
        return inner_.driveId();
    }

    Tick start() const override { return inner_.start(); }

    Tick duration() const override { return inner_.duration(); }

    bool
    next(trace::RequestBatch &batch) override
    {
        if (!inner_.next(batch))
            return false;
        qos::TagId tag;
        tag.tenant = static_cast<std::uint32_t>(batches_++ % 3);
        batch.setTag(tag);
        return true;
    }

  private:
    trace::MsTraceSource inner_;
    std::size_t batches_ = 0;
};

void
expectSameLog(const ServiceLog &got, const ServiceLog &want)
{
    ASSERT_EQ(got.completions.size(), want.completions.size());
    for (std::size_t i = 0; i < want.completions.size(); ++i) {
        const Completion &g = got.completions[i];
        const Completion &w = want.completions[i];
        // Stop at the first divergence: everything after it differs.
        ASSERT_EQ(g.index, w.index) << "completion " << i;
        ASSERT_EQ(g.arrival, w.arrival) << "completion " << i;
        ASSERT_EQ(g.start, w.start) << "completion " << i;
        ASSERT_EQ(g.finish, w.finish) << "completion " << i;
        ASSERT_EQ(g.read, w.read) << "completion " << i;
        ASSERT_EQ(g.cache_hit, w.cache_hit) << "completion " << i;
        ASSERT_EQ(g.tag, w.tag) << "completion " << i;
    }
    EXPECT_EQ(got.busy, want.busy);
    EXPECT_EQ(got.read_hits, want.read_hits);
    EXPECT_EQ(got.buffered_writes, want.buffered_writes);
    EXPECT_EQ(got.write_through, want.write_through);
    EXPECT_EQ(got.destages, want.destages);
    EXPECT_EQ(got.window_start, want.window_start);
    EXPECT_EQ(got.window_end, want.window_end);
}

/** Serve `tr` with both engines under every configuration. */
void
expectEnginesAgree(const trace::MsTrace &tr,
                   std::size_t batch = trace::kDefaultBatchRequests)
{
    for (const OracleConfig &c : allConfigs()) {
        SCOPED_TRACE(c.name);
        TaggingSource got_src(tr);
        TaggingSource want_src(tr);
        const ServiceLog got =
            DiskDrive(c.drive).service(got_src, nullptr, batch);
        const ServiceLog want =
            naive::service(c.drive, want_src, nullptr, batch);
        expectSameLog(got, want);
    }
}

trace::MsTrace
generated(synth::Workload w, std::uint64_t seed, Tick duration)
{
    Rng rng(seed);
    return w.generate(rng, "t", 0, duration);
}

Lba
capacity()
{
    return DriveConfig::makeEnterprise().geometry.capacityBlocks();
}

TEST(DriveOracle, ModerateOltp)
{
    expectEnginesAgree(generated(
        synth::Workload::makeOltp(capacity(), 80.0), 11, 60 * kSec));
}

TEST(DriveOracle, FileServerWithDestages)
{
    expectEnginesAgree(generated(
        synth::Workload::makeFileServer(capacity(), 60.0), 12,
        60 * kSec));
}

TEST(DriveOracle, StreamingAndBackup)
{
    expectEnginesAgree(generated(
        synth::Workload::makeStreaming(capacity(), 100.0), 13,
        30 * kSec));
    expectEnginesAgree(generated(
        synth::Workload::makeBackup(capacity(), 100.0), 14, 30 * kSec));
}

TEST(DriveOracle, SaturatedOltp)
{
    // Arrivals at twice what the drive can serve: the queue grows to
    // thousands, which is where the two engines' data structures
    // differ most.
    const trace::MsTrace tr = generated(
        synth::Workload::makeOltp(capacity(), 400.0), 15, 20 * kSec);
    ASSERT_GT(tr.size(), 6000u);
    expectEnginesAgree(tr);
}

TEST(DriveOracle, SmallBatchesAcrossTagBoundaries)
{
    // Batches of 7 move every tag change into the middle of the
    // engine's one-request lookahead.
    expectEnginesAgree(generated(
        synth::Workload::makeFileServer(capacity(), 120.0), 16,
        20 * kSec), 7);
}

TEST(DriveOracle, ArrivalsTieWithTheDestageTimer)
{
    // Requests on a grid of exactly one destage idle wait: a buffered
    // write arriving at an idle drive arms the destage timer for the
    // next grid tick, where the next arrival must fire first and
    // cancel it.  Every fifth tick stays empty so the timer also gets
    // to fire, and every fourth request is a read.
    const Tick wait = DriveConfig::makeEnterprise().destage_idle_wait;
    trace::MsTrace tr("t", 0, 10 * kSec);
    Rng rng(17);
    for (int k = 0; k < 400; ++k) {
        if (k % 5 == 4)
            continue;
        trace::Request r;
        r.arrival = k * wait;
        r.lba = static_cast<Lba>(rng.uniformInt(
            0, static_cast<std::int64_t>(capacity()) - 64));
        r.blocks = 8;
        r.op = k % 4 == 3 ? trace::Op::Read : trace::Op::Write;
        tr.append(r);
    }
    expectEnginesAgree(tr);
}

TEST(DriveOracle, CompletionSinkSeesTheSameStream)
{
    struct Collect : CompletionSink
    {
        std::vector<Completion> got;
        void onCompletion(const Completion &c) override
        {
            got.push_back(c);
        }
    };
    const trace::MsTrace tr = generated(
        synth::Workload::makeOltp(capacity(), 300.0), 18, 20 * kSec);
    const DriveConfig cfg = DriveConfig::makeEnterprise();
    Collect sink;
    trace::MsTraceSource src(tr);
    ServiceLog got = DiskDrive(cfg).service(src, &sink, 64);
    EXPECT_TRUE(got.completions.empty());
    got.completions = std::move(sink.got);
    expectSameLog(got, naive::service(cfg, tr));
}

} // namespace
} // namespace disk
} // namespace dlw
