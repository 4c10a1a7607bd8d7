/**
 * @file
 * The analyze pipeline (core/analyze.hh): the single streamed trip
 * must write the bytes the whole-trace path writes, and a trace that
 * turns unsorted, out of window or zero-length partway through must
 * end the same way under either stream mode, ingestion line and
 * error text included.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/analyze.hh"
#include "synth/workload.hh"
#include "trace/binio.hh"
#include "trace/corrupt.hh"
#include "trace/csvio.hh"
#include "trace/spc.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace core
{
namespace
{

/** A seeded OLTP trace long enough to span several 4096-batches. */
trace::MsTrace
sample()
{
    Rng rng(5);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 100.0, 5);
    return w.generate(rng, "analyze-drive", 0, 160 * kSec);
}

/** Write `content` to a unique temp file; returns its path. */
std::string
writeTemp(const std::string &content, const std::string &suffix)
{
    static int seq = 0;
    std::string path = ::testing::TempDir() + "dlw_analyze_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(seq++) + suffix;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
}

/** The CSV lines of a trace (two header lines first). */
std::vector<std::string>
csvLines(const trace::MsTrace &tr)
{
    std::ostringstream os;
    trace::writeMsCsv(os, tr);
    std::vector<std::string> lines;
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

std::string
join(const std::vector<std::string> &lines)
{
    std::string s;
    for (const std::string &l : lines)
        s += l + '\n';
    return s;
}

/** What one analyze run wrote, and the error it ended with. */
struct Outcome
{
    std::string out;
    std::string error;
};

Outcome
analyze(const std::string &path, bool stream, std::size_t batch,
        trace::RecordPolicy policy = trace::RecordPolicy::kAbort)
{
    AnalyzeOptions opts;
    opts.stream = stream;
    opts.batch_requests = batch;
    opts.ingest.policy = policy;
    Outcome o;
    std::ostringstream os;
    try {
        analyzeTraceFile(path, opts, os);
    } catch (const StatusError &e) {
        o.error = e.status().toString();
    }
    o.out = os.str();
    return o;
}

/** Streamed at batch 7 and 4096 equals --stream off. */
void
expectStreamedEqualsWholeTrace(const std::string &path,
                               trace::RecordPolicy policy,
                               const Outcome *expect = nullptr)
{
    const Outcome off = analyze(path, false, 4096, policy);
    if (expect != nullptr) {
        EXPECT_EQ(off.out, expect->out);
        EXPECT_EQ(off.error, expect->error);
    }
    for (std::size_t batch : {7, 4096}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + ", policy " +
                     trace::recordPolicyName(policy));
        const Outcome on = analyze(path, true, batch, policy);
        EXPECT_EQ(on.out, off.out);
        EXPECT_EQ(on.error, off.error);
    }
}

TEST(Analyze, CleanTraceStreamedEqualsWholeTrace)
{
    const trace::MsTrace tr = sample();
    ASSERT_GT(tr.size(), 3 * 4096u);
    const std::string csv = writeTemp(join(csvLines(tr)), ".csv");
    std::ostringstream bin;
    trace::writeMsBinary(bin, tr);
    const std::string binp = writeTemp(bin.str(), ".bin");

    const Outcome ref = analyze(csv, false, 4096);
    EXPECT_TRUE(ref.error.empty()) << ref.error;
    EXPECT_NE(ref.out.find("multi-scale characterization"),
              std::string::npos);
    EXPECT_EQ(analyze(csv, true, 1).out, ref.out);
    expectStreamedEqualsWholeTrace(csv, trace::RecordPolicy::kAbort,
                                   &ref);
    expectStreamedEqualsWholeTrace(binp, trace::RecordPolicy::kAbort,
                                   &ref);
}

TEST(Analyze, TraceTurningUnsortedFallsBackToTheWholeTracePath)
{
    std::vector<std::string> lines = csvLines(sample());
    // Two records swapped past the first two 4096-batches, and a
    // corrupt record before them so the report has an ingestion line.
    std::swap(lines[2 + 9000], lines[2 + 9001]);
    lines[2 + 100] = "garbage";
    const std::string path = writeTemp(join(lines), ".csv");

    const Outcome off =
        analyze(path, false, 4096, trace::RecordPolicy::kSkipAndCount);
    EXPECT_TRUE(off.error.empty()) << off.error;
    EXPECT_EQ(off.out.rfind("ingestion: read ", 0), 0u) << off.out;
    for (trace::RecordPolicy p : {trace::RecordPolicy::kSkipAndCount,
                                  trace::RecordPolicy::kBestEffortClamp,
                                  trace::RecordPolicy::kAbort})
        expectStreamedEqualsWholeTrace(path, p);
}

TEST(Analyze, TraceLeavingItsWindowFailsAsTheWholeTracePathDoes)
{
    const trace::MsTrace tr = sample();
    std::vector<std::string> lines = csvLines(tr);
    lines[2 + 9000] = std::to_string(tr.end() + 5) + ",8,8,R";
    lines[2 + 50] = "1,2,3";
    const std::string path = writeTemp(join(lines), ".csv");

    const Outcome off =
        analyze(path, false, 4096, trace::RecordPolicy::kSkipAndCount);
    EXPECT_NE(off.error.find("arrival"), std::string::npos)
        << off.error;
    // The whole-trace path wrote its ingestion line before it
    // validated; the streamed run must leave the same bytes.
    EXPECT_EQ(off.out.rfind("ingestion: read ", 0), 0u) << off.out;
    for (trace::RecordPolicy p : {trace::RecordPolicy::kSkipAndCount,
                                  trace::RecordPolicy::kBestEffortClamp,
                                  trace::RecordPolicy::kAbort})
        expectStreamedEqualsWholeTrace(path, p);
}

/** Set the blocks field of record line `i` (headers excluded). */
void
setBlocks(std::vector<std::string> &lines, std::size_t i,
          const char *blocks)
{
    std::string &l = lines[2 + i];
    const std::size_t a = l.find(',', l.find(',') + 1);
    const std::size_t b = l.find(',', a + 1);
    l = l.substr(0, a + 1) + blocks + l.substr(b);
}

TEST(Analyze, ZeroLengthRecordsPartwayMatchUnderEveryPolicy)
{
    std::vector<std::string> lines = csvLines(sample());
    setBlocks(lines, 8500, "0");
    const std::string path = writeTemp(join(lines), ".csv");

    const Outcome skip =
        analyze(path, false, 4096, trace::RecordPolicy::kSkipAndCount);
    EXPECT_EQ(skip.out.rfind("ingestion: read ", 0), 0u) << skip.out;
    EXPECT_NE(skip.out.find("skipped 1"), std::string::npos)
        << skip.out;
    EXPECT_NE(analyze(path, false, 4096,
                      trace::RecordPolicy::kBestEffortClamp)
                  .out.find("clamped 1"),
              std::string::npos);
    EXPECT_NE(analyze(path, false, 4096).error.find("zero-length"),
              std::string::npos);
    for (trace::RecordPolicy p : {trace::RecordPolicy::kSkipAndCount,
                                  trace::RecordPolicy::kBestEffortClamp,
                                  trace::RecordPolicy::kAbort})
        expectStreamedEqualsWholeTrace(path, p);
}

TEST(Analyze, OutOfRangeBlocksRefusedUnderEveryPolicy)
{
    // 2^32 and 2^32 + 1 do not fit a 32-bit block count: refused,
    // never wrapped to 0 or 1, and never clamped.
    std::vector<std::string> lines = csvLines(sample());
    setBlocks(lines, 8500, "4294967296");
    setBlocks(lines, 9500, "4294967297");
    const std::string path = writeTemp(join(lines), ".csv");

    for (trace::RecordPolicy p : {trace::RecordPolicy::kSkipAndCount,
                                  trace::RecordPolicy::kBestEffortClamp}) {
        const Outcome o = analyze(path, false, 4096, p);
        EXPECT_EQ(o.out.rfind("ingestion: read ", 0), 0u) << o.out;
        EXPECT_NE(o.out.find("skipped 2, clamped 0, errors 2"),
                  std::string::npos)
            << o.out;
    }
    EXPECT_EQ(analyze(path, false, 4096).error,
              "[CorruptData] reading '" + path + "': line 8503: blocks "
              "out of range '4294967296'");
    for (trace::RecordPolicy p : {trace::RecordPolicy::kSkipAndCount,
                                  trace::RecordPolicy::kBestEffortClamp,
                                  trace::RecordPolicy::kAbort})
        expectStreamedEqualsWholeTrace(path, p);
}

/** Set the lba field of record line `i` (headers excluded). */
void
setLba(std::vector<std::string> &lines, std::size_t i,
       const std::string &lba)
{
    std::string &l = lines[2 + i];
    const std::size_t a = l.find(',');
    const std::size_t b = l.find(',', a + 1);
    l = l.substr(0, a + 1) + lba + l.substr(b);
}

TEST(Analyze, RecordPastTheDriveRefusedUnderEveryPolicy)
{
    // The readers know no capacity, so no policy repairs this: the
    // whole-trace path refuses after sort + validate, and a streamed
    // trip falls back to it.  Never the model's capacity assert.
    const trace::MsTrace tr = sample();
    const Lba cap = AnalyzeOptions().drive.geometry.capacityBlocks();
    for (const std::string &lba :
         {std::to_string(cap - 4), std::to_string(cap),
          std::string("18446744073709551615")}) {
        SCOPED_TRACE("lba " + lba);
        std::vector<std::string> lines = csvLines(tr);
        setLba(lines, 8500, lba);
        setBlocks(lines, 8500, "8");
        const std::string csv = writeTemp(join(lines), ".csv");
        trace::MsTrace bad = trace::readMsFile(csv, trace::IngestOptions())
                                 .valueOrThrow();
        std::ostringstream bin;
        trace::writeMsBinary(bin, bad);
        const std::string binp = writeTemp(bin.str(), ".bin");

        const Outcome want{
            "", "[CorruptData] trace 'analyze-drive': request past the "
                "drive's capacity of " +
                    std::to_string(cap) + " blocks (lba " + lba +
                    ", 8 blocks)"};
        for (const std::string &path : {csv, binp}) {
            for (trace::RecordPolicy p :
                 {trace::RecordPolicy::kSkipAndCount,
                  trace::RecordPolicy::kBestEffortClamp,
                  trace::RecordPolicy::kAbort}) {
                expectStreamedEqualsWholeTrace(path, p, &want);
                const Outcome one = analyze(path, true, 1, p);
                EXPECT_EQ(one.out, want.out);
                EXPECT_EQ(one.error, want.error);
            }
        }
    }
    // The last block of the drive is still on it.
    std::vector<std::string> lines = csvLines(tr);
    setLba(lines, 8500, std::to_string(cap - 8));
    setBlocks(lines, 8500, "8");
    const Outcome edge = analyze(writeTemp(join(lines), ".csv"), true, 7);
    EXPECT_TRUE(edge.error.empty()) << edge.error;
}

TEST(Analyze, BitflippedSpcPastTheDriveIsARefusalNotAPanic)
{
    // `corrupt --mode bitflip --seed 2 --count 20` of an SPC export
    // flips an lba past the drive's capacity; under clamp and skip
    // the record survives ingest and must be refused, not served.
    // Addresses across the whole drive, so lbas have all 9 digits.
    Rng rng(5);
    const Lba cap = AnalyzeOptions().drive.geometry.capacityBlocks();
    synth::Workload w = synth::Workload::makeOltp(cap, 100.0, 5);
    std::ostringstream spc;
    trace::writeSpc(spc, w.generate(rng, "spc-drive", 0, 30 * kSec));
    trace::CorruptSpec spec;
    spec.mode = trace::CorruptMode::kBitFlip;
    spec.seed = 2;
    spec.count = 20;
    const std::string path = writeTemp(
        trace::corruptBuffer(spc.str(), spec).valueOrThrow(), ".spc");
    for (trace::RecordPolicy p : {trace::RecordPolicy::kSkipAndCount,
                                  trace::RecordPolicy::kBestEffortClamp}) {
        SCOPED_TRACE(trace::recordPolicyName(p));
        const Outcome o = analyze(path, true, 4096, p);
        EXPECT_EQ(o.out.rfind("ingestion: read ", 0), 0u) << o.out;
        EXPECT_EQ(o.error.rfind("[CorruptData] trace '" + path +
                                    "': request past the drive's capacity",
                                0),
                  0u)
            << o.error;
        const Outcome off = analyze(path, false, 4096, p);
        EXPECT_EQ(off.out, o.out);
        EXPECT_EQ(off.error, o.error);
    }
    EXPECT_NE(analyze(path, true, 4096).error.find("[CorruptData]"),
              std::string::npos);
}

TEST(Analyze, AllCacheHitTraceStreamedEqualsWholeTrace)
{
    // Small writes the write buffer absorbs whole: every request is a
    // cache hit with the same response, so the quantiles sit inside
    // one long tie and the busy time is all destage.
    trace::MsTrace tr("hits", 0, 100 * kSec);
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        trace::Request r;
        r.arrival = i * 100 * kMsec + rng.uniformInt(0, 50) * kMsec;
        r.lba = i % 10 == 9 ? tr.at(i - 1).lba + 8
                            : static_cast<Lba>(rng.uniformInt(0, 1 << 24));
        r.blocks = 8;
        r.op = trace::Op::Write;
        tr.append(r);
    }
    {
        disk::ResponseLog responses;
        trace::MsTraceSource src(tr);
        disk::DiskDrive(AnalyzeOptions().drive).service(src, &responses);
        ASSERT_EQ(responses.size(), tr.size());
        ASSERT_EQ(responses.quantile(0.0), responses.quantile(1.0));
    }
    const std::string path = writeTemp(join(csvLines(tr)), ".csv");
    const Outcome off = analyze(path, false, 4096);
    EXPECT_TRUE(off.error.empty()) << off.error;
    EXPECT_NE(off.out.find("p99 response (ms)"), std::string::npos);
    const Outcome one = analyze(path, true, 1);
    EXPECT_EQ(one.out, off.out);
    EXPECT_EQ(one.error, off.error);
}

} // anonymous namespace
} // namespace core
} // namespace dlw
