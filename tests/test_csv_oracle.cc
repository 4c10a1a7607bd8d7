/**
 * @file
 * Differential tests: the in-place CSV record parser and the chunked
 * line reader against the getline/split reference decoder in
 * naive_csv.hh.  Seeded corrupt lines and hand-written edge cases
 * must parse to the same request, error text and clamp flag; whole
 * files laid out around the reader's chunk boundary must decode to
 * the same requests, counters and errors at every batch size.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/strutil.hh"
#include "naive_csv.hh"
#include "synth/workload.hh"
#include "trace/corrupt.hh"
#include "trace/csvio.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace trace
{
namespace
{

/** A clean dlw-ms-v1 CSV text of a seeded OLTP trace. */
std::string
sampleCsv(Tick window = 30 * kSec)
{
    Rng rng(11);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 60.0);
    std::ostringstream os;
    writeMsCsv(os, w.generate(rng, "oracle-drive", 0, window));
    return os.str();
}

/** Both parsers over one line, both policies; every output equal. */
void
expectSameParse(const std::string &line)
{
    const std::string trimmed = trim(line);
    for (bool clamp : {false, true}) {
        // A sentinel start state, so partial writes are compared too.
        Request want{-7, 7, 7, Op::Write};
        Request got = want;
        const MsRecordParse w =
            naive::parseMsCsvRecordLine(trimmed, clamp, want);
        const MsRecordParse g =
            parseMsCsvRecordLine(trimView(line), clamp, got);
        SCOPED_TRACE("line '" + line + "' clamp " +
                     (clamp ? "on" : "off"));
        EXPECT_EQ(g.why, w.why);
        EXPECT_EQ(g.clamped, w.clamped);
        EXPECT_TRUE(got == want)
            << got.arrival << ',' << got.lba << ',' << got.blocks
            << " vs " << want.arrival << ',' << want.lba << ','
            << want.blocks;
    }
}

/** The record lines of a CSV text (headers dropped). */
std::vector<std::string>
recordLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    for (int i = 0; std::getline(is, line); ++i) {
        if (i >= 2)
            lines.push_back(line);
    }
    return lines;
}

TEST(CsvOracle, RecordParserMatchesOnMutatedLines)
{
    const std::string clean = sampleCsv();
    std::size_t lines = 0;
    for (CorruptMode mode :
         {CorruptMode::kFieldGarbage, CorruptMode::kBitFlip}) {
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
            CorruptSpec spec;
            spec.mode = mode;
            spec.seed = seed;
            spec.count = 64;
            const std::string bad =
                corruptBuffer(clean, spec).valueOrThrow();
            for (const std::string &line : recordLines(bad)) {
                expectSameParse(line);
                ++lines;
            }
        }
    }
    EXPECT_GT(lines, 10000u);
}

TEST(CsvOracle, RecordParserMatchesOnEdgeCases)
{
    const std::vector<std::string> cases = {
        // Field counts.
        "1,2,3", "1,2,3,R,5", "1,2,3,R,", ",,,", "1", "",
        // Whitespace: tabs, CR, spaces inside and around fields.
        "1\t,2,3,R", "\t1,\t2\t,3 , R", " 1 , 2 , 3 , W ",
        "1,2,3,R\r", "1,2\r,3,R", "1,2,3,\rR", "1\v,2\f,3,R",
        // Malformed fields with whitespace at their edges: the error
        // text quotes them trimmed.
        "1x ,2,3,R", "1, ?! ,3,R", "1,2,\t3x\t,R", "1,2,3,\tq \r",
        // Blocks at and past 2^32 are out of range, never wrapped.
        "1,2,4294967296,R", "1,2,4294967297,W", "1,2,4294967295,R",
        "1,2,0,R", "1,2,0,w",
        // Lowercase and unknown ops, with and without clamp.
        "1,2,3,r", "1,2,3,w", "1,2,3,x", "1,2,3,RR", "1,2,3,",
        "1,2,3, r ",
        // Signs and overflow.
        "-5,2,3,R", "+5,2,3,R", "-0,2,3,W", "1,-2,3,R", "1,+2,3,R",
        "9223372036854775807,2,3,R", "9223372036854775808,2,3,R",
        "1,18446744073709551615,3,R", "1,18446744073709551616,3,R",
        "1,2,18446744073709551616,R",
        // Junk.
        "a,b,c,d", "1,2,3,R garbage", "0x10,2,3,R", "1.5,2,3,R",
        "1,2 3,4,R", "?!,2,3,R", "1,?!,3,R", "1,2,?!,R", "1,2,3,?!",
    };
    for (const std::string &line : cases)
        expectSameParse(line);

    for (bool clamp : {false, true}) {
        Request r;
        EXPECT_EQ(parseMsCsvRecordLine("1,2, 4294967296 ,R", clamp, r).why,
                  "blocks out of range '4294967296'");
        const MsRecordParse p =
            parseMsCsvRecordLine("1,2,4294967297,W", clamp, r);
        EXPECT_EQ(p.why, "blocks out of range '4294967297'");
        EXPECT_FALSE(p.clamped);
        EXPECT_TRUE(parseMsCsvRecordLine("1,2,4294967295,R", clamp, r)
                        .why.empty());
        EXPECT_EQ(r.blocks, 4294967295u);
    }
}

// ---- The chunked line reader -------------------------------------

/** What a decode produced: requests, counters and terminal status. */
struct Decoded
{
    std::vector<Request> requests;
    IngestStats stats;
    Status status;
};

Decoded
decodeStreamed(const std::string &text, const IngestOptions &opts,
               std::size_t batch)
{
    std::istringstream is(text);
    auto src = openMsCsvSource(is, opts).valueOrThrow();
    Decoded d;
    RequestBatch b(batch);
    while (src->next(b)) {
        for (std::size_t i = 0; i < b.size(); ++i)
            d.requests.push_back(b.get(i));
    }
    d.status = src->status();
    d.stats = src->stats();
    return d;
}

/**
 * The streamed decoder at batch 1, 7 and 4096 against the oracle.
 * Under abort only the error and the counters are compared: the
 * streamed source drops the batch the error cut short.
 */
void
expectStreamedEqualsWholeFile(const std::string &text,
                              const IngestOptions &opts)
{
    Decoded want;
    want.status =
        naive::readMsCsvRecords(text, opts, want.requests, want.stats);
    for (std::size_t batch : {1, 7, 4096}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + ", policy " +
                     recordPolicyName(opts.policy));
        const Decoded got = decodeStreamed(text, opts, batch);
        EXPECT_EQ(got.status.toString(), want.status.toString());
        if (want.status.ok()) {
            ASSERT_EQ(got.requests.size(), want.requests.size());
            for (std::size_t i = 0; i < want.requests.size(); ++i)
                ASSERT_TRUE(got.requests[i] == want.requests[i])
                    << "request " << i;
        }
        EXPECT_EQ(got.stats.records_read, want.stats.records_read);
        EXPECT_EQ(got.stats.records_skipped,
                  want.stats.records_skipped);
        EXPECT_EQ(got.stats.records_clamped,
                  want.stats.records_clamped);
        EXPECT_EQ(got.stats.errors, want.stats.errors);
        EXPECT_EQ(got.stats.bytes_read, want.stats.bytes_read);
        EXPECT_EQ(got.stats.bytes_recovered,
                  want.stats.bytes_recovered);
        EXPECT_EQ(got.stats.error_samples, want.stats.error_samples);
    }
}

/** Every policy; `text` should exercise each. */
void
expectStreamedEqualsWholeFileUnderEveryPolicy(const std::string &text)
{
    for (RecordPolicy p :
         {RecordPolicy::kAbort, RecordPolicy::kSkipAndCount,
          RecordPolicy::kBestEffortClamp}) {
        IngestOptions opts;
        opts.policy = p;
        expectStreamedEqualsWholeFile(text, opts);
    }
}

/** The header lines plus `records` "i,lba,blocks,op" lines. */
std::string
syntheticCsv(std::size_t records, const std::string &eol = "\n")
{
    std::string s = "# dlw-ms-v1,edge,0,1000000000000" + eol +
                    "arrival_ns,lba,blocks,op" + eol;
    for (std::size_t i = 0; i < records; ++i) {
        s += std::to_string(i * 1000) + ',' +
             std::to_string(i * 7919 % 100003) + ',' +
             std::to_string(1 + i % 64) + ',' + (i % 3 ? 'R' : 'W') +
             eol;
    }
    return s;
}

TEST(CsvOracle, LineStraddlingAChunkRefill)
{
    std::string text = syntheticCsv(8000);
    ASSERT_GT(text.size(), 2 * kCsvChunkBytes);
    // Each refill boundary must cut a line in two.
    for (std::size_t edge : {kCsvChunkBytes, 2 * kCsvChunkBytes}) {
        ASSERT_NE(text[edge - 1], '\n');
        ASSERT_NE(text[edge], '\n');
    }
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
    // A corrupt line across the first refill, too.
    text[text.rfind('\n', kCsvChunkBytes - 1) + 1] = 'x';
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
}

TEST(CsvOracle, FileThatIsAnExactMultipleOfTheChunk)
{
    std::string text = syntheticCsv(5000);
    ASSERT_LT(text.size(), 2 * kCsvChunkBytes);
    // Pad the last record with (trimmed) spaces so the file ends on
    // a '\n' exactly at the second refill.
    text.pop_back();
    text.append(2 * kCsvChunkBytes - text.size() - 1, ' ');
    text += '\n';
    ASSERT_EQ(text.size(), 2 * kCsvChunkBytes);
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
    // And one byte short of it: no trailing newline at the edge.
    text.pop_back();
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
}

TEST(CsvOracle, LineLongerThanTheChunk)
{
    std::string text = syntheticCsv(100);
    text += std::string(3 * kCsvChunkBytes, ' ') + "1000000,8,8,W\n";
    text += std::string(kCsvChunkBytes + 5, 'x') + "\n";
    text += "1000001,16,8,R\n";
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
}

TEST(CsvOracle, MissingTrailingNewline)
{
    std::string text = syntheticCsv(300);
    text.pop_back();
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
    // A corrupt last line without its newline.
    expectStreamedEqualsWholeFileUnderEveryPolicy(text + "\n7,8,9");
}

TEST(CsvOracle, CrlfLineEnds)
{
    std::string text = syntheticCsv(6000, "\r\n");
    ASSERT_GT(text.size(), kCsvChunkBytes);
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
    // A lowercase op and a zero-length request amid CRLF records.
    text += "6000000,1,2,r\r\n6000001,1,0,W\r\n6000002,1,2,R\r\n";
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
}

TEST(CsvOracle, BlankAndWhitespaceLines)
{
    std::string text = syntheticCsv(0);
    for (std::size_t i = 0; i < 8000; ++i) {
        text += std::to_string(i * 10) + ",1,8,R\n";
        if (i % 97 == 0)
            text += "\n";
        if (i % 131 == 0)
            text += "  \t \r\n";
        if (i % 509 == 0)
            text += std::to_string(i * 10) + ",1,8,q\n";
    }
    ASSERT_GT(text.size(), kCsvChunkBytes);
    expectStreamedEqualsWholeFileUnderEveryPolicy(text);
}

TEST(CsvOracle, SeededCorruptFilesDecodeIdentically)
{
    const std::string clean = sampleCsv(60 * kSec);
    ASSERT_GT(clean.size(), kCsvChunkBytes);
    for (CorruptMode mode :
         {CorruptMode::kFieldGarbage, CorruptMode::kBitFlip,
          CorruptMode::kTruncate}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            CorruptSpec spec;
            spec.mode = mode;
            spec.seed = seed;
            spec.count = 16;
            // Spare the header: its corruption is never recoverable.
            spec.offset = clean.find('\n', clean.find('\n') + 1) + 1;
            expectStreamedEqualsWholeFileUnderEveryPolicy(
                corruptBuffer(clean, spec).valueOrThrow());
        }
    }
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
