/**
 * @file
 * Round-trip and malformed-input tests for trace CSV, binary, and
 * SPC formats.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "synth/workload.hh"
#include "trace/binio.hh"
#include "trace/csvio.hh"
#include "trace/spc.hh"

namespace dlw
{
namespace trace
{
namespace
{

MsTrace
sampleMs()
{
    Rng rng(9);
    synth::Workload w = synth::Workload::makeOltp(1 << 20, 40.0);
    return w.generate(rng, "unit-drive", 0, 10 * kSec);
}

TEST(CsvIo, MsRoundTrip)
{
    MsTrace a = sampleMs();
    std::stringstream ss;
    writeMsCsv(ss, a);
    MsTrace b = readMsCsv(ss, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.driveId(), a.driveId());
    EXPECT_EQ(b.start(), a.start());
    EXPECT_EQ(b.duration(), a.duration());
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a.at(i) == b.at(i)) << "record " << i;
}

TEST(CsvIo, MsRejectsBadHeader)
{
    std::stringstream ss("not a header\n");
    StatusOr<MsTrace> r = readMsCsv(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("bad ms-trace header"),
              std::string::npos);
}

TEST(CsvIo, MsRejectsBadOp)
{
    std::stringstream ss("# dlw-ms-v1,d,0,1000\n"
                         "arrival_ns,lba,blocks,op\n"
                         "10,0,8,X\n");
    StatusOr<MsTrace> r = readMsCsv(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("bad op"), std::string::npos);
}

TEST(CsvIo, MsRejectsShortRow)
{
    std::stringstream ss("# dlw-ms-v1,d,0,1000\n"
                         "arrival_ns,lba,blocks,op\n"
                         "10,0,8\n");
    StatusOr<MsTrace> r = readMsCsv(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("expected 4 fields"),
              std::string::npos);
}

TEST(CsvIo, LegacyReaderThrowsOnCorruption)
{
    std::stringstream ss("not a header\n");
    EXPECT_THROW(readMsCsv(ss, IngestOptions{}).valueOrThrow(),
                 StatusError);
}

TEST(CsvIo, HourRoundTrip)
{
    HourTrace a("hour-drive", 5 * kHour);
    for (int i = 0; i < 48; ++i) {
        HourBucket b;
        b.reads = static_cast<std::uint64_t>(i * 3);
        b.writes = static_cast<std::uint64_t>(i);
        b.read_blocks = b.reads * 8;
        b.write_blocks = b.writes * 16;
        b.busy = static_cast<Tick>(i) * kMinute;
        a.append(b);
    }
    std::stringstream ss;
    writeHourCsv(ss, a);
    HourTrace b = readHourCsv(ss, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.driveId(), a.driveId());
    EXPECT_EQ(b.start(), a.start());
    ASSERT_EQ(b.hours(), a.hours());
    for (std::size_t h = 0; h < a.hours(); ++h)
        EXPECT_TRUE(a.at(h) == b.at(h)) << "hour " << h;
}

TEST(CsvIo, LifetimeRoundTrip)
{
    LifetimeTrace a("FAM-X");
    for (int i = 0; i < 10; ++i) {
        LifetimeRecord r;
        r.drive_id = "d" + std::to_string(i);
        r.power_on = static_cast<Tick>(1000 + i) * kHour;
        r.busy = static_cast<Tick>(100 + i) * kHour;
        r.reads = static_cast<std::uint64_t>(i) * 1000;
        r.writes = static_cast<std::uint64_t>(i) * 500;
        r.read_blocks = r.reads * 8;
        r.write_blocks = r.writes * 8;
        r.peak_hour_requests = 99;
        r.saturated_hours = static_cast<std::uint64_t>(i);
        r.longest_saturated_run = static_cast<std::uint64_t>(i / 2);
        a.append(r);
    }
    std::stringstream ss;
    writeLifetimeCsv(ss, a);
    LifetimeTrace b = readLifetimeCsv(ss, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.family(), "FAM-X");
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(b.at(i).drive_id, a.at(i).drive_id);
        EXPECT_EQ(b.at(i).power_on, a.at(i).power_on);
        EXPECT_EQ(b.at(i).busy, a.at(i).busy);
        EXPECT_EQ(b.at(i).reads, a.at(i).reads);
        EXPECT_EQ(b.at(i).longest_saturated_run,
                  a.at(i).longest_saturated_run);
    }
}

TEST(BinIo, RoundTripExact)
{
    MsTrace a = sampleMs();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMsBinary(ss, a);
    MsTrace b = readMsBinary(ss, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.driveId(), a.driveId());
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a.at(i) == b.at(i)) << "record " << i;
}

TEST(BinIo, RejectsBadMagic)
{
    std::stringstream ss("GARBAGE!more garbage");
    StatusOr<MsTrace> r = readMsBinary(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("bad magic"),
              std::string::npos);
}

TEST(BinIo, RejectsTruncation)
{
    MsTrace a = sampleMs();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMsBinary(ss, a);
    std::string data = ss.str();
    std::stringstream cut(data.substr(0, data.size() / 2),
                          std::ios::in | std::ios::binary);
    StatusOr<MsTrace> r = readMsBinary(cut, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTruncated);
    EXPECT_NE(r.status().message().find("truncated"),
              std::string::npos);
}

TEST(BinIo, FileRoundTrip)
{
    MsTrace a = sampleMs();
    const std::string path =
        ::testing::TempDir() + "/dlw_binio_test.bin";
    writeMsBinary(path, a);
    MsTrace b = readMsBinary(path, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.size(), a.size());
}

TEST(Spc, ParsesAndSorts)
{
    std::stringstream ss(
        "0,1000,4096,r,0.002\n"
        "0,2000,512,W,0.001\n"
        "1,3000,512,r,0.003\n");
    MsTrace t = readSpc(ss, "spc-drive", IngestOptions{}).valueOrThrow();
    ASSERT_EQ(t.size(), 3u);
    // Sorted by arrival.
    EXPECT_EQ(t.at(0).lba, 2000u);
    EXPECT_TRUE(t.at(0).isWrite());
    EXPECT_EQ(t.at(1).lba, 1000u);
    EXPECT_EQ(t.at(1).blocks, 8u);
    EXPECT_EQ(t.at(1).arrival, 2 * kMsec);
    EXPECT_TRUE(t.validate());
}

TEST(Spc, AsuFilter)
{
    std::stringstream ss(
        "0,1000,512,r,0.001\n"
        "1,2000,512,r,0.002\n"
        "0,3000,512,r,0.003\n");
    MsTrace t =
        readSpc(ss, "d", IngestOptions{}, nullptr, 0).valueOrThrow();
    EXPECT_EQ(t.size(), 2u);
}

TEST(Spc, SkipsCommentsAndBlanks)
{
    std::stringstream ss(
        "# header comment\n"
        "\n"
        "0,1000,512,r,0.001\n");
    MsTrace t = readSpc(ss, "d", IngestOptions{}).valueOrThrow();
    EXPECT_EQ(t.size(), 1u);
}

TEST(Spc, RejectsBadSize)
{
    std::stringstream ss("0,1000,100,r,0.001\n");
    StatusOr<MsTrace> r = readSpc(ss, "d", IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("multiple of 512"),
              std::string::npos);
}

TEST(Spc, RoundTripThroughWriter)
{
    MsTrace a = sampleMs();
    std::stringstream ss;
    writeSpc(ss, a);
    MsTrace b = readSpc(ss, a.driveId(), IngestOptions{}).valueOrThrow();
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(b.at(i).lba, a.at(i).lba);
        EXPECT_EQ(b.at(i).blocks, a.at(i).blocks);
        EXPECT_EQ(b.at(i).op, a.at(i).op);
        // Timestamps survive to nanosecond resolution.
        EXPECT_NEAR(static_cast<double>(b.at(i).arrival),
                    static_cast<double>(a.at(i).arrival), 1.0);
    }
}

TEST(CsvIo, MissingFile)
{
    StatusOr<MsTrace> r =
        readMsCsv("/nonexistent/path/trace.csv", IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_NE(r.status().message().find("cannot open"),
              std::string::npos);
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
