/**
 * @file
 * Pins of the hour, lifetime and SPC readers under every corrupt-record
 * policy: field counts, malformed fields, each domain repair, injected
 * faults, header errors, the "reading '<path>'" context, CRLF lines and
 * a missing final newline.  Error texts are compared whole and every
 * IngestStats field is checked.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "trace/csvio.hh"
#include "trace/spc.hh"

namespace dlw
{
namespace trace
{
namespace
{

constexpr RecordPolicy kPolicies[] = {RecordPolicy::kAbort,
                                      RecordPolicy::kSkipAndCount,
                                      RecordPolicy::kBestEffortClamp};

IngestOptions
under(RecordPolicy p)
{
    IngestOptions o;
    o.policy = p;
    return o;
}

/** Input bytes of the given lines, each with its newline. */
std::uint64_t
bytesOf(std::initializer_list<const char *> lines)
{
    std::uint64_t n = 0;
    for (const char *l : lines)
        n += std::string(l).size() + 1;
    return n;
}

/** Lines joined with '\n', the last one included. */
std::string
text(std::initializer_list<const char *> lines)
{
    std::string s;
    for (const char *l : lines) {
        s += l;
        s += '\n';
    }
    return s;
}

/** What one read should leave in its IngestStats, field by field. */
struct WantStats
{
    std::uint64_t read = 0;
    std::uint64_t skipped = 0;
    std::uint64_t clamped = 0;
    std::uint64_t errors = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_recovered = 0;
    std::vector<std::string> samples;
};

void
expectStats(const IngestStats &st, const WantStats &w)
{
    EXPECT_EQ(st.records_read, w.read);
    EXPECT_EQ(st.records_skipped, w.skipped);
    EXPECT_EQ(st.records_clamped, w.clamped);
    EXPECT_EQ(st.errors, w.errors);
    EXPECT_EQ(st.bytes_read, w.bytes_read);
    EXPECT_EQ(st.bytes_recovered, w.bytes_recovered);
    EXPECT_EQ(st.error_samples, w.samples);
}

/** A failed read: code, whole message and no context frames. */
template <typename T>
void
expectError(const StatusOr<T> &r, StatusCode code, const std::string &msg)
{
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code);
    EXPECT_EQ(r.status().message(), msg);
    EXPECT_TRUE(r.status().context().empty());
}

std::string
writeTemp(const std::string &name, const std::string &bytes)
{
    const std::string path = ::testing::TempDir() + "/dlw_ingest_" + name;
    std::ofstream os(path, std::ios::binary);
    os << bytes;
    return path;
}

// ------------------------------------------------------------ hour CSV

const char *const kHourHead = "# dlw-hour-v1,hd,7200000000000";
const char *const kHourCols =
    "hour,reads,writes,read_blocks,write_blocks,busy_ns";

/** Good, short, malformed, busy < 0, busy > 1h, good. */
const char *const kHourOk0 = "0,10,5,80,40,1000000";
const char *const kHourShort = "1,2,3";
const char *const kHourBadField = "2,x,0,0,0,0";
const char *const kHourNegBusy = "3,1,1,8,8,-5";
const char *const kHourLongBusy = "4,1,1,8,8,3600000000001";
const char *const kHourOk5 = "5,1,0,8,0,5";

std::string
dirtyHourCsv()
{
    return text({kHourHead, kHourCols, kHourOk0, kHourShort,
                 kHourBadField, kHourNegBusy, kHourLongBusy, kHourOk5});
}

TEST(HourCsvPins, AbortStopsAtTheFirstCorruptRecord)
{
    std::istringstream is(dirtyHourCsv());
    IngestStats st;
    auto r = readHourCsv(is, under(RecordPolicy::kAbort), &st);
    expectError(r, StatusCode::kCorruptData, "line 4: expected 6 fields");
    expectStats(st, {1, 0, 0, 1, bytesOf({kHourOk0}), 0,
                     {"line 4: expected 6 fields"}});
}

TEST(HourCsvPins, SkipDropsEveryCorruptRecord)
{
    std::istringstream is(dirtyHourCsv());
    IngestStats st;
    auto r = readHourCsv(is, under(RecordPolicy::kSkipAndCount), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const HourTrace &t = r.value();
    EXPECT_EQ(t.driveId(), "hd");
    EXPECT_EQ(t.start(), 2 * kHour);
    ASSERT_EQ(t.hours(), 6u);
    EXPECT_EQ(t.at(0).reads, 10u);
    EXPECT_EQ(t.at(0).busy, 1000000);
    EXPECT_EQ(t.at(3).reads, 0u);
    EXPECT_EQ(t.at(4).reads, 0u);
    EXPECT_EQ(t.at(5).read_blocks, 8u);
    expectStats(st, {2, 4, 0, 4, bytesOf({kHourOk0, kHourOk5}),
                     bytesOf({kHourOk5}),
                     {"line 4: expected 6 fields", "line 5: malformed field",
                      "line 6: busy time outside [0, 1h]",
                      "line 7: busy time outside [0, 1h]"}});
}

TEST(HourCsvPins, ClampPinsBusyIntoTheHour)
{
    std::istringstream is(dirtyHourCsv());
    IngestStats st;
    auto r = readHourCsv(is, under(RecordPolicy::kBestEffortClamp), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const HourTrace &t = r.value();
    ASSERT_EQ(t.hours(), 6u);
    EXPECT_EQ(t.at(3).reads, 1u);
    EXPECT_EQ(t.at(3).busy, 0);
    EXPECT_EQ(t.at(4).busy, kHour);
    EXPECT_EQ(t.at(4).write_blocks, 8u);
    expectStats(st, {4, 2, 2, 4,
                     bytesOf({kHourOk0, kHourNegBusy, kHourLongBusy,
                              kHourOk5}),
                     bytesOf({kHourNegBusy, kHourLongBusy, kHourOk5}),
                     {"line 4: expected 6 fields", "line 5: malformed field",
                      "line 6: busy time outside [0, 1h]",
                      "line 7: busy time outside [0, 1h]"}});
}

TEST(HourCsvPins, HeaderErrorsUnderEveryPolicy)
{
    struct Case
    {
        std::string in;
        StatusCode code;
        std::string msg;
    };
    const Case cases[] = {
        {"", StatusCode::kTruncated, "empty hour-trace CSV"},
        {"# dlw-hour-v2,hd,0\nx\n", StatusCode::kCorruptData,
         "bad hour-trace header '# dlw-hour-v2,hd,0'"},
        {"  # dlw-hour-v1,hd,zero \t\nx\n", StatusCode::kCorruptData,
         "bad hour-trace header '# dlw-hour-v1,hd,zero'"},
        {"# dlw-hour-v1,hd\nx\n", StatusCode::kCorruptData,
         "bad hour-trace header '# dlw-hour-v1,hd'"},
        {"# dlw-hour-v1,hd,0\n", StatusCode::kTruncated,
         "truncated CSV: missing column header"},
    };
    for (RecordPolicy p : kPolicies) {
        for (const Case &c : cases) {
            SCOPED_TRACE(c.in);
            std::istringstream is(c.in);
            IngestStats st;
            st.records_read = 99;
            expectError(readHourCsv(is, under(p), &st), c.code, c.msg);
            expectStats(st, {});
        }
    }
}

TEST(HourCsvPins, CrlfLinesAndNoFinalNewline)
{
    const std::string in = "# dlw-hour-v1,hd,0\r\n"
                           "hour,reads,writes,read_blocks,write_blocks,"
                           "busy_ns\r\n"
                           "0,1,2,8,16,7\r\n"
                           "\r\n"
                           "1,3,4,24,32,9";
    for (RecordPolicy p : kPolicies) {
        std::istringstream is(in);
        IngestStats st;
        auto r = readHourCsv(is, under(p), &st);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value().driveId(), "hd");
        ASSERT_EQ(r.value().hours(), 2u);
        EXPECT_EQ(r.value().at(0).busy, 7);
        EXPECT_EQ(r.value().at(1).write_blocks, 32u);
        EXPECT_EQ(r.value().at(1).busy, 9);
        expectStats(st, {2, 0, 0, 0,
                         bytesOf({"0,1,2,8,16,7\r", "1,3,4,24,32,9"}),
                         0, {}});
    }
}

TEST(HourCsvPins, InjectedRecordFaultsUnderEveryPolicy)
{
    const char *rows[] = {"0,1,0,8,0,1", "1,1,0,8,0,1", "2,1,0,8,0,1",
                          "3,1,0,8,0,1"};
    const std::string in =
        text({kHourHead, kHourCols, rows[0], rows[1], rows[2], rows[3]});
    fault::FaultSpec spec;
    spec.mode = fault::Mode::EveryNth;
    spec.n = 2;
    for (RecordPolicy p : kPolicies) {
        fault::ScopedFault f("trace.read.record", spec);
        std::istringstream is(in);
        IngestStats st;
        auto r = readHourCsv(is, under(p), &st);
        const std::string why1 =
            "line 4: injected fault at trace.read.record";
        const std::string why2 =
            "line 6: injected fault at trace.read.record";
        if (p == RecordPolicy::kAbort) {
            expectError(r, StatusCode::kCorruptData, why1);
            expectStats(st, {1, 0, 0, 1, bytesOf({rows[0]}), 0, {why1}});
            continue;
        }
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value().hours(), 3u);
        expectStats(st, {2, 2, 0, 2, bytesOf({rows[0], rows[2]}),
                         bytesOf({rows[2]}), {why1, why2}});
    }
}

TEST(HourCsvPins, PathReadsCarryTheirContext)
{
    const std::string bad = writeTemp("bad_head.hour.csv", "# nope\nx\n");
    auto r = readHourCsv(bad, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().toString(), "[CorruptData] reading '" + bad +
                                         "': bad hour-trace header '# nope'");

    const std::string dirty = writeTemp("dirty.hour.csv", dirtyHourCsv());
    IngestStats st;
    r = readHourCsv(dirty, IngestOptions{}, &st);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_EQ(r.status().message(), "line 4: expected 6 fields");
    EXPECT_EQ(r.status().context(),
              std::vector<std::string>{"reading '" + dirty + "'"});
    EXPECT_EQ(st.records_read, 1u);

    r = readHourCsv(dirty, under(RecordPolicy::kSkipAndCount), &st);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(st.records_skipped, 4u);

    const std::string missing = ::testing::TempDir() + "/dlw_no_such.csv";
    expectError(readHourCsv(missing, IngestOptions{}),
                StatusCode::kIoError,
                "cannot open '" + missing + "' for reading");

    fault::FaultSpec once;
    once.mode = fault::Mode::Once;
    fault::ScopedFault f("trace.open", once);
    expectError(readHourCsv(dirty, IngestOptions{}), StatusCode::kIoError,
                "injected fault at trace.open on '" + dirty + "'");
}

TEST(HourCsvPins, HourIndexOutOfRangeIsRefused)
{
    // 2^64 - 1 once wrapped the bucket vector's resize to zero; 2^40
    // asked for terabytes.  Both are corrupt records now.
    for (const char *bad : {"18446744073709551615,1,1,8,8,5",
                            "1099511627776,1,1,8,8,5",
                            "1048576,1,1,8,8,5"}) {
        const std::string in =
            text({kHourHead, kHourCols, kHourOk0, bad, kHourOk5});
        const std::string why = "line 4: hour index out of range";
        for (RecordPolicy p : kPolicies) {
            SCOPED_TRACE(bad);
            std::istringstream is(in);
            IngestStats st;
            auto r = readHourCsv(is, under(p), &st);
            if (p == RecordPolicy::kAbort) {
                expectError(r, StatusCode::kCorruptData, why);
                expectStats(st, {1, 0, 0, 1, bytesOf({kHourOk0}), 0, {why}});
                continue;
            }
            ASSERT_TRUE(r.ok()) << r.status().toString();
            EXPECT_EQ(r.value().hours(), 6u);
            expectStats(st, {2, 1, 0, 1, bytesOf({kHourOk0, kHourOk5}),
                             bytesOf({kHourOk5}), {why}});
        }
    }
    // The last index below the bound is still a record.
    std::istringstream is(text({kHourHead, kHourCols, "1048575,1,0,8,0,5"}));
    auto r = readHourCsv(is, IngestOptions{});
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().hours(), kMaxHours);
}

// -------------------------------------------------------- lifetime CSV

const char *const kLifeHead = "# dlw-lifetime-v1,FAM-Z";
const char *const kLifeCols =
    "drive_id,power_on_ns,busy_ns,reads,writes,read_blocks,"
    "write_blocks,peak_hour_requests,saturated_hours,"
    "longest_saturated_run";

const char *const kLifeOk = " d0 ,1000,500,1,2,8,16,3,4,2";
const char *const kLifeShort = "d1,1,2,3";
const char *const kLifeBadField = "d2,x,0,0,0,0,0,0,0,0";
/** power_on < 0 (and busy then > power_on). */
const char *const kLifeNegPower = "d3,-5,0,0,0,0,0,0,0,0";
/** busy > power_on. */
const char *const kLifeBusy = "d4,100,200,0,0,0,0,0,0,0";
/** busy < 0 and longest run > saturated hours. */
const char *const kLifeBoth = "d5,100,-1,0,0,0,0,0,5,9";
/** longest run > saturated hours. */
const char *const kLifeRun = "d6,100,50,0,0,0,0,0,1,2";

std::string
dirtyLifetimeCsv()
{
    return text({kLifeHead, kLifeCols, kLifeOk, kLifeShort, kLifeBadField,
                 kLifeNegPower, kLifeBusy, kLifeBoth, kLifeRun});
}

TEST(LifetimeCsvPins, AbortStopsAtTheFirstCorruptRecord)
{
    std::istringstream is(dirtyLifetimeCsv());
    IngestStats st;
    auto r = readLifetimeCsv(is, under(RecordPolicy::kAbort), &st);
    expectError(r, StatusCode::kCorruptData, "line 4: expected 10 fields");
    expectStats(st, {1, 0, 0, 1, bytesOf({kLifeOk}), 0,
                     {"line 4: expected 10 fields"}});
}

TEST(LifetimeCsvPins, DomainIssuesPassThroughOutsideClamp)
{
    const std::string in = text({kLifeHead, kLifeCols, kLifeOk,
                                 kLifeNegPower, kLifeBusy, kLifeBoth,
                                 kLifeRun});
    for (RecordPolicy p :
         {RecordPolicy::kAbort, RecordPolicy::kSkipAndCount}) {
        std::istringstream is(in);
        IngestStats st;
        auto r = readLifetimeCsv(is, under(p), &st);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        const LifetimeTrace &t = r.value();
        EXPECT_EQ(t.family(), "FAM-Z");
        ASSERT_EQ(t.size(), 5u);
        EXPECT_EQ(t.at(0).drive_id, "d0");
        EXPECT_EQ(t.at(1).power_on, -5);
        EXPECT_EQ(t.at(2).busy, 200);
        EXPECT_EQ(t.at(3).busy, -1);
        EXPECT_EQ(t.at(3).longest_saturated_run, 9u);
        EXPECT_EQ(t.at(4).longest_saturated_run, 2u);
        expectStats(st, {5, 0, 0, 0,
                         bytesOf({kLifeOk, kLifeNegPower, kLifeBusy,
                                  kLifeBoth, kLifeRun}),
                         0, {}});
    }
}

TEST(LifetimeCsvPins, SkipDropsOnlyUnparseableRecords)
{
    std::istringstream is(dirtyLifetimeCsv());
    IngestStats st;
    auto r = readLifetimeCsv(is, under(RecordPolicy::kSkipAndCount), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    ASSERT_EQ(r.value().size(), 5u);
    EXPECT_EQ(r.value().at(1).drive_id, "d3");
    expectStats(st, {5, 2, 0, 2,
                     bytesOf({kLifeOk, kLifeNegPower, kLifeBusy, kLifeBoth,
                              kLifeRun}),
                     bytesOf({kLifeNegPower, kLifeBusy, kLifeBoth,
                              kLifeRun}),
                     {"line 4: expected 10 fields",
                      "line 5: malformed field"}});
}

TEST(LifetimeCsvPins, ClampRepairsEachDomain)
{
    std::istringstream is(dirtyLifetimeCsv());
    IngestStats st;
    auto r =
        readLifetimeCsv(is, under(RecordPolicy::kBestEffortClamp), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const LifetimeTrace &t = r.value();
    ASSERT_EQ(t.size(), 5u);
    // d3: power_on 0, busy within it.
    EXPECT_EQ(t.at(1).power_on, 0);
    EXPECT_EQ(t.at(1).busy, 0);
    // d4: busy pinned to power_on.
    EXPECT_EQ(t.at(2).busy, 100);
    // d5: busy 0, run pinned to the saturated hours.
    EXPECT_EQ(t.at(3).busy, 0);
    EXPECT_EQ(t.at(3).longest_saturated_run, 5u);
    // d6: run pinned.
    EXPECT_EQ(t.at(4).busy, 50);
    EXPECT_EQ(t.at(4).longest_saturated_run, 1u);
    EXPECT_TRUE(t.validate());
    expectStats(st, {5, 2, 4, 6,
                     bytesOf({kLifeOk, kLifeNegPower, kLifeBusy, kLifeBoth,
                              kLifeRun}),
                     bytesOf({kLifeNegPower, kLifeBusy, kLifeBoth,
                              kLifeRun}),
                     {"line 4: expected 10 fields", "line 5: malformed field",
                      "line 6: counters outside their domain",
                      "line 7: counters outside their domain"}});
}

TEST(LifetimeCsvPins, HeaderErrorsUnderEveryPolicy)
{
    struct Case
    {
        std::string in;
        StatusCode code;
        std::string msg;
    };
    const Case cases[] = {
        {"", StatusCode::kTruncated, "empty lifetime-trace CSV"},
        {"# dlw-lifetime-v1\nx\n", StatusCode::kCorruptData,
         "bad lifetime-trace header '# dlw-lifetime-v1'"},
        {"# dlw-lifetime-v1,A,B \r\nx\n", StatusCode::kCorruptData,
         "bad lifetime-trace header '# dlw-lifetime-v1,A,B'"},
        {"# dlw-hour-v1,A\nx\n", StatusCode::kCorruptData,
         "bad lifetime-trace header '# dlw-hour-v1,A'"},
        {"# dlw-lifetime-v1,A", StatusCode::kTruncated,
         "truncated CSV: missing column header"},
    };
    for (RecordPolicy p : kPolicies) {
        for (const Case &c : cases) {
            SCOPED_TRACE(c.in);
            std::istringstream is(c.in);
            IngestStats st;
            st.errors = 5;
            expectError(readLifetimeCsv(is, under(p), &st), c.code, c.msg);
            expectStats(st, {});
        }
    }
}

TEST(LifetimeCsvPins, CrlfLinesAndNoFinalNewline)
{
    const std::string in = std::string("# dlw-lifetime-v1,F \r\n") +
                           kLifeCols +
                           "\r\n"
                           "a,10,5,1,1,8,8,1,0,0\r\n"
                           "b,20,5,1,1,8,8,1,0,0";
    for (RecordPolicy p : kPolicies) {
        std::istringstream is(in);
        IngestStats st;
        auto r = readLifetimeCsv(is, under(p), &st);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value().family(), "F");
        ASSERT_EQ(r.value().size(), 2u);
        EXPECT_EQ(r.value().at(1).drive_id, "b");
        EXPECT_EQ(r.value().at(1).power_on, 20);
        expectStats(st, {2, 0, 0, 0,
                         bytesOf({"a,10,5,1,1,8,8,1,0,0\r",
                                  "b,20,5,1,1,8,8,1,0,0"}),
                         0, {}});
    }
}

TEST(LifetimeCsvPins, InjectedFaultsAndPathContext)
{
    const char *rows[] = {"a,10,5,1,1,8,8,1,0,0", "b,10,5,1,1,8,8,1,0,0",
                          "c,10,5,1,1,8,8,1,0,0"};
    const std::string in =
        text({kLifeHead, kLifeCols, rows[0], rows[1], rows[2]});
    fault::FaultSpec spec;
    spec.mode = fault::Mode::EveryNth;
    spec.n = 2;
    const std::string why = "line 4: injected fault at trace.read.record";
    for (RecordPolicy p : kPolicies) {
        fault::ScopedFault f("trace.read.record", spec);
        std::istringstream is(in);
        IngestStats st;
        auto r = readLifetimeCsv(is, under(p), &st);
        if (p == RecordPolicy::kAbort) {
            expectError(r, StatusCode::kCorruptData, why);
            expectStats(st, {1, 0, 0, 1, bytesOf({rows[0]}), 0, {why}});
            continue;
        }
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_EQ(r.value().size(), 2u);
        EXPECT_EQ(r.value().at(1).drive_id, "c");
        expectStats(st, {2, 1, 0, 1, bytesOf({rows[0], rows[2]}),
                         bytesOf({rows[2]}), {why}});
    }

    const std::string dirty =
        writeTemp("dirty.life.csv", dirtyLifetimeCsv());
    IngestStats st;
    auto r = readLifetimeCsv(dirty, IngestOptions{}, &st);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().toString(),
              "[CorruptData] reading '" + dirty +
                  "': line 4: expected 10 fields");
    EXPECT_EQ(st.records_read, 1u);
    const std::string bad = writeTemp("bad_head.life.csv", "");
    EXPECT_EQ(readLifetimeCsv(bad, IngestOptions{}).status().toString(),
              "[Truncated] reading '" + bad + "': empty lifetime-trace CSV");

    fault::FaultSpec once;
    once.mode = fault::Mode::Once;
    fault::ScopedFault f("trace.open", once);
    expectError(readLifetimeCsv(dirty, IngestOptions{}),
                StatusCode::kIoError,
                "injected fault at trace.open on '" + dirty + "'");
}

// ----------------------------------------------------------------- SPC

const char *const kSpcComment = "# a comment";
const char *const kSpcOk1 = "0,1000,4096,r,0.002";
const char *const kSpcOk2 = " 0 , 2000 , 512 , W , 0.001 ";
const char *const kSpcShort = "1,3000,512";
const char *const kSpcBadAsu = "x,1,512,r,0.1";
const char *const kSpcBadLba = "0,y,512,r,0.1";
const char *const kSpcBadSize = "0,1,abc ,r,0.1";
const char *const kSpcBadTs = "0,1,512,r,zz";
/** Not a multiple of 512: rounds up to one block under clamp. */
const char *const kSpcOddSize = "0,5,100,r,0.004";
/** Zero bytes: floors to one block under clamp. */
const char *const kSpcZeroSize = "0,6,0,w,0.005";
/** Never repaired. */
const char *const kSpcBadOp = "0,7,512,q,0.1";
/** Arrives at 0 under clamp. */
const char *const kSpcNegTs = "0,8,1024,R,-0.5";
/** Odd size and bad opcode: the opcode wins, no repair. */
const char *const kSpcOddBadOp = "0,9,100,x,0.1";
/** Odd size and negative timestamp: both repaired under clamp. */
const char *const kSpcOddNegTs = "0,10,600,w,-1";
/** Extra fields past the fifth are ignored. */
const char *const kSpcExtra = "0,11,512,r,0.003,extra";

std::string
dirtySpc()
{
    return text({kSpcComment, kSpcOk1, "", kSpcOk2, kSpcShort, kSpcBadAsu,
                 kSpcBadLba, kSpcBadSize, kSpcBadTs, kSpcOddSize,
                 kSpcZeroSize, kSpcBadOp, kSpcNegTs, kSpcOddBadOp,
                 kSpcOddNegTs, kSpcExtra});
}

TEST(SpcPins, AbortStopsAtTheFirstCorruptRecord)
{
    std::istringstream is(dirtySpc());
    IngestStats st;
    auto r = readSpc(is, "spc", under(RecordPolicy::kAbort), &st);
    expectError(r, StatusCode::kCorruptData,
                "SPC line 5: expected 5 fields");
    expectStats(st, {2, 0, 0, 1, bytesOf({kSpcOk1, kSpcOk2}), 0,
                     {"SPC line 5: expected 5 fields"}});
}

TEST(SpcPins, SkipDropsEveryCorruptRecord)
{
    std::istringstream is(dirtySpc());
    IngestStats st;
    IngestOptions o = under(RecordPolicy::kSkipAndCount);
    o.max_error_samples = 16;
    auto r = readSpc(is, "spc", o, &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const MsTrace &t = r.value();
    EXPECT_EQ(t.driveId(), "spc");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t.at(0).lba, 2000u);
    EXPECT_EQ(t.at(1).lba, 1000u);
    EXPECT_EQ(t.at(1).blocks, 8u);
    EXPECT_EQ(t.at(2).lba, 11u);
    EXPECT_EQ(t.start(), 0);
    EXPECT_EQ(t.duration(), 3 * kMsec + 1);
    expectStats(st, {3, 11, 0, 11, bytesOf({kSpcOk1, kSpcOk2, kSpcExtra}),
                     bytesOf({kSpcExtra}),
                     {"SPC line 5: expected 5 fields",
                      "SPC line 6: malformed asu 'x'",
                      "SPC line 7: malformed lba 'y'",
                      "SPC line 8: malformed size 'abc'",
                      "SPC line 9: malformed timestamp 'zz'",
                      "SPC line 10: size not a positive multiple of 512",
                      "SPC line 11: size not a positive multiple of 512",
                      "SPC line 12: bad opcode 'q'",
                      "SPC line 13: negative timestamp",
                      "SPC line 14: size not a positive multiple of 512",
                      "SPC line 15: size not a positive multiple of 512"}});
}

TEST(SpcPins, ClampRepairsSizeAndTimestamp)
{
    std::istringstream is(dirtySpc());
    IngestStats st;
    IngestOptions o = under(RecordPolicy::kBestEffortClamp);
    o.max_error_samples = 16;
    auto r = readSpc(is, "spc", o, &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const MsTrace &t = r.value();
    ASSERT_EQ(t.size(), 7u);
    // Sorted: the two clamped-to-zero arrivals first, in input order.
    EXPECT_EQ(t.at(0).lba, 8u);
    EXPECT_EQ(t.at(0).arrival, 0);
    EXPECT_EQ(t.at(0).blocks, 2u);
    EXPECT_TRUE(t.at(0).isRead());
    EXPECT_EQ(t.at(1).lba, 10u);
    EXPECT_EQ(t.at(1).arrival, 0);
    EXPECT_EQ(t.at(1).blocks, 2u);
    EXPECT_TRUE(t.at(1).isWrite());
    EXPECT_EQ(t.at(2).lba, 2000u);
    EXPECT_EQ(t.at(3).lba, 1000u);
    EXPECT_EQ(t.at(4).lba, 11u);
    EXPECT_EQ(t.at(5).lba, 5u);
    EXPECT_EQ(t.at(5).blocks, 1u);
    EXPECT_EQ(t.at(6).lba, 6u);
    EXPECT_EQ(t.at(6).blocks, 1u);
    EXPECT_TRUE(t.at(6).isWrite());
    EXPECT_EQ(t.duration(), 5 * kMsec + 1);
    expectStats(st, {7, 7, 4, 11,
                     bytesOf({kSpcOk1, kSpcOk2, kSpcOddSize, kSpcZeroSize,
                              kSpcNegTs, kSpcOddNegTs, kSpcExtra}),
                     bytesOf({kSpcOddSize, kSpcZeroSize, kSpcNegTs,
                              kSpcOddNegTs, kSpcExtra}),
                     {"SPC line 5: expected 5 fields",
                      "SPC line 6: malformed asu 'x'",
                      "SPC line 7: malformed lba 'y'",
                      "SPC line 8: malformed size 'abc'",
                      "SPC line 9: malformed timestamp 'zz'",
                      "SPC line 10: size not a positive multiple of 512",
                      "SPC line 11: size not a positive multiple of 512",
                      "SPC line 12: bad opcode 'q'",
                      "SPC line 13: negative timestamp",
                      "SPC line 14: bad opcode 'x'",
                      "SPC line 15: negative timestamp"}});
}

TEST(SpcPins, AsuFilterDropsSilentlyButStillChecksTheAsu)
{
    const char *keep = "2,1,512,r,0.001";
    const std::string in =
        text({"0,1,512,r,0.002", keep, "1,2", "q,3,512,r,0.1",
              "0,4,100,r,0.1"});
    for (RecordPolicy p : kPolicies) {
        std::istringstream is(in);
        IngestStats st;
        auto r = readSpc(is, "spc", under(p), &st, 2);
        if (p == RecordPolicy::kAbort) {
            expectError(r, StatusCode::kCorruptData,
                        "SPC line 3: expected 5 fields");
            expectStats(st, {1, 0, 0, 1, bytesOf({keep}), 0,
                             {"SPC line 3: expected 5 fields"}});
            continue;
        }
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_EQ(r.value().size(), 1u);
        EXPECT_EQ(r.value().at(0).lba, 1u);
        expectStats(st, {1, 2, 0, 2, bytesOf({keep}), 0,
                         {"SPC line 3: expected 5 fields",
                          "SPC line 4: malformed asu 'q'"}});
    }
}

TEST(SpcPins, CrlfLinesAndNoFinalNewline)
{
    const std::string in = "# comment\r\n"
                           "0,1000,512,r,0.002\r\n"
                           "\r\n"
                           "0,2000,1024,W,0.001";
    for (RecordPolicy p : kPolicies) {
        std::istringstream is(in);
        IngestStats st;
        auto r = readSpc(is, "spc", under(p), &st);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_EQ(r.value().size(), 2u);
        EXPECT_EQ(r.value().at(0).lba, 2000u);
        EXPECT_EQ(r.value().at(0).blocks, 2u);
        EXPECT_EQ(r.value().at(1).arrival, 2 * kMsec);
        expectStats(st, {2, 0, 0, 0,
                         bytesOf({"0,1000,512,r,0.002\r",
                                  "0,2000,1024,W,0.001"}),
                         0, {}});
    }
    std::istringstream empty("");
    IngestStats st;
    auto r = readSpc(empty, "spc", IngestOptions{}, &st);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(r.value().duration(), 0);
    expectStats(st, {});
}

TEST(SpcPins, InjectedFaultsAndPathContext)
{
    const char *rows[] = {"0,1,512,r,0.001", "0,2,512,r,0.002",
                          "0,3,512,r,0.003"};
    const std::string in = text({"# c", rows[0], rows[1], rows[2]});
    fault::FaultSpec spec;
    spec.mode = fault::Mode::EveryNth;
    spec.n = 2;
    const std::string why =
        "SPC line 3: injected fault at trace.read.record";
    for (RecordPolicy p : kPolicies) {
        fault::ScopedFault f("trace.read.record", spec);
        std::istringstream is(in);
        IngestStats st;
        auto r = readSpc(is, "spc", under(p), &st);
        if (p == RecordPolicy::kAbort) {
            expectError(r, StatusCode::kCorruptData, why);
            expectStats(st, {1, 0, 0, 1, bytesOf({rows[0]}), 0, {why}});
            continue;
        }
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_EQ(r.value().size(), 2u);
        expectStats(st, {2, 1, 0, 1, bytesOf({rows[0], rows[2]}),
                         bytesOf({rows[2]}), {why}});
    }

    const std::string dirty = writeTemp("dirty.spc", dirtySpc());
    IngestStats st;
    auto r = readSpc(dirty, "d", IngestOptions{}, &st);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().toString(),
              "[CorruptData] reading '" + dirty +
                  "': SPC line 5: expected 5 fields");
    EXPECT_EQ(st.records_read, 2u);

    const std::string missing = ::testing::TempDir() + "/dlw_no_such.spc";
    expectError(readSpc(missing, "d", IngestOptions{}),
                StatusCode::kIoError,
                "cannot open '" + missing + "' for reading");
    fault::FaultSpec once;
    once.mode = fault::Mode::Once;
    fault::ScopedFault f("trace.open", once);
    expectError(readSpc(dirty, "d", IngestOptions{}), StatusCode::kIoError,
                "injected fault at trace.open on '" + dirty + "'");
}

TEST(SpcPins, BlockCountOutOfRangeIsRefused)
{
    // 2^41 bytes is 2^32 blocks: once narrowed to 0, then a panic.
    const char *ok = "0,1,512,r,0.001";
    for (const char *size :
         {"2199023255552", "2199023255553", "18446744073709551615"}) {
        const std::string bad = std::string("0,2,") + size + ",w,0.002";
        const std::string in = text({ok, bad.c_str()});
        const std::string why =
            "SPC line 2: blocks out of range '" + std::string(size) + "'";
        for (RecordPolicy p : kPolicies) {
            SCOPED_TRACE(size);
            std::istringstream is(in);
            IngestStats st;
            auto r = readSpc(is, "spc", under(p), &st);
            if (p == RecordPolicy::kAbort) {
                expectError(r, StatusCode::kCorruptData, why);
                expectStats(st, {1, 0, 0, 1, bytesOf({ok}), 0, {why}});
                continue;
            }
            ASSERT_TRUE(r.ok()) << r.status().toString();
            ASSERT_EQ(r.value().size(), 1u);
            expectStats(st, {1, 1, 0, 1, bytesOf({ok}), 0, {why}});
        }
    }
    // The largest block count that fits is still a record.
    std::istringstream is("0,2,2199023255040,r,0.002\n");
    auto r = readSpc(is, "spc", IngestOptions{});
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().at(0).blocks, 4294967295u);
}

TEST(MsCsvPins, BlockCountOutOfRangeIsRefused)
{
    const char *ok = "10,0,8,R";
    const char *bad = "20,0,4294967297,W";
    const std::string in =
        text({"# dlw-ms-v1,d,0,1000", "arrival_ns,lba,blocks,op", ok, bad});
    const std::string why = "line 4: blocks out of range '4294967297'";
    for (RecordPolicy p : kPolicies) {
        std::istringstream is(in);
        IngestStats st;
        auto r = readMsCsv(is, under(p), &st);
        if (p == RecordPolicy::kAbort) {
            expectError(r, StatusCode::kCorruptData, why);
            expectStats(st, {1, 0, 0, 1, bytesOf({ok}), 0, {why}});
            continue;
        }
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_EQ(r.value().size(), 1u);
        EXPECT_EQ(r.value().at(0).blocks, 8u);
        expectStats(st, {1, 1, 0, 1, bytesOf({ok}), 0, {why}});
    }
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
