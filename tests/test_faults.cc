/**
 * @file
 * Fault-injection, corrupt-record-policy, and degraded-fleet tests.
 *
 * Covers the four legs of the failure model:
 *  - fault points: arming modes, spec parsing, zero disarmed effect;
 *  - ingestion policies: exact IngestStats per policy on crafted
 *    corrupt inputs, CSV and binary;
 *  - corrupt utility: deterministic mangling and the write ->
 *    corrupt -> ingest -> verify-recovery round trip;
 *  - fleet isolation: injected shard failures yield a degraded but
 *    byte-identical report at any thread count, and a transient
 *    (once) fault is healed by a retry.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/fault.hh"
#include "common/rng.hh"
#include "fleet/pipeline.hh"
#include "synth/workload.hh"
#include "trace/binio.hh"
#include "trace/corrupt.hh"
#include "trace/csvio.hh"
#include "trace/spc.hh"

namespace dlw
{
namespace
{

using trace::IngestOptions;
using trace::IngestStats;
using trace::MsTrace;
using trace::RecordPolicy;

IngestOptions
withPolicy(RecordPolicy p)
{
    IngestOptions o;
    o.policy = p;
    return o;
}

// ---------------------------------------------------------------- fault

TEST(Fault, DisarmedNeverFires)
{
    fault::disarmAll();
    EXPECT_FALSE(fault::anyArmed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(FAULT_POINT("test.point"));
}

TEST(Fault, EveryNthFiresOnSchedule)
{
    fault::FaultSpec spec;
    spec.mode = fault::Mode::EveryNth;
    spec.n = 3;
    fault::ScopedFault f("test.nth", spec);
    int fires = 0;
    for (int i = 1; i <= 9; ++i) {
        if (FAULT_POINT("test.nth")) {
            ++fires;
            EXPECT_EQ(i % 3, 0) << "fired at evaluation " << i;
        }
    }
    EXPECT_EQ(fires, 3);
    EXPECT_EQ(fault::fireCount("test.nth"), 3u);
}

TEST(Fault, KeyModIsPureFunctionOfKey)
{
    fault::FaultSpec spec;
    spec.mode = fault::Mode::KeyMod;
    spec.n = 8;
    fault::ScopedFault f("test.mod", spec);
    // Evaluation order must not matter: probe keys backwards.
    for (std::uint64_t key = 63; key != static_cast<std::uint64_t>(-1);
         --key) {
        EXPECT_EQ(FAULT_POINT_KEYED("test.mod", key), key % 8 == 0)
            << "key " << key;
    }
    EXPECT_EQ(fault::fireCount("test.mod"), 8u);
}

TEST(Fault, OnceFiresExactlyOnce)
{
    fault::FaultSpec spec;
    spec.mode = fault::Mode::Once;
    fault::ScopedFault f("test.once", spec);
    EXPECT_TRUE(FAULT_POINT("test.once"));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(FAULT_POINT("test.once"));
}

TEST(Fault, ProbabilityIsSeededAndReproducible)
{
    fault::FaultSpec spec;
    spec.mode = fault::Mode::Probability;
    spec.p = 0.25;
    spec.seed = 7;

    std::vector<bool> first;
    {
        fault::ScopedFault f("test.p", spec);
        for (std::uint64_t k = 0; k < 400; ++k)
            first.push_back(FAULT_POINT_KEYED("test.p", k));
    }
    std::size_t fires = 0;
    {
        fault::ScopedFault f("test.p", spec);
        for (std::uint64_t k = 0; k < 400; ++k) {
            EXPECT_EQ(FAULT_POINT_KEYED("test.p", k), first[k]);
            fires += first[k];
        }
    }
    // ~100 expected; accept a generous window, but reject the
    // degenerate all-or-nothing outcomes.
    EXPECT_GT(fires, 40u);
    EXPECT_LT(fires, 180u);
}

TEST(Fault, SpecStringArmsSeveralPoints)
{
    Status s = fault::armFromSpec(
        "a.point:nth=3;b.point:mod=8;c.point:p=0.5,seed=9;d.point:once");
    ASSERT_TRUE(s.ok()) << s.toString();
    EXPECT_TRUE(fault::anyArmed());
    EXPECT_FALSE(FAULT_POINT("a.point"));
    EXPECT_FALSE(FAULT_POINT("a.point"));
    EXPECT_TRUE(FAULT_POINT("a.point"));
    EXPECT_TRUE(FAULT_POINT_KEYED("b.point", 16));
    EXPECT_FALSE(FAULT_POINT_KEYED("b.point", 17));
    EXPECT_TRUE(FAULT_POINT("d.point"));
    EXPECT_FALSE(FAULT_POINT("d.point"));
    fault::disarmAll();
    EXPECT_FALSE(fault::anyArmed());
}

TEST(Fault, BadSpecArmsNothing)
{
    fault::disarmAll();
    EXPECT_FALSE(fault::armFromSpec("a.point:nth=3;bogus").ok());
    EXPECT_FALSE(fault::armFromSpec("a.point:nope=1").ok());
    EXPECT_FALSE(fault::armFromSpec("a.point:nth=0").ok());
    // All-or-nothing: the valid clause before the bad one must not
    // have been armed.
    EXPECT_FALSE(fault::anyArmed());
}

// ------------------------------------------------------------- policies

/** A ms CSV with 4 good records and 2 corrupt ones in the middle. */
std::string
corruptMsCsv()
{
    return "# dlw-ms-v1,d,0,1000\n"
           "arrival_ns,lba,blocks,op\n"
           "10,100,8,R\n"
           "20,200,8,W\n"
           "30,300,0,R\n"   // zero blocks: clampable to 1
           "40,400,8,Q\n"   // bad op: never clampable
           "50,500,8,R\n"
           "60,600,8,W\n";
}

TEST(IngestPolicy, AbortStopsAtFirstCorruptRecord)
{
    std::stringstream ss(corruptMsCsv());
    IngestStats st;
    auto r = trace::readMsCsv(ss, withPolicy(RecordPolicy::kAbort),
                              &st);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_EQ(st.records_read, 2u);
    EXPECT_EQ(st.errors, 1u);
    EXPECT_EQ(st.bytes_recovered, 0u);
}

TEST(IngestPolicy, SkipCountsAndRecovers)
{
    std::stringstream ss(corruptMsCsv());
    IngestStats st;
    auto r = trace::readMsCsv(
        ss, withPolicy(RecordPolicy::kSkipAndCount), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().size(), 4u);
    EXPECT_EQ(st.records_read, 4u);
    EXPECT_EQ(st.records_skipped, 2u);
    EXPECT_EQ(st.records_clamped, 0u);
    EXPECT_EQ(st.errors, 2u);
    // Exactly the two good records after the first corrupt one:
    // "50,500,8,R\n" and "60,600,8,W\n" are 11 bytes each.
    EXPECT_EQ(st.bytes_recovered, 22u);
    ASSERT_FALSE(st.error_samples.empty());
    EXPECT_NE(st.error_samples[0].find("zero-length request"),
              std::string::npos);
}

TEST(IngestPolicy, ClampRepairsWhatItCan)
{
    std::stringstream ss(corruptMsCsv());
    IngestStats st;
    auto r = trace::readMsCsv(
        ss, withPolicy(RecordPolicy::kBestEffortClamp), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    // Zero-blocks row is clamped to 1 block; bad-op row is skipped.
    EXPECT_EQ(r.value().size(), 5u);
    EXPECT_EQ(st.records_read, 5u);
    EXPECT_EQ(st.records_skipped, 1u);
    EXPECT_EQ(st.records_clamped, 1u);
    EXPECT_EQ(st.errors, 2u);
    EXPECT_EQ(r.value().at(2).blocks, 1u);
}

TEST(IngestPolicy, BinaryTruncationKeepsPrefixUnderSkip)
{
    Rng rng(3);
    synth::Workload w = synth::Workload::makeOltp(1 << 20, 50.0);
    MsTrace a = w.generate(rng, "bin-drive", 0, 5 * kSec);
    ASSERT_GT(a.size(), 10u);

    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    trace::writeMsBinary(ss, a);
    const std::string data = ss.str();
    // Cut mid-record-area: drop the last 40% of the byte stream.
    std::stringstream cut(data.substr(0, (data.size() * 6) / 10),
                          std::ios::in | std::ios::binary);

    IngestStats st;
    auto r = trace::readMsBinary(
        cut, withPolicy(RecordPolicy::kSkipAndCount), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_GT(r.value().size(), 0u);
    EXPECT_LT(r.value().size(), a.size());
    EXPECT_EQ(st.records_read, r.value().size());
    EXPECT_EQ(st.records_read + st.records_skipped, a.size());
    EXPECT_EQ(st.errors, 1u);
    // The intact prefix matches the original record-for-record.
    for (std::size_t i = 0; i < r.value().size(); ++i)
        ASSERT_TRUE(r.value().at(i) == a.at(i)) << "record " << i;
}

TEST(IngestPolicy, HeaderCorruptionNeverRecoverable)
{
    for (RecordPolicy p :
         {RecordPolicy::kSkipAndCount, RecordPolicy::kBestEffortClamp}) {
        std::stringstream ss("garbage header\n1,2,3,R\n");
        auto r = trace::readMsCsv(ss, withPolicy(p));
        EXPECT_FALSE(r.ok()) << trace::recordPolicyName(p);
    }
}

TEST(IngestPolicy, ArmedReaderFaultPointSkipsRecords)
{
    fault::FaultSpec spec;
    spec.mode = fault::Mode::EveryNth;
    spec.n = 3;
    fault::ScopedFault f("trace.read.record", spec);

    std::stringstream ss("# dlw-ms-v1,d,0,1000\n"
                         "arrival_ns,lba,blocks,op\n"
                         "10,100,8,R\n"
                         "20,200,8,W\n"
                         "30,300,8,R\n"
                         "40,400,8,W\n"
                         "50,500,8,R\n"
                         "60,600,8,W\n");
    IngestStats st;
    auto r = trace::readMsCsv(
        ss, withPolicy(RecordPolicy::kSkipAndCount), &st);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    // Every 3rd record evaluation injects: records 3 and 6.
    EXPECT_EQ(st.records_read, 4u);
    EXPECT_EQ(st.records_skipped, 2u);
    EXPECT_EQ(fault::fireCount("trace.read.record"), 2u);
}

TEST(IngestPolicy, OpenFaultPointFailsPathReads)
{
    fault::FaultSpec spec;
    spec.mode = fault::Mode::Once;
    fault::ScopedFault f("trace.open", spec);
    auto r = trace::readMsCsv("/tmp/does-not-matter.csv",
                              IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_NE(r.status().message().find("injected"),
              std::string::npos);
}

// -------------------------------------------------------------- corrupt

TEST(Corrupt, DeterministicPerSpec)
{
    std::string in = corruptMsCsv();
    trace::CorruptSpec spec;
    spec.mode = trace::CorruptMode::kBitFlip;
    spec.seed = 11;
    spec.count = 4;
    auto a = trace::corruptBuffer(in, spec);
    auto b = trace::corruptBuffer(in, spec);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
    EXPECT_NE(a.value(), in);

    spec.seed = 12;
    auto c = trace::corruptBuffer(in, spec);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(c.value(), a.value());
}

TEST(Corrupt, LineModesPreserveHeaders)
{
    std::string in = corruptMsCsv();
    for (trace::CorruptMode m :
         {trace::CorruptMode::kFieldGarbage,
          trace::CorruptMode::kDupTimestamp,
          trace::CorruptMode::kReorder}) {
        trace::CorruptSpec spec;
        spec.mode = m;
        spec.seed = 5;
        spec.count = 3;
        auto r = trace::corruptBuffer(in, spec);
        ASSERT_TRUE(r.ok()) << trace::corruptModeName(m);
        std::istringstream is(r.value());
        std::string l1, l2;
        std::getline(is, l1);
        std::getline(is, l2);
        EXPECT_EQ(l1, "# dlw-ms-v1,d,0,1000")
            << trace::corruptModeName(m);
        EXPECT_EQ(l2, "arrival_ns,lba,blocks,op")
            << trace::corruptModeName(m);
    }
}

TEST(Corrupt, LineModesRefuseBinaryTraces)
{
    std::stringstream bin(std::ios::in | std::ios::out |
                          std::ios::binary);
    std::stringstream csv(corruptMsCsv());
    trace::writeMsBinary(
        bin, trace::readMsCsv(csv, withPolicy(RecordPolicy::kSkipAndCount))
                 .valueOrThrow());
    const std::string in = bin.str();
    for (trace::CorruptMode m :
         {trace::CorruptMode::kFieldGarbage,
          trace::CorruptMode::kDupTimestamp,
          trace::CorruptMode::kReorder}) {
        trace::CorruptSpec spec;
        spec.mode = m;
        auto r = trace::corruptBuffer(in, spec);
        ASSERT_FALSE(r.ok()) << trace::corruptModeName(m);
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(r.status().message(),
                  std::string("mode '") + trace::corruptModeName(m) +
                      "' edits CSV lines and cannot damage a binary "
                      "DLWMS1 trace (use truncate or bitflip)");
    }
    for (trace::CorruptMode m :
         {trace::CorruptMode::kTruncate, trace::CorruptMode::kBitFlip}) {
        trace::CorruptSpec spec;
        spec.mode = m;
        spec.offset = 64;
        auto r = trace::corruptBuffer(in, spec);
        ASSERT_TRUE(r.ok()) << trace::corruptModeName(m);
        EXPECT_NE(r.value(), in);
    }
}

TEST(Corrupt, TruncateCutsTheMiddle)
{
    std::string in(1000, 'x');
    trace::CorruptSpec spec;
    spec.mode = trace::CorruptMode::kTruncate;
    spec.seed = 2;
    auto r = trace::corruptBuffer(in, spec);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().size(), 250u);
    EXPECT_LE(r.value().size(), 750u);
}

TEST(Corrupt, UnknownModeNameRejected)
{
    EXPECT_FALSE(trace::parseCorruptMode("smash").ok());
    EXPECT_TRUE(trace::parseCorruptMode("truncate").ok());
}

/**
 * The acceptance round trip: write a clean trace, make 4 corrupt
 * variants, ingest each under skip, and verify the reader recovered
 * everything except the damaged records.
 */
TEST(Corrupt, WriteCorruptIngestRecoverRoundTrip)
{
    Rng rng(21);
    synth::Workload w = synth::Workload::makeFileServer(1 << 20, 80.0);
    MsTrace a = w.generate(rng, "torture-drive", 0, 5 * kSec);
    ASSERT_GT(a.size(), 50u);
    std::stringstream clean;
    trace::writeMsCsv(clean, a);
    const std::string bytes = clean.str();

    const trace::CorruptMode modes[] = {
        trace::CorruptMode::kFieldGarbage,
        trace::CorruptMode::kDupTimestamp,
        trace::CorruptMode::kReorder,
        trace::CorruptMode::kBitFlip,
    };
    for (std::size_t m = 0; m < 4; ++m) {
        trace::CorruptSpec spec;
        spec.mode = modes[m];
        spec.seed = 100 + m;
        spec.count = 5;
        // Keep bit flips out of the two header lines.
        if (spec.mode == trace::CorruptMode::kBitFlip)
            spec.offset = bytes.find('\n', bytes.find('\n') + 1) + 1;
        auto damaged = trace::corruptBuffer(bytes, spec);
        ASSERT_TRUE(damaged.ok()) << trace::corruptModeName(modes[m]);

        std::stringstream is(damaged.value());
        IngestStats st;
        auto r = trace::readMsCsv(
            is, withPolicy(RecordPolicy::kSkipAndCount), &st);
        ASSERT_TRUE(r.ok()) << trace::corruptModeName(modes[m]) << ": "
                            << r.status().toString();
        // Recovery floor: each damage event destroys at most two
        // records (a bit flip on a newline merges neighbours), so at
        // least size - 2 * count must survive.
        EXPECT_GE(r.value().size() + 2 * spec.count, a.size())
            << trace::corruptModeName(modes[m]);
        EXPECT_EQ(st.records_read, r.value().size());
    }
}

// ---------------------------------------------------------------- fleet

fleet::FleetConfig
smallFleet(std::size_t threads)
{
    fleet::FleetConfig cfg;
    cfg.drives = 64;
    cfg.threads = threads;
    cfg.window = 2 * kSec;
    cfg.rate = 40.0;
    cfg.max_attempts = 2;
    return cfg;
}

TEST(FleetFaults, DegradedRunIsByteIdenticalAcrossThreads)
{
    std::string reports[3];
    const std::size_t threads[3] = {1, 2, 8};
    for (int t = 0; t < 3; ++t) {
        fault::ScopedFault f("fleet.shard:mod=8");
        fleet::FleetConfig cfg = smallFleet(threads[t]);
        fleet::FleetResult r = fleet::runFleet(cfg);
        EXPECT_EQ(r.shards.size(), 56u);
        ASSERT_EQ(r.failures.size(), 8u);
        for (std::size_t k = 0; k < 8; ++k) {
            EXPECT_EQ(r.failures[k].index, k * 8);
            EXPECT_EQ(r.failures[k].error.code(),
                      StatusCode::kUnavailable);
        }
        reports[t] = renderFleetReport(cfg, r);
    }
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
    EXPECT_NE(reports[0].find("failure appendix"), std::string::npos);
    EXPECT_NE(reports[0].find("# failure drive="), std::string::npos);
}

TEST(FleetFaults, DegradedAggregateMatchesSurvivorsOnly)
{
    // The 56 survivors of a degraded run must aggregate exactly like
    // a run that never contained the failed drives.
    fleet::FleetConfig cfg = smallFleet(4);
    std::vector<fleet::DriveShard> expect;
    for (std::size_t i = 0; i < cfg.drives; ++i) {
        if (i % 8 != 0)
            expect.push_back(fleet::characterizeDrive(cfg, i));
    }
    fleet::FleetAggregate want = fleet::reduceOrdered(expect);

    fault::ScopedFault f("fleet.shard:mod=8");
    fleet::FleetResult r = fleet::runFleet(cfg);
    EXPECT_EQ(r.aggregate.drives, want.drives);
    EXPECT_EQ(r.aggregate.requests, want.requests);
    EXPECT_EQ(r.aggregate.response_ms.mean(), want.response_ms.mean());
}

TEST(FleetFaults, TransientFaultHealedByRetry)
{
    fault::ScopedFault f("fleet.shard:once");
    fleet::FleetConfig cfg = smallFleet(1);
    cfg.drives = 4;
    cfg.max_attempts = 3;
    fleet::FleetResult r = fleet::runFleet(cfg);
    EXPECT_EQ(r.shards.size(), 4u);
    EXPECT_TRUE(r.failures.empty());
    EXPECT_EQ(r.retries, 1u);
}

TEST(FleetFaults, ExhaustedRetriesLandInAppendix)
{
    fault::ScopedFault f("fleet.shard:mod=1"); // every drive, always
    fleet::FleetConfig cfg = smallFleet(2);
    cfg.drives = 3;
    cfg.max_attempts = 2;
    fleet::FleetResult r = fleet::runFleet(cfg);
    EXPECT_TRUE(r.shards.empty());
    ASSERT_EQ(r.failures.size(), 3u);
    EXPECT_EQ(r.failures[0].attempts, 2u);
    EXPECT_EQ(r.retries, 3u);
    std::string report = renderFleetReport(cfg, r);
    EXPECT_NE(report.find("no surviving drives"), std::string::npos);
}

TEST(FleetFaults, CleanRunHasNoAppendix)
{
    fleet::FleetConfig cfg = smallFleet(2);
    cfg.drives = 4;
    fleet::FleetResult r = fleet::runFleet(cfg);
    EXPECT_TRUE(r.failures.empty());
    EXPECT_EQ(r.retries, 0u);
    std::string report = renderFleetReport(cfg, r);
    EXPECT_EQ(report.find("failure appendix"), std::string::npos);
}

} // anonymous namespace
} // namespace dlw
