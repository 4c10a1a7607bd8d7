/**
 * @file
 * Unit tests for the timeline flight recorder: disarmed no-op
 * semantics, ring wraparound, Chrome trace_event golden export,
 * begin/end pairing, the signal-safe dump, and the fleet
 * thread-count invariance of deterministic event counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "fleet/pipeline.hh"
#include "common/json.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/timeline.hh"
#include "obs/timeline_export.hh"

namespace dlw
{
namespace obs
{
namespace
{

/** RAII enable/disable around one test body. */
struct ScopedTimeline
{
    explicit ScopedTimeline(
        std::size_t capacity = kDefaultTimelineCapacity)
    {
        resetTimeline();
        enableTimeline(capacity);
    }
    ~ScopedTimeline() { disableTimeline(); }
};

// ---------------------------------------------------------------------------
// Recorder primitives.

TEST(Timeline, DisarmedEmitIsNoOp)
{
    resetTimeline();
    ASSERT_FALSE(timelineEnabled());
    emitInstant("test.never");
    emitCounter("test.never.value", 7.0);
    emitBegin("test.never.span");
    emitEnd("test.never.span");
    const TimelineSnapshot snap = timelineSnapshot();
    EXPECT_TRUE(snap.events.empty());
    EXPECT_EQ(snap.threads, 0u);
}

TEST(Timeline, ArmedEmitRecords)
{
    ScopedTimeline on;
    emitInstant("test.tick");
    emitCounter("test.depth", 3.0);
    const TimelineSnapshot snap = timelineSnapshot();
    ASSERT_EQ(snap.events.size(), 2u);
    EXPECT_STREQ(snap.events[0].name, "test.tick");
    EXPECT_EQ(snap.events[0].kind, TimelineEventKind::kInstant);
    EXPECT_STREQ(snap.events[1].name, "test.depth");
    EXPECT_EQ(snap.events[1].kind, TimelineEventKind::kCounter);
    EXPECT_DOUBLE_EQ(snap.events[1].value, 3.0);
    // Same thread, monotone clock.
    EXPECT_EQ(snap.events[0].tid, snap.events[1].tid);
    EXPECT_LE(snap.events[0].ts_ns, snap.events[1].ts_ns);
    EXPECT_EQ(snap.threads, 1u);
}

TEST(Timeline, RingWraparoundKeepsNewest)
{
    TimelineRing ring(4, 9);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.push("e", TimelineEventKind::kInstant,
                  static_cast<double>(i), 100 * i);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    EXPECT_EQ(ring.capacity(), 4u);

    std::vector<TimelineEvent> out;
    ring.snapshotInto(out);
    ASSERT_EQ(out.size(), 4u);
    // Oldest-first, and only the newest four survive.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out[i].ts_ns, 100 * (6 + i));
        EXPECT_DOUBLE_EQ(out[i].value, static_cast<double>(6 + i));
        EXPECT_EQ(out[i].tid, 9u);
    }
}

TEST(Timeline, RingBelowCapacityDropsNothing)
{
    TimelineRing ring(8, 0);
    ring.push("a", TimelineEventKind::kInstant, 0.0, 10);
    ring.push("b", TimelineEventKind::kInstant, 0.0, 20);
    EXPECT_EQ(ring.dropped(), 0u);
    std::vector<TimelineEvent> out;
    ring.snapshotInto(out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_STREQ(out[0].name, "a");
    EXPECT_STREQ(out[1].name, "b");
}

TEST(Timeline, SnapshotReportsWraparoundDrops)
{
    ScopedTimeline on(4);
    // A fresh capacity only applies to rings created after this
    // enable; this thread's ring may predate it, so push enough to
    // wrap either way is not portable across test order.  Use the
    // explicit ring API above for exact drop counts; here just check
    // the armed recorder keeps the newest events.
    for (int i = 0; i < 8; ++i)
        emitInstant("test.wrap");
    const TimelineSnapshot snap = timelineSnapshot();
    EXPECT_GE(snap.events.size(), 1u);
}

TEST(Timeline, ConcurrentSnapshotDuringWraparound)
{
    // One producer hammers a small ring through many wraparounds
    // while the main thread snapshots concurrently — the lock-free
    // reader path /v1/timeline exercises on a live daemon.  Every
    // snapshot must be bounded by capacity and internally sane; the
    // final snapshot (after the producer joins) must hold exactly
    // the newest `capacity` events.
    TimelineRing ring(64, 7);
    constexpr std::uint64_t kPushes = 200000;
    std::atomic<bool> go{false};
    std::thread producer([&] {
        while (!go.load())
            ;
        for (std::uint64_t i = 0; i < kPushes; ++i)
            ring.push("stress", TimelineEventKind::kInstant,
                      static_cast<double>(i), i + 1);
    });
    go.store(true);
    std::vector<TimelineEvent> out;
    for (int i = 0; i < 500; ++i) {
        out.clear();
        ring.snapshotInto(out);
        EXPECT_LE(out.size(), 64u);
        for (const TimelineEvent &e : out) {
            EXPECT_STREQ(e.name, "stress");
            EXPECT_EQ(e.tid, 7u);
            EXPECT_GE(e.ts_ns, 1u);
            EXPECT_LE(e.ts_ns, kPushes);
        }
    }
    producer.join();

    EXPECT_EQ(ring.pushed(), kPushes);
    EXPECT_EQ(ring.dropped(), kPushes - 64);
    out.clear();
    ring.snapshotInto(out);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].ts_ns, kPushes - 64 + i + 1);
}

TEST(Timeline, ResetDiscardsEvents)
{
    ScopedTimeline on;
    emitInstant("test.gone");
    resetTimeline();
    EXPECT_TRUE(timelineSnapshot().events.empty());
}

TEST(Timeline, InternedNamesAreStable)
{
    const char *a = internTimelineName("dyn.name");
    const char *b = internTimelineName(std::string("dyn.") + "name");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "dyn.name");
}

TEST(Timeline, ScopedSpanEmitsBeginEndWhenArmed)
{
    ScopedTimeline on;
    resetSpans();
    ASSERT_FALSE(enabled()); // metrics stay disarmed on purpose
    {
        ScopedSpan outer("tl.outer");
        ScopedSpan inner("tl.inner");
    }
    const TimelineSnapshot snap = timelineSnapshot();
    ASSERT_EQ(snap.events.size(), 4u);
    EXPECT_STREQ(snap.events[0].name, "tl.outer");
    EXPECT_EQ(snap.events[0].kind, TimelineEventKind::kBegin);
    EXPECT_STREQ(snap.events[1].name, "tl.inner");
    EXPECT_EQ(snap.events[1].kind, TimelineEventKind::kBegin);
    EXPECT_STREQ(snap.events[2].name, "tl.inner");
    EXPECT_EQ(snap.events[2].kind, TimelineEventKind::kEnd);
    EXPECT_STREQ(snap.events[3].name, "tl.outer");
    EXPECT_EQ(snap.events[3].kind, TimelineEventKind::kEnd);
    // Timeline armed alone must not grow the metrics span tree.
    EXPECT_TRUE(spanSnapshot().children.empty());
}

// ---------------------------------------------------------------------------
// Chrome trace_event export (pure function of a hand-built snapshot).

TimelineEvent
ev(const char *name, TimelineEventKind kind, std::uint64_t ts_ns,
   std::uint32_t tid, double value = 0.0)
{
    TimelineEvent e;
    e.name = name;
    e.kind = kind;
    e.ts_ns = ts_ns;
    e.tid = tid;
    e.value = value;
    return e;
}

TEST(TimelineExport, ChromeGolden)
{
    TimelineSnapshot snap;
    snap.events = {
        ev("load", TimelineEventKind::kBegin, 1000, 0),
        ev("parse", TimelineEventKind::kBegin, 2000, 0),
        ev("tick", TimelineEventKind::kInstant, 2500, 1),
        ev("depth", TimelineEventKind::kCounter, 3000, 1, 3.0),
        ev("parse", TimelineEventKind::kEnd, 3500, 0),
        ev("load", TimelineEventKind::kEnd, 4000, 0),
    };
    EXPECT_EQ(
        renderChromeTrace(snap, 42),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":42,"
        "\"tid\":0,\"args\":{\"name\":\"dlw\"}}"
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":42,"
        "\"tid\":0,\"args\":{\"name\":\"thread-0\"}}"
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":42,"
        "\"tid\":1,\"args\":{\"name\":\"thread-1\"}},\n"
        "{\"name\":\"load\",\"ph\":\"X\",\"ts\":1.000,"
        "\"dur\":3.000,\"pid\":42,\"tid\":0},\n"
        "{\"name\":\"parse\",\"ph\":\"X\",\"ts\":2.000,"
        "\"dur\":1.500,\"pid\":42,\"tid\":0},\n"
        "{\"name\":\"tick\",\"ph\":\"i\",\"ts\":2.500,"
        "\"pid\":42,\"tid\":1,\"s\":\"t\"},\n"
        "{\"name\":\"depth\",\"ph\":\"C\",\"ts\":3.000,"
        "\"pid\":42,\"tid\":1,\"args\":{\"value\":3}}\n"
        "]}\n");
}

TEST(TimelineExport, UnmatchedBeginStaysOpen)
{
    TimelineSnapshot snap;
    snap.events = {
        ev("stuck", TimelineEventKind::kBegin, 1000, 0),
        ev("orphan", TimelineEventKind::kEnd, 2000, 0),
    };
    const std::string json = renderChromeTrace(snap, 42);
    // The begin has no matching end (names differ), so both survive
    // raw instead of folding into an X.
    EXPECT_NE(json.find("\"name\":\"stuck\",\"ph\":\"B\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"orphan\",\"ph\":\"E\""),
              std::string::npos);
    EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TimelineExport, ExportParsesAsJson)
{
    TimelineSnapshot snap;
    snap.events = {
        ev("stage", TimelineEventKind::kBegin, 100, 0),
        ev("stage", TimelineEventKind::kEnd, 900, 0),
        ev("q", TimelineEventKind::kCounter, 500, 0, 2.5),
    };
    StatusOr<JsonValue> doc = parseJson(renderChromeTrace(snap, 7));
    ASSERT_TRUE(doc.ok());
    const JsonValue *events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::kArray);
    // process_name + thread_name + X + C.
    ASSERT_EQ(events->items.size(), 4u);
    bool saw_complete = false;
    for (const JsonValue &e : events->items) {
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "X") {
            saw_complete = true;
            ASSERT_NE(e.find("dur"), nullptr);
            EXPECT_DOUBLE_EQ(e.find("dur")->number, 0.8);
        }
        EXPECT_NE(e.find("pid"), nullptr);
        EXPECT_NE(e.find("tid"), nullptr);
        EXPECT_NE(e.find("name"), nullptr);
    }
    EXPECT_TRUE(saw_complete);
}

TEST(TimelineExport, WriteChromeTraceReportsIoErrors)
{
    TimelineSnapshot snap;
    EXPECT_FALSE(
        writeChromeTrace("/nonexistent-dir/trace.json", snap).ok());
}

// ---------------------------------------------------------------------------
// Signal-safe dump (exercised without a signal).

TEST(TimelineDump, RawStreamIsValidJson)
{
    ScopedTimeline on;
    emitBegin("dump.stage");
    emitCounter("dump.depth", 4.0);
    emitEnd("dump.stage");

    char path[] = "/tmp/dlw_timeline_dump_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    dumpTimelineToFd(fd);
    ::close(fd);

    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    ::unlink(path);

    StatusOr<JsonValue> doc = parseJson(ss.str());
    ASSERT_TRUE(doc.ok());
    ASSERT_EQ(doc.value().type, JsonValue::Type::kArray);
    // The dump walks every ring in the process (other tests' events
    // included), so check containment, not exact counts.
    bool saw_begin = false;
    bool saw_counter = false;
    for (const JsonValue &e : doc.value().items) {
        const JsonValue *name = e.find("name");
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ph, nullptr);
        if (name->str == "dump.stage" && ph->str == "B")
            saw_begin = true;
        if (name->str == "dump.depth" && ph->str == "C") {
            saw_counter = true;
            const JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_DOUBLE_EQ(args->find("value")->number, 4.0);
        }
    }
    EXPECT_TRUE(saw_begin);
    EXPECT_TRUE(saw_counter);
}

// ---------------------------------------------------------------------------
// Fleet thread-count invariance.

/** Deterministic per-(name, kind) event counts for one thread count. */
std::map<std::string, std::uint64_t>
fleetTimelineCounts(std::size_t threads)
{
    resetTimeline();
    enableTimeline();
    fleet::FleetConfig cfg;
    cfg.drives = 8;
    cfg.threads = threads;
    cfg.seed = 7;
    cfg.rate = 40.0;
    cfg.window = 10 * kSec;
    fleet::runFleet(cfg);
    disableTimeline();

    std::map<std::string, std::uint64_t> counts;
    for (const TimelineEvent &e : timelineSnapshot().events) {
        // Steals are scheduling noise by design, like the
        // fleet.pool.steals metric.
        if (std::string(e.name) == "fleet.pool.steal")
            continue;
        counts[std::string(e.name) + "/" +
               timelineEventKindName(e.kind)]++;
    }
    return counts;
}

TEST(TimelineFleet, EventCountsIdenticalAtAnyThreadCount)
{
    const auto serial = fleetTimelineCounts(1);
    const auto parallel = fleetTimelineCounts(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial.at("fleet.pool.task/instant"), 8u);
    EXPECT_EQ(serial.at("fleet.run/begin"), 1u);
    EXPECT_EQ(serial.at("fleet.run/end"), 1u);
    EXPECT_EQ(serial.at("fleet.shard/begin"), 8u);
    EXPECT_EQ(serial.at("fleet.shard/end"), 8u);
}

} // anonymous namespace
} // namespace obs
} // namespace dlw
