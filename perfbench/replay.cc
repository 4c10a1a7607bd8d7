/**
 * @file
 * perfbench_replay — the traced half of the benchmark.
 *
 * Replays the call sequence of one benchmark command through dlw's
 * public API, once untraced and once with a span around every call
 * into a layer, then prints the per-layer metrics as one JSON object
 * on stdout.  Spans are recorded from this file only (nothing inside
 * src/ is instrumented), kept in memory, and reduced at the end.
 * Decode and generate run inside DiskDrive::service and
 * characterizeMs; a timing RequestSource decorator records them as
 * child spans, so a layer's self time excludes them.
 *
 * Every replay renders the command's report and compares it byte for
 * byte with the command's own output (--expect), so a replica that
 * drifts from the command is counted in "mismatches".
 *
 *   perfbench_replay analyze --in T.csv --expect OUT
 *   perfbench_replay fleet --preset P --drives N --rate R --minutes M
 *                    --seed S --threads K --expect OUT
 *   perfbench_replay session --in A.csv --expect A.ref [--in ...]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "common/strutil.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "disk/drive.hh"
#include "fleet/merge.hh"
#include "fleet/pipeline.hh"
#include "net/buffer.hh"
#include "net/wire.hh"
#include "stats/regression.hh"
#include "synth/workload.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace
{

using namespace dlw;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** In-memory span recorder for one single-threaded replay. */
class Tracer
{
  public:
    Tracer() { spans_.reserve(1 << 16); }

    std::size_t
    begin(const char *name)
    {
        const long parent =
            open_.empty() ? -1 : static_cast<long>(open_.back());
        spans_.push_back({name, nowNs(), 0, parent});
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    end(std::size_t id)
    {
        spans_[id].end = nowNs();
        open_.pop_back();
    }

    /** Requests (or records) a layer handled, for ns/request. */
    void addWork(const std::string &name, std::uint64_t n)
    {
        work_[name] += n;
    }

    /** Per-layer totals: self time, span count and work. */
    struct Layer
    {
        std::uint64_t self_ns = 0;
        std::uint64_t spans = 0;
        std::uint64_t work = 0;
    };

    std::map<std::string, Layer>
    layers() const
    {
        std::vector<std::uint64_t> child(spans_.size(), 0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.end - s.start;
        }
        std::map<std::string, Layer> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Layer &l = out[spans_[i].name];
            l.self_ns += spans_[i].end - spans_[i].start - child[i];
            ++l.spans;
        }
        for (const auto &kv : work_)
            out[kv.first].work = kv.second;
        return out;
    }

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start;
        std::uint64_t end;
        long parent;
    };
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::map<std::string, std::uint64_t> work_;
};

/** One span for the lifetime of the object; a no-op without tracer. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), id_(t != nullptr ? t->begin(name) : 0)
    {
    }
    ~Scope()
    {
        if (t_ != nullptr)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    std::size_t id_;
};

/**
 * RequestSource decorator that records every pull from the inner
 * source (file decode or workload generation) as a child span of
 * whatever layer is consuming it.
 */
class TimedSource : public trace::RequestSource
{
  public:
    TimedSource(trace::RequestSource &inner, Tracer *t,
                const char *span)
        : inner_(inner), t_(t), span_(span)
    {
        setTag(inner.tag());
    }

    ~TimedSource() override
    {
        if (t_ != nullptr)
            t_->addWork(span_, delivered_);
    }

    const std::string &driveId() const override
    {
        return inner_.driveId();
    }
    Tick start() const override { return inner_.start(); }
    Tick duration() const override { return inner_.duration(); }
    Status status() const override { return inner_.status(); }

    bool
    next(trace::RequestBatch &batch) override
    {
        Scope s(t_, span_);
        const bool more = inner_.next(batch);
        delivered_ += batch.size();
        return more;
    }

  private:
    trace::RequestSource &inner_;
    Tracer *t_;
    const char *span_;
    std::uint64_t delivered_ = 0;
};

constexpr const char *kDecodeCsv = "trace.decode_csv";
constexpr const char *kDecodeBin = "trace.decode_bin";

void
check(const Status &s)
{
    if (!s.ok())
        throw StatusError(s);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Command-line flags; --in and --expect may repeat. */
struct Args
{
    std::string mode;
    std::multimap<std::string, std::string> kv;

    std::string
    get(const std::string &k) const
    {
        auto it = kv.find(k);
        if (it == kv.end())
            throw std::runtime_error("missing --" + k);
        return it->second;
    }

    std::vector<std::string>
    all(const std::string &k) const
    {
        std::vector<std::string> out;
        auto range = kv.equal_range(k);
        for (auto it = range.first; it != range.second; ++it)
            out.push_back(it->second);
        return out;
    }
};

/** The metrics one mode reports, printed as a JSON object. */
using Metrics = std::map<std::string, double>;

double
nsPerWork(const std::map<std::string, Tracer::Layer> &layers,
          const std::string &name)
{
    auto it = layers.find(name);
    if (it == layers.end() || it->second.work == 0)
        return 0.0;
    return static_cast<double>(it->second.self_ns) /
           static_cast<double>(it->second.work);
}

double
selfNs(const std::map<std::string, Tracer::Layer> &layers,
       const std::string &name)
{
    auto it = layers.find(name);
    return it == layers.end() ? 0.0
                              : static_cast<double>(it->second.self_ns);
}

/** Mean self time of one span of a layer, in ms. */
double
meanMs(const std::map<std::string, Tracer::Layer> &layers,
       const std::string &name)
{
    auto it = layers.find(name);
    return it == layers.end() || it->second.spans == 0
        ? 0.0
        : static_cast<double>(it->second.self_ns) / 1e6 /
            static_cast<double>(it->second.spans);
}

/**
 * The attribution figures: the share of traced wall time no span
 * claims, and what tracing cost against the untraced replay.
 */
void
attribution(Metrics &m, const Tracer &t, std::uint64_t traced_ns,
            std::uint64_t untraced_ns)
{
    std::uint64_t attributed = 0;
    for (const auto &kv : t.layers())
        attributed += kv.second.self_ns;
    m["tracing.unattributed_share"] =
        1.0 - static_cast<double>(attributed) /
                  static_cast<double>(traced_ns);
    m["tracing.overhead_share"] = static_cast<double>(traced_ns) /
                                      static_cast<double>(untraced_ns) -
                                  1.0;
}

void
simStats(Metrics &m, std::uint64_t requests, std::uint64_t read_hits,
         Tick busy, double mean_response_ticks)
{
    m["disk.sim_requests"] = static_cast<double>(requests);
    m["disk.sim_read_hits"] = static_cast<double>(read_hits);
    m["disk.sim_busy_ms"] = ticksToSeconds(busy) * 1e3;
    m["disk.sim_mean_response_ms"] =
        mean_response_ticks / static_cast<double>(kMsec);
}

// ---------------------------------------------------------------- analyze

struct AnalyzeRun
{
    std::string report;
    disk::ServiceLog log;
};

/**
 * The streaming path of `dlwtool analyze` (enterprise drive, cache
 * on): a stream-readiness trip, a service trip and a characterize
 * trip over the file, then the report.
 */
AnalyzeRun
replayAnalyze(const std::string &in, Tracer *t)
{
    const trace::IngestOptions io;
    const char *decode = endsWith(in, ".bin") ? kDecodeBin : kDecodeCsv;
    const auto open = [&] {
        Scope s(t, decode);
        return trace::openMsSource(in, io).valueOrThrow();
    };
    AnalyzeRun run;
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());

    trace::IngestStats stats;
    {
        auto file = open();
        TimedSource src(*file, t, decode);
        Scope v(t, "trace.validate");
        trace::RequestBatch batch(trace::kDefaultBatchRequests);
        Tick prev = src.start();
        while (src.next(batch)) {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const Tick at = batch.arrival(i);
                if (batch.blocks(i) == 0 || at < prev || at >= src.end())
                    throw std::runtime_error(
                        "trace is not stream-ready; analyze would take "
                        "the whole-trace path");
                prev = at;
            }
        }
        check(src.status());
        stats = file->stats();
    }
    if (stats.dirty())
        run.report = "ingestion: " + stats.summary() + "\n\n";

    {
        auto file = open();
        TimedSource src(*file, t, decode);
        Scope s(t, "disk.service");
        run.log = drive.service(src, nullptr, trace::kDefaultBatchRequests);
    }
    core::DriveCharacterization c;
    {
        auto file = open();
        TimedSource src(*file, t, decode);
        Scope s(t, "core.characterize");
        c = core::characterizeMs(src, run.log);
        check(file->status());
    }
    Scope r(t, "core.render");
    run.report += c.render();
    return run;
}

/**
 * Log-log slope of DiskDrive::service time over the n/8, n/4, n/2
 * and n prefixes of the trace, served from memory so decode is out
 * of the picture.  1 is linear; a queue-depth-bound engine shows 2.
 */
double
serviceScalingExponent(const std::string &in)
{
    trace::MsTrace full;
    {
        auto file =
            trace::openMsSource(in, trace::IngestOptions()).valueOrThrow();
        check(trace::drainToTrace(*file, full));
    }
    std::vector<double> xs;
    std::vector<double> ys;
    for (std::size_t div : {8, 4, 2, 1}) {
        const std::size_t k = full.size() / div;
        trace::MsTrace prefix(full.driveId(), full.start(),
                              full.duration());
        for (std::size_t i = 0; i < k; ++i)
            prefix.append(full.at(i));
        trace::MsTraceSource src(prefix);
        disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
        const std::uint64_t t0 = nowNs();
        drive.service(src, nullptr, trace::kDefaultBatchRequests);
        xs.push_back(std::log(static_cast<double>(k)));
        ys.push_back(std::log(static_cast<double>(nowNs() - t0)));
    }
    return stats::leastSquares(xs, ys).slope;
}

Metrics
runAnalyze(const Args &a, int &mismatches)
{
    const std::string in = a.get("in");
    const std::string expect = readFile(a.get("expect"));

    std::uint64_t t0 = nowNs();
    const AnalyzeRun plain = replayAnalyze(in, nullptr);
    const std::uint64_t untraced_ns = nowNs() - t0;

    Tracer t;
    t0 = nowNs();
    const AnalyzeRun traced = replayAnalyze(in, &t);
    const std::uint64_t traced_ns = nowNs() - t0;
    mismatches += (plain.report != expect) + (traced.report != expect);

    const auto layers = t.layers();
    const auto requests =
        static_cast<double>(traced.log.completions.size());
    Metrics m;
    m[endsWith(in, ".bin") ? "trace.decode_bin_ns_per_req"
                           : "trace.decode_csv_ns_per_req"] =
        nsPerWork(layers, endsWith(in, ".bin") ? kDecodeBin : kDecodeCsv);
    m["disk.service_ns_per_req"] =
        selfNs(layers, "disk.service") / requests;
    m["core.characterize_ns_per_req"] =
        selfNs(layers, "core.characterize") / requests;
    m["core.render_ms"] = meanMs(layers, "core.render");
    simStats(m, traced.log.completions.size(), traced.log.read_hits,
             traced.log.busyTime(), traced.log.meanResponse());
    attribution(m, t, traced_ns, untraced_ns);
    m["disk.service_scaling_exp"] = serviceScalingExponent(in);
    return m;
}

// ------------------------------------------------------------------ fleet

fleet::FleetConfig
fleetConfig(const Args &a)
{
    fleet::FleetConfig cfg;
    cfg.drives = static_cast<std::size_t>(
        parseUint(a.get("drives"), "--drives"));
    cfg.threads = static_cast<std::size_t>(
        parseUint(a.get("threads"), "--threads"));
    cfg.preset = fleet::parseFleetPreset(a.get("preset")).valueOrThrow();
    cfg.seed = parseUint(a.get("seed"), "--seed");
    cfg.rate = parseDouble(a.get("rate"), "--rate");
    cfg.window = static_cast<Tick>(
        parseDouble(a.get("minutes"), "--minutes") *
        static_cast<double>(kMinute));
    return cfg;
}

/** The class a mixed-preset drive runs (fleet/pipeline.cc). */
fleet::FleetPreset
mixedClass(std::size_t index)
{
    switch (index % 4) {
      case 0:
        return fleet::FleetPreset::Oltp;
      case 1:
        return fleet::FleetPreset::FileServer;
      case 2:
        return fleet::FleetPreset::Streaming;
      default:
        return fleet::FleetPreset::Backup;
    }
}

synth::Workload
makeWorkload(fleet::FleetPreset klass, Lba capacity, double rate,
             std::uint64_t seed)
{
    switch (klass) {
      case fleet::FleetPreset::Oltp:
        return synth::Workload::makeOltp(capacity, rate, seed);
      case fleet::FleetPreset::FileServer:
        return synth::Workload::makeFileServer(capacity, rate, seed);
      case fleet::FleetPreset::Streaming:
        return synth::Workload::makeStreaming(capacity, rate);
      default:
        return synth::Workload::makeBackup(capacity, rate);
    }
}

/** The shard statistics fleet/pipeline.cc distils completions into. */
class ShardSink : public disk::CompletionSink
{
  public:
    explicit ShardSink(fleet::DriveShard &shard) : shard_(shard) {}

    void
    onCompletion(const disk::Completion &c) override
    {
        if (c.read)
            ++shard_.reads;
        if (c.cache_hit)
            ++shard_.cache_hits;
        const double ms = static_cast<double>(c.response()) /
                          static_cast<double>(kMsec);
        shard_.response_ms.add(ms);
        shard_.response_hist.add(ms);
    }

  private:
    fleet::DriveShard &shard_;
};

/** Simulated totals summed over shards. */
struct SimTotals
{
    std::uint64_t read_hits = 0;
    Tick busy = 0;
};

/**
 * fleet::characterizeDrive, call for call, with generate, service and
 * the post-service characterization as separate spans.
 */
fleet::DriveShard
replayShard(const fleet::FleetConfig &cfg, std::size_t index, Tracer *t,
            SimTotals &sim)
{
    Scope shard_span(t, "fleet.shard");
    Rng rng = Rng(cfg.seed).fork(index);
    const disk::DriveConfig dcfg = disk::DriveConfig::makeEnterprise();

    fleet::DriveShard shard;
    shard.index = index;
    const fleet::FleetPreset klass = cfg.preset == fleet::FleetPreset::Mixed
        ? mixedClass(index)
        : cfg.preset;
    shard.klass = fleet::fleetPresetName(klass);
    shard.drive_id = shard.klass + "-" + std::to_string(index);

    const std::uint64_t wseed = rng.engine()();
    synth::Workload workload = makeWorkload(
        klass, dcfg.geometry.capacityBlocks(), cfg.rate, wseed);
    disk::DiskDrive drive(dcfg);
    ShardSink sink(shard);
    synth::WorkloadSource wsrc = [&] {
        Scope g(t, "synth.generate");
        return workload.openSource(rng, shard.drive_id, 0, cfg.window);
    }();
    wsrc.setTag(cfg.tag);
    const std::size_t requests = wsrc.size();
    disk::ServiceLog log;
    {
        TimedSource src(wsrc, t, "synth.generate");
        Scope s(t, "disk.service");
        log = drive.service(src, &sink,
                            std::max<std::size_t>(cfg.batch_requests, 1));
    }
    sim.read_hits += log.read_hits;
    sim.busy += log.busyTime();

    Scope c(t, "core.characterize");
    shard.requests = requests;
    shard.arrival_rate = static_cast<double>(requests) /
                         ticksToSeconds(cfg.window);
    shard.utilization = log.utilization();
    for (Tick gap : log.idleIntervals())
        shard.idle_hist.add(ticksToSeconds(gap));
    const stats::BinnedSeries util_1s = log.utilizationSeries(kSec);
    std::size_t busy_bins = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < util_1s.size(); ++i) {
        const double u = util_1s.at(i);
        if (u >= 0.5)
            ++busy_bins;
        if (u >= 0.9) {
            ++run;
            shard.longest_saturated_s =
                std::max(shard.longest_saturated_s, run);
        } else {
            run = 0;
        }
    }
    shard.busy_second_fraction = util_1s.empty()
        ? 0.0
        : static_cast<double>(busy_bins) /
            static_cast<double>(util_1s.size());
    return shard;
}

Metrics
runFleetReplay(const Args &a, int &mismatches)
{
    const std::string expect = readFile(a.get("expect"));
    fleet::FleetConfig cfg = fleetConfig(a);
    const std::size_t threads = cfg.threads;

    // The command itself, through the public entry point.
    std::uint64_t t0 = nowNs();
    const fleet::FleetResult par = fleet::runFleet(cfg);
    const std::uint64_t par_ns = nowNs() - t0;
    mismatches += fleet::renderFleetReport(cfg, par) != expect;

    // Untraced and serial: every shard through characterizeDrive.
    cfg.threads = 1;
    t0 = nowNs();
    fleet::FleetResult serial;
    for (std::size_t i = 0; i < cfg.drives; ++i)
        serial.shards.push_back(fleet::characterizeDrive(cfg, i));
    const std::uint64_t shard_ns = nowNs() - t0;
    serial.aggregate = fleet::reduceOrdered(serial.shards);
    mismatches += fleet::renderFleetReport(cfg, serial) != expect;
    const std::uint64_t untraced_ns = nowNs() - t0;

    // Traced replica.
    Tracer t;
    SimTotals sim;
    t0 = nowNs();
    fleet::FleetResult replica;
    for (std::size_t i = 0; i < cfg.drives; ++i)
        replica.shards.push_back(replayShard(cfg, i, &t, sim));
    {
        Scope m(&t, "fleet.merge");
        replica.aggregate = fleet::reduceOrdered(replica.shards);
    }
    std::string report;
    {
        Scope r(&t, "core.render");
        report = fleet::renderFleetReport(cfg, replica);
    }
    const std::uint64_t traced_ns = nowNs() - t0;
    mismatches += report != expect;

    std::uint64_t requests = 0;
    double response_sum = 0.0;
    for (const fleet::DriveShard &s : replica.shards) {
        requests += s.requests;
        response_sum +=
            s.response_ms.mean() * static_cast<double>(s.response_ms.count());
    }
    const auto layers = t.layers();
    const auto req = static_cast<double>(requests);
    Metrics m;
    m["synth.generate_ns_per_req"] = nsPerWork(layers, "synth.generate");
    m["disk.service_ns_per_req"] =
        selfNs(layers, "disk.service") / req;
    m["core.characterize_ns_per_req"] =
        selfNs(layers, "core.characterize") / req;
    m["core.render_ms"] = meanMs(layers, "core.render");
    m["fleet.shard_ns_per_req"] = static_cast<double>(shard_ns) / req;
    m["fleet.merge_ms"] = selfNs(layers, "fleet.merge") / 1e6;
    m["fleet.parallel_efficiency"] =
        static_cast<double>(shard_ns) /
        (static_cast<double>(threads) * static_cast<double>(par_ns));
    simStats(m, requests, sim.read_hits, sim.busy,
             response_sum / req * static_cast<double>(kMsec));
    attribution(m, t, traced_ns, untraced_ns);
    return m;
}

// ---------------------------------------------------------------- session

/** Client write size of `dlwtool stream`, and so of each bin frame. */
constexpr std::size_t kChunk = 64 * 1024;

/** The bytes `dlwtool stream` puts on the wire after the hello. */
std::string
wirePayload(const std::string &file, bool bin)
{
    if (!bin)
        return file;
    std::string out;
    for (std::size_t off = 0; off < file.size(); off += kChunk)
        net::appendFrame(out, file.data() + off,
                         std::min(kChunk, file.size() - off));
    net::appendEndFrame(out);
    return out;
}

/**
 * A dlwd session's data path (daemon/session.cc): wire decode of
 * each received chunk, fold of every full batch, then the final
 * report.
 */
std::string
replaySession(const std::string &payload, bool bin, Tracer *t)
{
    net::StreamDecoder dec(bin ? net::StreamFormat::kBin
                               : net::StreamFormat::kCsv,
                           net::kMaxFrameBytes);
    net::ByteQueue q;
    trace::RequestBatch batch;
    std::unique_ptr<core::LiveCharacterization> live;
    const auto decode = [&] {
        Scope d(t, "net.wire_decode");
        check(dec.drain(q));
    };
    const auto fold = [&] {
        Scope f(t, "core.fold");
        if (live == nullptr) {
            if (!dec.headerReady())
                return;
            live = std::make_unique<core::LiveCharacterization>(
                dec.header());
        }
        while (dec.take(batch))
            check(live->observe(batch));
    };
    for (std::size_t off = 0; off < payload.size(); off += kChunk) {
        q.append(payload.data() + off,
                 std::min(kChunk, payload.size() - off));
        decode();
        fold();
    }
    if (!bin && !q.empty()) {
        q.append("\n", 1);
        decode();
        fold();
    }
    {
        Scope d(t, "net.wire_decode");
        check(dec.endOfInput());
    }
    fold();
    if (live == nullptr)
        live = std::make_unique<core::LiveCharacterization>(dec.header());
    if (t != nullptr) {
        t->addWork("net.wire_decode", live->requests());
        t->addWork("core.fold", live->requests());
    }
    Scope r(t, "core.render");
    return live->finish().render();
}

/** `dlwtool characterize`: file decode, fold, report. */
std::string
replayCharacterize(const std::string &path, Tracer *t)
{
    const char *decode = endsWith(path, ".bin") ? kDecodeBin : kDecodeCsv;
    auto file = [&] {
        Scope s(t, decode);
        return trace::openMsSource(path, trace::IngestOptions())
            .valueOrThrow();
    }();
    TimedSource src(*file, t, decode);
    trace::MsStreamHeader meta;
    meta.drive_id = src.driveId();
    meta.start = src.start();
    meta.duration = src.duration();
    core::LiveCharacterization live(meta);
    trace::RequestBatch batch;
    while (src.next(batch)) {
        Scope f(t, "core.fold");
        check(live.observe(batch));
    }
    check(src.status());
    if (t != nullptr)
        t->addWork("core.fold", live.requests());
    Scope r(t, "core.render");
    return live.finish().render();
}

Metrics
runSessions(const Args &a, int &mismatches)
{
    const std::vector<std::string> ins = a.all("in");
    const std::vector<std::string> expects = a.all("expect");
    if (ins.empty() || ins.size() != expects.size())
        throw std::runtime_error("session wants --in/--expect pairs");
    std::vector<std::string> payloads;
    std::vector<std::string> refs;
    for (std::size_t i = 0; i < ins.size(); ++i) {
        payloads.push_back(
            wirePayload(readFile(ins[i]), endsWith(ins[i], ".bin")));
        refs.push_back(readFile(expects[i]));
    }

    const auto pass = [&](Tracer *t) {
        for (std::size_t i = 0; i < ins.size(); ++i) {
            const bool bin = endsWith(ins[i], ".bin");
            mismatches += replayCharacterize(ins[i], t) != refs[i];
            mismatches += replaySession(payloads[i], bin, t) != refs[i];
        }
    };
    std::uint64_t t0 = nowNs();
    pass(nullptr);
    const std::uint64_t untraced_ns = nowNs() - t0;
    Tracer t;
    t0 = nowNs();
    pass(&t);
    const std::uint64_t traced_ns = nowNs() - t0;

    const auto layers = t.layers();
    Metrics m;
    m["trace.decode_csv_ns_per_req"] = nsPerWork(layers, kDecodeCsv);
    m["trace.decode_bin_ns_per_req"] = nsPerWork(layers, kDecodeBin);
    m["net.wire_decode_ns_per_req"] = nsPerWork(layers, "net.wire_decode");
    m["core.fold_ns_per_req"] = nsPerWork(layers, "core.fold");
    m["core.render_ms"] = meanMs(layers, "core.render");
    attribution(m, t, traced_ns, untraced_ns);
    return m;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::runtime_error(
            "usage: perfbench_replay analyze|fleet|session --key value...");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (!startsWith(key, "--") || i + 1 >= argc)
            throw std::runtime_error("bad argument '" + key + "'");
        a.kv.emplace(key.substr(2), argv[i + 1]);
    }
    return a;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        int mismatches = 0;
        Metrics m;
        if (a.mode == "analyze")
            m = runAnalyze(a, mismatches);
        else if (a.mode == "fleet")
            m = runFleetReplay(a, mismatches);
        else if (a.mode == "session")
            m = runSessions(a, mismatches);
        else
            throw std::runtime_error("unknown mode '" + a.mode + "'");
        std::printf("{\"mismatches\": %d", mismatches);
        for (const auto &kv : m)
            std::printf(", \"%s\": %.17g", kv.first.c_str(), kv.second);
        std::printf("}\n");
        return 0;
    } catch (const StatusError &e) {
        std::cerr << "perfbench_replay: " << e.status().toString() << '\n';
    } catch (const std::exception &e) {
        std::cerr << "perfbench_replay: " << e.what() << '\n';
    }
    return 1;
}
