/**
 * @file
 * dlwtool — command-line front end for the dlw toolkit.
 *
 * Subcommands:
 *   generate    synthesize a Millisecond trace from a workload preset
 *   convert     translate between csv / binary / spc trace formats
 *   analyze     service a trace through the drive model and print the
 *               multi-scale characterization
 *   family      synthesize a drive family's lifetime CSV
 *   fleet       characterize N drives in parallel and print the
 *               cross-drive variability report
 *   corrupt     deterministically mangle a trace file (torture input)
 *   run-report  run analyze (with --in) or fleet (without), then
 *               append the observability report: every metric the run
 *               moved plus the aggregated span tree
 *   bench-diff  compare two BENCH_*.json perf snapshots against
 *               regression thresholds (exit 2 on regression)
 *   characterize trace-derived characterization only (no drive
 *               model) — the batch twin of a dlwd streaming session
 *   serve       run dlwd: the characterization daemon (epoll loop,
 *               streaming sessions, HTTP results plane)
 *   stream      stream a trace to a running dlwd and print the
 *               final report
 *   help        print usage for one command (or all of them)
 *
 * Formats are chosen by file extension: .csv, .bin, .spc.
 *
 * Fault tolerance: --on-corrupt picks the corrupt-record policy for
 * every reader (abort|skip|clamp), and the global --fault option arms
 * named failure points ("trace.open:once;fleet.shard:mod=8") before
 * the command runs.  This is the CLI boundary of the Status error
 * model: library failures arrive here as StatusError and leave as an
 * exit code.
 *
 * Observability: the global --metrics text|json|prom option enables
 * the obs registry for the duration of the command and emits a
 * snapshot afterwards — to stderr by default, or to --metrics-out
 * FILE — so stdout (and its byte-identity contracts) is never
 * perturbed.  See docs/METRICS.md for the metric reference.
 *
 * Tracing: the global --trace-out FILE option arms the timeline
 * flight recorder (obs/timeline.hh) plus the counter sampler for the
 * duration of the command and writes a Chrome trace_event JSON file
 * afterwards — loadable in Perfetto or chrome://tracing.  A crash
 * handler dumps the last-N events to the same file on a fatal
 * signal.  Like --metrics, only stderr and the output file are
 * touched; stdout stays byte-identical.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/options.hh"
#include "common/retry.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/strutil.hh"
#include "core/analyze.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "daemon/server.hh"
#include "disk/drive.hh"
#include "net/client.hh"
#include "net/io.hh"
#include "net/wire.hh"
#include "fleet/pipeline.hh"
#include "fleet/pool.hh"
#include "obs/benchdiff.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/timeline.hh"
#include "obs/timeline_export.hh"
#include "qos/ratekeeper.hh"
#include "qos/tag.hh"
#include "synth/family.hh"
#include "synth/workload.hh"
#include "core/pass.hh"
#include "trace/binio.hh"
#include "trace/corrupt.hh"
#include "trace/csvio.hh"
#include "trace/ingest.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace
{

using namespace dlw;

/** The --on-corrupt policy shared by every reader. */
trace::IngestOptions
ingestOptions(const dlw::Options &opts)
{
    trace::IngestOptions io;
    io.policy = trace::parseRecordPolicy(
                    opts.get("on-corrupt", "abort")).valueOrThrow();
    return io;
}

/** Fail loudly unless the path names a readable trace format. */
void
requireTraceExtension(const std::string &path)
{
    if (!endsWith(path, ".bin") && !endsWith(path, ".csv") &&
        !endsWith(path, ".spc")) {
        dlw_fatal("unknown trace extension on '", path,
                  "' (want .csv, .bin, or .spc)");
    }
}

trace::MsTrace
readAny(const std::string &path, const trace::IngestOptions &io,
        trace::IngestStats *stats)
{
    requireTraceExtension(path);
    return trace::readMsFile(path, io, stats).valueOrThrow();
}

void
writeAny(const std::string &path, const trace::MsTrace &tr)
{
    if (endsWith(path, ".bin")) {
        trace::writeMsBinary(path, tr);
        return;
    }
    if (endsWith(path, ".csv")) {
        trace::writeMsCsv(path, tr);
        return;
    }
    dlw_fatal("unknown output extension on '", path,
              "' (want .csv or .bin)");
}

synth::Workload
presetWorkload(const std::string &klass, Lba capacity, double rate,
               std::uint64_t seed)
{
    if (klass == "oltp")
        return synth::Workload::makeOltp(capacity, rate, seed);
    if (klass == "fileserver")
        return synth::Workload::makeFileServer(capacity, rate, seed);
    if (klass == "streaming")
        return synth::Workload::makeStreaming(capacity, rate);
    if (klass == "backup")
        return synth::Workload::makeBackup(capacity, rate);
    dlw_fatal("unknown workload class '", klass,
              "' (oltp|fileserver|streaming|backup)");
}

int
cmdGenerate(const dlw::Options &opts)
{
    const std::string out = opts.get("out", "trace.csv");
    const std::string klass = opts.get("class", "oltp");
    const double rate = opts.getDouble("rate", 60.0);
    const double minutes = opts.getDouble("minutes", 10.0);
    const auto seed =
        static_cast<std::uint64_t>(opts.getInt("seed", 1));

    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    synth::Workload w = presetWorkload(
        klass, cfg.geometry.capacityBlocks(), rate, seed);
    Rng rng(seed);
    trace::MsTrace tr = w.generate(
        rng, klass + "-" + std::to_string(seed), 0,
        static_cast<Tick>(minutes * static_cast<double>(kMinute)));
    writeAny(out, tr);
    std::cout << "wrote " << tr.size() << " requests to " << out
              << '\n';
    return 0;
}

int
cmdConvert(const dlw::Options &opts)
{
    const std::string in = opts.get("in", "");
    const std::string out = opts.get("out", "");
    if (in.empty() || out.empty())
        dlw_fatal("convert needs --in and --out");
    trace::IngestStats stats;
    trace::MsTrace tr = readAny(in, ingestOptions(opts), &stats);
    if (stats.dirty())
        std::cerr << "ingest: " << stats.summary() << '\n';
    writeAny(out, tr);
    std::cout << "converted " << tr.size() << " requests: " << in
              << " -> " << out << '\n';
    return 0;
}

/** The --batch option (streaming chunk capacity, >= 1). */
std::size_t
batchOption(const dlw::Options &opts)
{
    const auto n = opts.getInt(
        "batch",
        static_cast<std::int64_t>(trace::kDefaultBatchRequests));
    if (n < 1)
        dlw_fatal("--batch must be >= 1");
    return static_cast<std::size_t>(n);
}

int
cmdAnalyze(const dlw::Options &opts)
{
    const std::string in = opts.get("in", "");
    if (in.empty())
        dlw_fatal("analyze needs --in");
    requireTraceExtension(in);
    core::AnalyzeOptions ao;
    ao.ingest = ingestOptions(opts);
    ao.batch_requests = batchOption(opts);
    ao.drive = opts.get("drive", "enterprise") == "nearline"
        ? disk::DriveConfig::makeNearline()
        : disk::DriveConfig::makeEnterprise();
    if (opts.get("cache", "on") == "off")
        ao.drive.cache.enabled = false;
    // Streaming (the default) decodes a .csv/.bin input once: the
    // drive engine pulls it and each batch is folded into the
    // characterization on the way; unsorted inputs fall back to the
    // whole-trace path.  Output is byte-identical either way.
    ao.stream = opts.get("stream", "on") != "off";
    core::analyzeTraceFile(in, ao, std::cout);
    return 0;
}

int
cmdFleet(const dlw::Options &opts)
{
    fleet::FleetConfig cfg;
    cfg.drives = static_cast<std::size_t>(opts.getInt("drives", 64));
    cfg.threads = static_cast<std::size_t>(opts.getInt(
        "threads",
        static_cast<std::int64_t>(
            fleet::ThreadPool::hardwareThreads())));
    cfg.preset = fleet::parseFleetPreset(
                     opts.get("preset", "mixed")).valueOrThrow();
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 20090614));
    cfg.rate = opts.getDouble("rate", 60.0);
    cfg.window = static_cast<Tick>(opts.getDouble("minutes", 2.0) *
                                   static_cast<double>(kMinute));
    cfg.nearline = opts.get("drive", "enterprise") == "nearline";
    cfg.max_attempts =
        static_cast<std::size_t>(opts.getInt("retries", 3));
    cfg.stream = opts.get("stream", "on") != "off";
    cfg.batch_requests = batchOption(opts);

    const auto t0 = std::chrono::steady_clock::now();
    fleet::FleetResult result = fleet::runFleet(cfg);
    const auto t1 = std::chrono::steady_clock::now();

    // Report on stdout is byte-identical at any --threads; timing
    // goes to stderr so it never perturbs that contract.
    std::cout << fleet::renderFleetReport(cfg, result);
    std::cerr << "fleet: " << cfg.drives << " drives on "
              << cfg.threads << " threads in "
              << std::chrono::duration<double>(t1 - t0).count()
              << " s\n";
    if (!result.failures.empty() || result.retries != 0) {
        std::cerr << "fleet: " << result.failures.size()
                  << " drive(s) failed, " << result.retries
                  << " retry attempt(s)\n";
    }
    return 0;
}

int
cmdCorrupt(const dlw::Options &opts)
{
    const std::string in = opts.get("in", "");
    const std::string out = opts.get("out", "");
    if (in.empty() || out.empty())
        dlw_fatal("corrupt needs --in and --out");

    trace::CorruptSpec spec;
    spec.mode = trace::parseCorruptMode(
                    opts.get("mode", "bitflip")).valueOrThrow();
    spec.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    spec.count = static_cast<std::size_t>(opts.getInt("count", 1));
    spec.offset = static_cast<std::size_t>(opts.getInt("offset", 0));

    Status s = trace::corruptFile(in, out, spec);
    if (!s.ok())
        throw StatusError(s);
    std::cout << "corrupted " << in << " -> " << out << " (mode "
              << trace::corruptModeName(spec.mode) << ", seed "
              << spec.seed << ", count " << spec.count << ")\n";
    return 0;
}

int
cmdFamily(const dlw::Options &opts)
{
    const std::string out = opts.get("out", "family.csv");
    const auto drives =
        static_cast<std::size_t>(opts.getInt("drives", 128));
    const auto min_h =
        static_cast<std::size_t>(opts.getInt("min-hours", 4380));
    const auto max_h =
        static_cast<std::size_t>(opts.getInt("max-hours", 43800));
    synth::FamilyConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 42));
    cfg.family = opts.get("name", "DLW-E15K");

    synth::FamilyModel model(cfg);
    trace::LifetimeTrace lt =
        model.generateLifetimeTrace(drives, min_h, max_h);
    trace::writeLifetimeCsv(out, lt);
    std::cout << "wrote " << lt.size() << " lifetime records to "
              << out << '\n';
    return 0;
}

void registerAllMetrics();

/**
 * characterize: the trace-derived characterization only (burstiness,
 * arrival dynamics, read/write mix) — no drive model, no service
 * pass, so it works one-shot over a stream.  This is the batch twin
 * of a dlwd session: the daemon's final report for a streamed trace
 * is byte-identical to `dlwtool characterize` over the same file.
 */
int
cmdCharacterize(const dlw::Options &opts)
{
    const std::string in = opts.get("in", "");
    if (in.empty())
        dlw_fatal("characterize needs --in");
    const trace::IngestOptions io = ingestOptions(opts);
    auto src = trace::openMsSource(in, io).valueOrThrow();

    trace::MsStreamHeader meta;
    meta.drive_id = src->driveId();
    meta.start = src->start();
    meta.duration = src->duration();
    core::LiveCharacterization live(meta);

    trace::RequestBatch batch(batchOption(opts));
    while (src->next(batch)) {
        Status s = live.observe(batch);
        if (!s.ok())
            throw StatusError(s);
    }
    Status st = src->status();
    if (!st.ok())
        throw StatusError(st);
    std::cout << live.finish().render();
    return 0;
}

/** The serve loop's SIGTERM/SIGINT target. */
daemon::Server *g_serve_server = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (g_serve_server != nullptr)
        g_serve_server->requestStop();
}

int
cmdServe(const dlw::Options &opts)
{
    // The daemon always observes itself: /metrics must be live even
    // when nobody passed --metrics, and /v1/timeline must have a
    // flight recorder to serve, so both run for the daemon's whole
    // life.  The counter sampler gives the timeline its gauge tracks.
    registerAllMetrics();
    obs::enable();
    obs::enableTimeline();

    daemon::ServerConfig cfg;
    cfg.port = static_cast<std::uint16_t>(opts.getInt("port", 7433));
    cfg.max_connections =
        static_cast<std::size_t>(opts.getInt("max-conns", 256));
    cfg.max_buffer_bytes = static_cast<std::size_t>(
                               opts.getInt("max-buffer-kb", 4096)) *
                           1024;
    cfg.threads =
        static_cast<std::size_t>(opts.getInt("threads", 0));
    cfg.drain_grace_ms = static_cast<std::uint64_t>(
        opts.getInt("drain-grace-ms", 5000));
    cfg.first_byte_timeout_ms = static_cast<std::uint64_t>(
        opts.getInt("first-byte-timeout-ms",
                    static_cast<std::int64_t>(
                        cfg.first_byte_timeout_ms)));
    cfg.header_timeout_ms = static_cast<std::uint64_t>(
        opts.getInt("header-timeout-ms",
                    static_cast<std::int64_t>(cfg.header_timeout_ms)));
    cfg.idle_timeout_ms = static_cast<std::uint64_t>(
        opts.getInt("idle-timeout-ms",
                    static_cast<std::int64_t>(cfg.idle_timeout_ms)));
    cfg.write_stall_timeout_ms = static_cast<std::uint64_t>(
        opts.getInt("write-stall-timeout-ms",
                    static_cast<std::int64_t>(
                        cfg.write_stall_timeout_ms)));
    cfg.state_dir = opts.get("state-dir", "");
    cfg.checkpoint_interval_ms = static_cast<std::uint64_t>(
        opts.getInt("ckpt-ms", static_cast<std::int64_t>(
                                   cfg.checkpoint_interval_ms)));
    const std::string qos = opts.get("qos", "off");
    if (qos != "on" && qos != "off")
        dlw_fatal("--qos wants on|off, got '", qos, "'");
    cfg.qos = qos == "on";
    cfg.qos_config.target_queue_depth = opts.getInt(
        "qos-target-qd", cfg.qos_config.target_queue_depth);
    cfg.qos_config.target_fold_p95_us = opts.getInt(
        "qos-target-p95-us", cfg.qos_config.target_fold_p95_us);
    cfg.qos_config.min_rate_per_sec = opts.getInt(
        "qos-min-rate", cfg.qos_config.min_rate_per_sec);
    cfg.qos_config.max_rate_per_sec = opts.getInt(
        "qos-max-rate", cfg.qos_config.max_rate_per_sec);

    daemon::Server server(cfg);
    Status s = server.start();
    if (!s.ok())
        throw StatusError(s);

    const std::string port_file = opts.get("port-file", "");
    if (!port_file.empty()) {
        std::ofstream os(port_file);
        if (!os)
            dlw_fatal("cannot write port file '", port_file, "'");
        os << server.port() << '\n';
    }

    g_serve_server = &server;
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);

    std::cerr << "dlwd: listening on 127.0.0.1:" << server.port()
              << " (max " << cfg.max_connections
              << " connections)\n";
    obs::CounterSampler sampler;
    sampler.start();
    s = server.run();
    sampler.stop();
    g_serve_server = nullptr;
    if (!s.ok())
        throw StatusError(s);
    std::cerr << "dlwd: drained, exiting\n";
    return 0;
}

/** stream exits with this when the server dies mid-session. */
constexpr int kStreamServerClosedExit = 3;

/**
 * Server-side trace_event fragment fetched from /v1/timeline, already
 * re-projected onto the client clock.  TimelineEmitter merges it into
 * the --trace-out file so one file shows both processes.
 */
std::string g_server_trace_fragment;

/** One stream attempt's verdict. */
struct StreamAttempt
{
    int rc = 1;             ///< exit code if this attempt is final
    bool retryable = false; ///< connection-level / overload failure
    std::string note;       ///< what went wrong (retryable case)

    /** Server clock (its timelineNowNs) stamped on the ack; 0 when
     *  the ack carried no timestamp. */
    std::uint64_t server_ack_ns = 0;
    /** Client clock when the ack landed — the other half of the
     *  clock-offset estimate. */
    std::uint64_t client_ack_ns = 0;
};

/**
 * Fold a failed step of the session into the attempt's verdict:
 * retry connection-level failures, exit 3 when the server went away
 * mid-session (so harnesses can tell "server rejected the trace" (1)
 * from "server went away" (3)), exit 1 on a refusal, and throw
 * anything else to the CLI boundary.
 */
StreamAttempt &
failAttempt(StreamAttempt &out, const Status &s)
{
    switch (s.code()) {
      case StatusCode::kUnavailable:
        out.retryable = true;
        out.note = s.message();
        break;
      case StatusCode::kTruncated:
        std::cerr << "stream: " << s.message() << '\n';
        out.rc = kStreamServerClosedExit;
        break;
      case StatusCode::kFailedPrecondition:
        std::cerr << "stream: " << s.message() << '\n';
        out.rc = 1;
        break;
      default:
        throw StatusError(s);
    }
    return out;
}

/** One connect-hello-payload-report round trip against dlwd. */
StreamAttempt
streamOnce(const std::string &in, const net::StreamHello &hello,
           const std::string &host, int port,
           std::uint64_t connect_timeout_ms)
{
    StreamAttempt out;

    // Client-side spans for the end-to-end trace: named under the
    // session's trace id so a merged file groups both processes'
    // slices.  All no-ops while the timeline is disarmed.
    const bool traced = !hello.trace_id.empty();
    const char *tl_connect = nullptr;
    const char *tl_stream = nullptr;
    const char *tl_report = nullptr;
    if (traced) {
        const std::string p = "trace/" + hello.trace_id + "/client.";
        tl_connect = obs::internTimelineName(p + "connect");
        tl_stream = obs::internTimelineName(p + "stream");
        tl_report = obs::internTimelineName(p + "report");
    }

    std::ifstream is(in, std::ios::binary);
    if (!is)
        throw StatusError(
            Status::ioError("cannot open trace '" + in + "'"));

    if (traced)
        obs::emitBegin(tl_connect);
    net::StreamClient sc;
    Status s = sc.open(host, port, hello,
                       net::ClientTimeouts{connect_timeout_ms, 0});
    out.client_ack_ns = obs::timelineNowNs();
    if (traced)
        obs::emitEnd(tl_connect);
    if (!s.ok())
        return failAttempt(out, s);
    out.server_ack_ns = sc.serverAckNs();
    std::cerr << "stream: session " << sc.session() << '\n';

    if (traced)
        obs::emitBegin(tl_stream);
    std::vector<char> buf(64 * 1024);
    while (s.ok() && is) {
        is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got == 0)
            break;
        s = sc.send(std::string_view(buf.data(), got));
    }
    if (s.ok())
        s = sc.finish();
    if (!s.ok())
        return failAttempt(out, s);
    if (traced) {
        obs::emitEnd(tl_stream);
        obs::emitBegin(tl_report);
    }

    StatusOr<std::string> report = sc.report();
    if (!report.ok())
        return failAttempt(out, report.status());
    std::cout << report.value();
    out.rc = 0;
    if (traced)
        obs::emitEnd(tl_report);
    return out;
}

/**
 * Fetch the daemon's live timeline and re-project it onto the client
 * clock, stashing the fragment TimelineEmitter merges into the
 * --trace-out file.  Best-effort by design: a failure here degrades
 * to a client-only trace (with a stderr note), never a failed
 * stream.
 */
void
mergeServerTimeline(const std::string &host, int port,
                    const StreamAttempt &out)
{
    if (out.server_ack_ns == 0)
        return; // server predates the timestamped ack
    StatusOr<std::string> body =
        net::httpGet(host, port, "/v1/timeline",
                     net::ClientTimeouts{5000, 0});
    if (!body.ok()) {
        std::cerr << "stream: /v1/timeline: "
                  << body.status().toString() << '\n';
        return;
    }
    const double offset_us =
        (static_cast<double>(out.client_ack_ns) -
         static_cast<double>(out.server_ack_ns)) /
        1000.0;
    StatusOr<std::string> frag = obs::reprojectChromeTraceEvents(
        body.value(), offset_us);
    if (!frag.ok()) {
        std::cerr << "stream: server timeline: "
                  << frag.status().toString() << '\n';
        return;
    }
    g_server_trace_fragment = frag.value();
    std::cerr << "stream: merged server timeline ("
              << frag.value().size() << " bytes, clock offset "
              << static_cast<std::int64_t>(offset_us) << "us)\n";
}

/**
 * stream: the reference dlwd client.  Streams a trace file to a
 * running daemon (csv raw, bin framed) and prints the final report —
 * the same bytes `dlwtool characterize` prints for that file.
 * Connection-level failures (connect errors/timeouts, overload
 * shedding) retry with seeded capped-exponential backoff; a server
 * that dies mid-session exits 3.
 */
int
cmdStream(const dlw::Options &opts)
{
    const std::string in = opts.get("in", "");
    if (in.empty())
        dlw_fatal("stream needs --in");
    const bool bin = endsWith(in, ".bin");
    if (!bin && !endsWith(in, ".csv"))
        dlw_fatal("stream wants a .csv or .bin trace, got '", in, "'");
    const std::string host = opts.get("host", "127.0.0.1");
    const int port = static_cast<int>(opts.getInt("port", 7433));
    net::StreamHello hello;
    hello.format = bin ? net::StreamFormat::kBin : net::StreamFormat::kCsv;
    hello.tenant = opts.get("tenant", "anon");
    const std::string klass_name =
        opts.get("class", "interactive");
    if (!qos::parseWorkClass(klass_name, hello.klass)) {
        dlw_fatal("--class wants interactive|bulk|background, got '",
                  klass_name, "'");
    }
    const auto connect_timeout_ms = static_cast<std::uint64_t>(
        opts.getInt("connect-timeout-ms", 5000));
    const auto retries =
        static_cast<std::size_t>(opts.getInt("retries", 0));
    const auto seed =
        static_cast<std::uint64_t>(opts.getInt("retry-seed", 0));

    // A trace id rides the hello whenever the caller names one, or
    // whenever --trace-out is armed (a trace file without the server
    // half would be half a feature).  Self-assigned ids — wall clock
    // plus pid, hex — are unique enough across a storm of clients.
    std::string &trace_id = hello.trace_id;
    trace_id = opts.get("trace-id", "");
    if (trace_id.empty() && opts.has("trace-out")) {
        const auto stamp = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        char idbuf[48];
        std::snprintf(idbuf, sizeof(idbuf), "c%llx.%x",
                      static_cast<unsigned long long>(stamp),
                      static_cast<unsigned>(::getpid()));
        trace_id = idbuf;
    }

    std::signal(SIGPIPE, SIG_IGN);

    for (std::size_t attempt = 0;; ++attempt) {
        StreamAttempt out =
            streamOnce(in, hello, host, port, connect_timeout_ms);
        if (!out.retryable) {
            if (out.rc == 0 && !trace_id.empty() &&
                opts.has("trace-out"))
                mergeServerTimeline(host, port, out);
            return out.rc;
        }
        if (attempt >= retries) {
            std::cerr << "stream: " << out.note
                      << " (retries exhausted)\n";
            return out.rc;
        }
        const double back_ms =
            retryBackoffMs(seed, 0, attempt + 1, 100.0, 2000.0);
        std::cerr << "stream: " << out.note << "; retry "
                  << attempt + 1 << "/" << retries << " in "
                  << static_cast<std::uint64_t>(back_ms) << "ms\n";
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::uint64_t>(back_ms * 1000.0)));
    }
}

/** Render one `dlwtool top` frame from a parsed /v1/stats document. */
void
printTopFrame(std::ostream &os, const JsonValue &doc,
              const std::string &where)
{
    char line[256];
    os << "dlwd " << where << " — up "
       << static_cast<std::uint64_t>(jsonNumberAt(&doc, "uptime_s"))
       << "s, " << static_cast<std::uint64_t>(
                       jsonNumberAt(&doc, "connections"))
       << " conn(s), " << static_cast<std::uint64_t>(
                              jsonNumberAt(&doc, "active_sessions"))
       << " active session(s)"
       << (doc.find("draining") != nullptr &&
                   doc.find("draining")->boolean
               ? ", DRAINING"
               : "")
       << '\n';
    const JsonValue *pool = doc.find("pool");
    std::snprintf(line, sizeof(line),
                  "pool: %llu queued on %llu thread(s)    "
                  "fold p95 %.1fus\n",
                  static_cast<unsigned long long>(
                      jsonNumberAt(pool, "queue_depth")),
                  static_cast<unsigned long long>(
                      jsonNumberAt(pool, "threads")),
                  jsonNumberAt(&doc, "fold_p95_us"));
    os << line;

    const JsonValue *stages = doc.find("stages");
    if (stages != nullptr) {
        os << "stage        count      p50us      p95us      p99us\n";
        for (const auto &kv : stages->members) {
            std::snprintf(
                line, sizeof(line), "%-10s %8llu %10.1f %10.1f %10.1f\n",
                kv.first.c_str(),
                static_cast<unsigned long long>(
                    jsonNumberAt(&kv.second, "count")),
                jsonNumberAt(&kv.second, "p50_us"),
                jsonNumberAt(&kv.second, "p95_us"),
                jsonNumberAt(&kv.second, "p99_us"));
            os << line;
        }
    }

    const JsonValue *tenants = doc.find("tenants");
    if (tenants != nullptr && !tenants->items.empty()) {
        os << "tenant/class            sessions      records\n";
        for (const JsonValue &t : tenants->items) {
            const std::string tag =
                jsonStringAt(&t, "tenant") + "/" + jsonStringAt(&t, "class");
            std::snprintf(line, sizeof(line), "%-22s %9llu %12llu\n",
                          tag.c_str(),
                          static_cast<unsigned long long>(
                              jsonNumberAt(&t, "sessions")),
                          static_cast<unsigned long long>(
                              jsonNumberAt(&t, "records")));
            os << line;
        }
    }

    const JsonValue *qos = doc.find("qos");
    if (qos != nullptr && qos->find("enabled") != nullptr &&
        qos->find("enabled")->boolean) {
        const JsonValue *limits = qos->find("limits");
        std::snprintf(line, sizeof(line),
                      "qos: pressure %lldm    limits i/b/bg "
                      "%llu/%llu/%llu rec/s\n",
                      static_cast<long long>(
                          jsonNumberAt(qos, "pressure_milli")),
                      static_cast<unsigned long long>(
                          jsonNumberAt(limits, "interactive")),
                      static_cast<unsigned long long>(
                          jsonNumberAt(limits, "bulk")),
                      static_cast<unsigned long long>(
                          jsonNumberAt(limits, "background")));
        os << line;
        const JsonValue *tags = qos->find("tags");
        if (tags != nullptr && !tags->items.empty()) {
            os << "tag                       rate/s   balance(micro)\n";
            for (const JsonValue &t : tags->items) {
                const std::string tag =
                    jsonStringAt(&t, "tenant") + "/" + jsonStringAt(&t, "class");
                std::snprintf(
                    line, sizeof(line), "%-22s %9llu %16lld\n",
                    tag.c_str(),
                    static_cast<unsigned long long>(
                        jsonNumberAt(&t, "rate_per_s")),
                    static_cast<long long>(
                        jsonNumberAt(&t, "balance_micro")));
                os << line;
            }
        }
    } else {
        os << "qos: off\n";
    }
}

/**
 * top: a one-screen live view of a running daemon, polled from
 * GET /v1/stats.  --iterations bounds the refresh loop: 1 prints a
 * single frame and exits without clearing the screen (the script/CI
 * mode), 0 redraws every --interval-ms until interrupted.
 */
int
cmdTop(const dlw::Options &opts)
{
    const std::string host = opts.get("host", "127.0.0.1");
    const int port = static_cast<int>(opts.getInt("port", 7433));
    const auto interval_ms = static_cast<std::uint64_t>(
        opts.getInt("interval-ms", 1000));
    const auto iterations =
        static_cast<std::uint64_t>(opts.getInt("iterations", 0));
    const std::string where = host + ":" + std::to_string(port);

    for (std::uint64_t frame = 0;; ++frame) {
        StatusOr<std::string> body = net::httpGet(
            host, port, "/v1/stats", net::ClientTimeouts{5000, 0});
        if (!body.ok())
            throw StatusError(body.status());
        StatusOr<JsonValue> doc = parseJson(body.value());
        if (!doc.ok())
            throw StatusError(doc.status());
        if (iterations != 1)
            std::cout << "\x1b[2J\x1b[H"; // clear + home
        printTopFrame(std::cout, doc.value(), where);
        std::cout.flush();
        if (iterations != 0 && frame + 1 >= iterations)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}

/** Register every subsystem's metric schema with the obs registry. */
void
registerAllMetrics()
{
    trace::registerIngestMetrics();
    trace::registerBatchMetrics();
    fleet::registerFleetMetrics();
    core::registerCoreMetrics();
    core::registerPassMetrics();
    daemon::registerNetMetrics();
    daemon::registerDaemonMetrics();
    net::registerNetIoMetrics();
    qos::registerQosMetrics();
}

/**
 * bench-diff: the regression gate over two BenchReportGuard
 * snapshots.  Exit 0 when clean, 2 when any tracked quantity moved
 * beyond its threshold — distinct from 1 (usage/IO errors) so CI can
 * tell "slower" from "broken".
 */
int
cmdBenchDiff(const std::string &old_path, const std::string &new_path,
             const dlw::Options &opts)
{
    obs::BenchDiffThresholds th;
    th.wall_pct = opts.getDouble("max-wall-pct", th.wall_pct);
    th.p95_pct = opts.getDouble("max-p95-pct", th.p95_pct);
    th.counter_pct =
        opts.getDouble("max-counter-pct", th.counter_pct);

    obs::BenchReport older =
        obs::readBenchReport(old_path).valueOrThrow();
    obs::BenchReport newer =
        obs::readBenchReport(new_path).valueOrThrow();
    obs::BenchDiffResult diff =
        obs::diffBenchReports(older, newer, th);
    std::cout << obs::renderBenchDiff(older, newer, diff);
    return diff.regressed ? 2 : 0;
}

int
cmdRunReport(const dlw::Options &opts)
{
    // run-report always observes itself, --metrics or not: register
    // every schema so the report shows untouched metrics at zero.
    registerAllMetrics();
    obs::enable();

    const int rc = opts.has("in") ? cmdAnalyze(opts) : cmdFleet(opts);
    if (rc != 0)
        return rc;
    std::cout << '\n' << obs::renderText(obs::takeSnapshot());
    return 0;
}

// ---------------------------------------------------------------------------
// Usage, flag validation, and the --metrics emitter.

/** Per-command usage text, shown on help and on flag errors. */
const std::map<std::string, const char *> &
commandUsage()
{
    static const std::map<std::string, const char *> usages = {
        {"generate",
         "  generate    --class oltp|fileserver|streaming|backup\n"
         "              --rate R --minutes M --seed S --out FILE\n"},
        {"convert",
         "  convert     --in FILE --out FILE      (.csv/.bin/.spc)\n"
         "              [--on-corrupt abort|skip|clamp]\n"},
        {"analyze",
         "  analyze     --in FILE [--drive enterprise|nearline]\n"
         "              [--cache on|off] [--on-corrupt abort|skip|clamp]\n"
         "              [--stream on|off] [--batch N]\n"},
        {"family",
         "  family      --drives N --min-hours A --max-hours B\n"
         "              --seed S --name NAME --out FILE\n"},
        {"fleet",
         "  fleet       --drives N --threads T\n"
         "              --preset oltp|fileserver|streaming|backup|mixed\n"
         "              --rate R --minutes M --seed S --retries K\n"
         "              [--drive enterprise|nearline]\n"
         "              [--stream on|off] [--batch N]\n"},
        {"corrupt",
         "  corrupt     --in FILE --out FILE\n"
         "              --mode truncate|bitflip|garbage|dup|reorder\n"
         "              --seed S --count N --offset B\n"},
        {"run-report",
         "  run-report  analyze (--in FILE) or fleet (no --in) plus the\n"
         "              observability report: accepts the union of the\n"
         "              analyze and fleet options\n"},
        {"bench-diff",
         "  bench-diff  OLD.json NEW.json    (BENCH_* perf snapshots)\n"
         "              [--max-wall-pct P] [--max-p95-pct P]\n"
         "              [--max-counter-pct P]    exit 2 on regression\n"},
        {"characterize",
         "  characterize --in FILE    trace-derived characterization\n"
         "              only (no drive model) — the batch twin of a\n"
         "              dlwd streaming session\n"
         "              [--on-corrupt abort|skip|clamp] [--batch N]\n"},
        {"serve",
         "  serve       run dlwd: stream traces in, characterize\n"
         "              live, query reports over HTTP\n"
         "              [--port P] [--port-file F] [--max-conns N]\n"
         "              [--max-buffer-kb K] [--threads T]\n"
         "              [--drain-grace-ms MS]\n"
         "              [--first-byte-timeout-ms MS]\n"
         "              [--header-timeout-ms MS]\n"
         "              [--idle-timeout-ms MS]\n"
         "              [--write-stall-timeout-ms MS]\n"
         "              (0 disables a deadline)\n"
         "              [--state-dir DIR] [--ckpt-ms MS]\n"
         "              crash-safe session checkpoints\n"
         "              [--qos on|off] per-tenant/class ratekeeper\n"
         "              [--qos-target-qd N] [--qos-target-p95-us US]\n"
         "              [--qos-min-rate R] [--qos-max-rate R]\n"
         "              ratekeeper tuning\n"},
        {"stream",
         "  stream      --in FILE    stream a .csv/.bin trace to a\n"
         "              running dlwd and print the final report\n"
         "              [--host H] [--port P] [--tenant NAME]\n"
         "              [--class interactive|bulk|background]\n"
         "              [--connect-timeout-ms MS] [--retries K]\n"
         "              [--retry-seed S]    exit 3 when the server\n"
         "              closes the connection mid-session\n"
         "              [--trace-id ID]    tag the session for\n"
         "              end-to-end tracing; with --trace-out the\n"
         "              server's spans are fetched and merged into\n"
         "              the trace file (an id is self-assigned when\n"
         "              only --trace-out is given)\n"},
        {"top",
         "  top         live daemon dashboard: poll GET /v1/stats\n"
         "              and redraw each interval\n"
         "              [--host H] [--port P] [--interval-ms MS]\n"
         "              [--iterations N]    N=1 prints one frame\n"
         "              and exits (script mode); 0 runs until ^C\n"},
    };
    return usages;
}

/** Flags each command accepts (globals are allowed everywhere). */
const std::map<std::string, std::set<std::string>> &
commandFlags()
{
    static const std::map<std::string, std::set<std::string>> flags = {
        {"generate", {"class", "rate", "minutes", "seed", "out"}},
        {"convert", {"in", "out", "on-corrupt"}},
        {"analyze",
         {"in", "drive", "cache", "on-corrupt", "stream", "batch"}},
        {"family",
         {"drives", "min-hours", "max-hours", "seed", "name", "out"}},
        {"fleet",
         {"drives", "threads", "preset", "rate", "minutes", "seed",
          "retries", "drive", "stream", "batch"}},
        {"corrupt", {"in", "out", "mode", "seed", "count", "offset"}},
        {"run-report",
         {"in", "drive", "cache", "on-corrupt", "drives", "threads",
          "preset", "rate", "minutes", "seed", "retries", "stream",
          "batch"}},
        {"bench-diff",
         {"max-wall-pct", "max-p95-pct", "max-counter-pct"}},
        {"characterize", {"in", "on-corrupt", "batch"}},
        {"serve",
         {"port", "port-file", "max-conns", "max-buffer-kb",
          "threads", "drain-grace-ms", "first-byte-timeout-ms",
          "header-timeout-ms", "idle-timeout-ms",
          "write-stall-timeout-ms", "state-dir", "ckpt-ms", "qos",
          "qos-target-qd", "qos-target-p95-us", "qos-min-rate",
          "qos-max-rate"}},
        {"stream",
         {"in", "host", "port", "tenant", "class",
          "connect-timeout-ms", "retries", "retry-seed",
          "trace-id"}},
        {"top", {"host", "port", "interval-ms", "iterations"}},
    };
    return flags;
}

const char *kGlobalUsage =
    "\n"
    "global options (any command):\n"
    "  --fault SPEC      arm failure points before the command runs,\n"
    "                    e.g. \"trace.open:once\" or\n"
    "                    \"fleet.shard:mod=8;trace.read.record:nth=100\"\n"
    "                    (modes: nth=N, mod=N, p=P[,seed=S], once)\n"
    "  --metrics FMT     emit an observability snapshot after the\n"
    "                    command (text|json|prom); goes to stderr so\n"
    "                    stdout reports stay byte-identical\n"
    "  --metrics-out F   write the snapshot to file F instead of\n"
    "                    stderr (implies --metrics, default text)\n"
    "  --max-rss-mb N    after the command, fail (exit 1) when the\n"
    "                    process's peak RSS exceeded N MiB; the\n"
    "                    bounded-memory guard CI runs on the\n"
    "                    streaming pipeline\n"
    "  --trace-out F     record a timeline of the command (spans,\n"
    "                    instants, counter tracks) and write Chrome\n"
    "                    trace_event JSON to F — open it in Perfetto\n"
    "                    (ui.perfetto.dev) or chrome://tracing; a\n"
    "                    fatal signal dumps the flight recorder to\n"
    "                    the same file\n"
    "\n"
    "see docs/METRICS.md for every metric the snapshot can contain\n";

const std::set<std::string> kGlobalFlags = {"fault", "metrics",
                                            "metrics-out",
                                            "max-rss-mb", "trace-out"};

void
usage(std::ostream &os)
{
    os << "dlwtool <command> [--option value ...]\n"
          "\n"
          "commands:\n";
    for (const auto &[name, text] : commandUsage())
        os << text;
    os << kGlobalUsage;
}

/** Print one command's usage (full usage for an unknown command). */
void
usageFor(std::ostream &os, const std::string &cmd)
{
    auto it = commandUsage().find(cmd);
    if (it == commandUsage().end()) {
        usage(os);
        return;
    }
    os << "usage:\n" << it->second << kGlobalUsage;
}

/**
 * Reject flags the command does not accept, pointing at the relevant
 * usage instead of silently ignoring the typo.
 */
bool
validateFlags(const std::string &cmd, const dlw::Options &opts)
{
    const auto &allowed = commandFlags().at(cmd);
    bool ok = true;
    for (const std::string &key : opts.keys()) {
        if (allowed.count(key) || kGlobalFlags.count(key))
            continue;
        std::cerr << "dlwtool " << cmd << ": unknown option --" << key
                  << '\n';
        ok = false;
    }
    if (!ok)
        usageFor(std::cerr, cmd);
    return ok;
}

/**
 * The --metrics / --metrics-out surface: arms the registry before the
 * command and emits one snapshot afterwards (also after a failed
 * command — observability of failures is half the point).
 */
class MetricsEmitter
{
  public:
    void
    setup(const dlw::Options &opts)
    {
        if (!opts.has("metrics") && !opts.has("metrics-out"))
            return;
        format_ = obs::parseExportFormat(opts.get("metrics", "text"))
                      .valueOrThrow();
        out_path_ = opts.get("metrics-out", "");
        registerAllMetrics();
        obs::enable();
        armed_ = true;
    }

    void
    emit()
    {
        if (!armed_)
            return;
        armed_ = false;
        std::string text = obs::render(obs::takeSnapshot(), format_);
        if (!text.empty() && text.back() != '\n')
            text += '\n';
        if (out_path_.empty()) {
            std::cerr << text;
            return;
        }
        std::ofstream os(out_path_);
        if (!os) {
            std::cerr << "dlwtool: cannot write metrics to '"
                      << out_path_ << "'\n";
            return;
        }
        os << text;
    }

  private:
    bool armed_ = false;
    obs::ExportFormat format_ = obs::ExportFormat::kText;
    std::string out_path_;
};

/**
 * The --trace-out surface: arms the timeline recorder, the crash
 * dump, and the counter sampler before the command, then writes the
 * Chrome trace afterwards (also after a failed command — the
 * flight-recorder view of a failure is the interesting one).  The
 * sampler holds its own obs sink so gauge tracks move even without
 * --metrics; that sink never writes stdout, so the byte-identity
 * contracts hold.
 */
class TimelineEmitter
{
  public:
    void
    setup(const dlw::Options &opts)
    {
        if (!opts.has("trace-out"))
            return;
        out_path_ = opts.get("trace-out", "trace.json");
        registerAllMetrics();
        obs::enableTimeline();
        obs::installTimelineCrashHandler(out_path_);
        sampler_.start();
        armed_ = true;
    }

    void
    emit()
    {
        if (!armed_)
            return;
        armed_ = false;
        sampler_.stop();
        obs::disarmTimelineCrashHandler();
        obs::TimelineSnapshot snap = obs::timelineSnapshot();
        obs::disableTimeline();
        Status s;
        if (g_server_trace_fragment.empty()) {
            s = obs::writeChromeTrace(out_path_, snap);
        } else {
            // A stream session fetched the server's timeline: merge
            // its re-projected events into the same traceEvents
            // array so one Perfetto file shows both processes.
            std::ofstream os(out_path_, std::ios::binary);
            if (os) {
                os << obs::renderChromeTrace(
                    snap, static_cast<int>(::getpid()),
                    g_server_trace_fragment);
            }
            s = os ? Status() : Status::ioError(
                "cannot write trace '" + out_path_ + "'");
        }
        if (!s.ok()) {
            std::cerr << "dlwtool: cannot write trace: "
                      << s.toString() << '\n';
            return;
        }
        std::cerr << "trace: " << snap.events.size()
                  << " event(s) from " << snap.threads
                  << " thread(s)";
        if (snap.dropped != 0)
            std::cerr << ", " << snap.dropped
                      << " dropped to ring wraparound";
        std::cerr << " -> " << out_path_ << '\n';
    }

  private:
    bool armed_ = false;
    std::string out_path_;
    obs::CounterSampler sampler_;
};

/**
 * The --max-rss-mb guard: compares the process's peak resident set
 * against the budget and turns an overrun into a nonzero exit.  The
 * verdict goes to stderr so the stdout byte-identity contracts hold
 * with or without the flag.
 */
int
checkRssBudget(const dlw::Options &opts, int rc)
{
    if (!opts.has("max-rss-mb"))
        return rc;
    const std::int64_t budget = opts.getInt("max-rss-mb", 0);
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const std::int64_t peak_mb = ru.ru_maxrss / 1024; // KiB on Linux
    std::cerr << "rss: peak " << peak_mb << " MiB, budget " << budget
              << " MiB\n";
    if (peak_mb > budget) {
        std::cerr << "rss: budget exceeded\n";
        return rc == 0 ? 1 : rc;
    }
    return rc;
}

int
dispatch(const std::string &cmd, const dlw::Options &opts)
{
    if (cmd == "generate")
        return cmdGenerate(opts);
    if (cmd == "convert")
        return cmdConvert(opts);
    if (cmd == "analyze")
        return cmdAnalyze(opts);
    if (cmd == "family")
        return cmdFamily(opts);
    if (cmd == "fleet")
        return cmdFleet(opts);
    if (cmd == "corrupt")
        return cmdCorrupt(opts);
    if (cmd == "run-report")
        return cmdRunReport(opts);
    if (cmd == "characterize")
        return cmdCharacterize(opts);
    if (cmd == "serve")
        return cmdServe(opts);
    if (cmd == "stream")
        return cmdStream(opts);
    if (cmd == "top")
        return cmdTop(opts);
    usage(std::cerr);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Usage errors exit 2, uniformly: no arguments, an unknown
    // command, an unknown flag, missing positionals.  Exit 1 is
    // reserved for a correct invocation that failed.
    if (argc < 2) {
        usage(std::cerr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        if (argc > 2)
            usageFor(std::cout, argv[2]);
        else
            usage(std::cout);
        return 0;
    }
    if (!commandFlags().count(cmd)) {
        std::cerr << "dlwtool: unknown command '" << cmd << "'\n";
        usage(std::cerr);
        return 2;
    }

    // bench-diff takes its two inputs positionally (old first, like
    // diff itself); everything else is pure --key value.
    if (cmd == "bench-diff") {
        if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-') {
            std::cerr
                << "dlwtool bench-diff: need OLD.json NEW.json\n";
            usageFor(std::cerr, cmd);
            return 2;
        }
        const std::string shape =
            dlw::Options::shapeError(argc, argv, 4);
        if (!shape.empty()) {
            std::cerr << "dlwtool " << cmd << ": " << shape << '\n';
            usageFor(std::cerr, cmd);
            return 2;
        }
        dlw::Options opts(argc, argv, 4);
        if (!validateFlags(cmd, opts))
            return 2;
        try {
            return cmdBenchDiff(argv[2], argv[3], opts);
        } catch (const StatusError &e) {
            std::cerr << "dlwtool: " << e.status().toString() << '\n';
            return 1;
        }
    }

    const std::string shape = dlw::Options::shapeError(argc, argv, 2);
    if (!shape.empty()) {
        std::cerr << "dlwtool " << cmd << ": " << shape << '\n';
        usageFor(std::cerr, cmd);
        return 2;
    }
    dlw::Options opts(argc, argv, 2);
    if (!validateFlags(cmd, opts))
        return 2;

    MetricsEmitter metrics;
    TimelineEmitter timeline;
    try {
        if (opts.has("fault")) {
            Status s = fault::armFromSpec(opts.get("fault", ""));
            if (!s.ok())
                throw StatusError(s);
        }
        metrics.setup(opts);
        timeline.setup(opts);
        const int rc = dispatch(cmd, opts);
        timeline.emit();
        metrics.emit();
        return checkRssBudget(opts, rc);
    } catch (const StatusError &e) {
        // The CLI boundary of the Status model: render the error,
        // exit nonzero, and leave core dumps to real crashes.
        std::cerr << "dlwtool: " << e.status().toString() << '\n';
        timeline.emit();
        metrics.emit();
        return 1;
    }
}
