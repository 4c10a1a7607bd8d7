#include "trace/csvio.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "obs/span.hh"
#include "trace/gate.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace trace
{

namespace
{

Status
openIn(const std::string &path, std::ifstream &is)
{
    obs::ScopedSpan span("ingest.open");
    if (FAULT_POINT("trace.open")) {
        return Status::ioError("injected fault at trace.open on '" +
                               path + "'");
    }
    is.open(path);
    if (!is)
        return Status::ioError("cannot open '" + path + "' for reading");
    return Status();
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        throw StatusError(Status::ioError("cannot open '" + path +
                                          "' for writing"));
    }
    return os;
}

std::string
atLine(std::size_t lineno, const std::string &what)
{
    std::ostringstream os;
    os << "line " << lineno << ": " << what;
    return os.str();
}

} // anonymous namespace

void
writeMsCsv(std::ostream &os, const MsTrace &trace)
{
    os << "# dlw-ms-v1," << trace.driveId() << ','
       << trace.start() << ',' << trace.duration() << '\n';
    os << "arrival_ns,lba,blocks,op\n";
    for (const Request &r : trace.requests()) {
        os << r.arrival << ',' << r.lba << ',' << r.blocks << ','
           << (r.isRead() ? 'R' : 'W') << '\n';
    }
}

void
writeMsCsv(const std::string &path, const MsTrace &trace)
{
    auto os = openOut(path);
    writeMsCsv(os, trace);
}

StatusOr<MsTrace>
readMsCsv(std::istream &is, const IngestOptions &opts,
          IngestStats *stats)
{
    return drainMsSource(openMsCsvSource(is, opts), stats);
}

StatusOr<MsTrace>
readMsCsv(const std::string &path, const IngestOptions &opts,
          IngestStats *stats)
{
    return drainMsSource(openMsCsvSource(path, opts), stats);
}

MsTrace
readMsCsv(std::istream &is)
{
    return readMsCsv(is, IngestOptions{}).valueOrThrow();
}

MsTrace
readMsCsv(const std::string &path)
{
    return readMsCsv(path, IngestOptions{}).valueOrThrow();
}

void
writeHourCsv(std::ostream &os, const HourTrace &trace)
{
    os << "# dlw-hour-v1," << trace.driveId() << ','
       << trace.start() << '\n';
    os << "hour,reads,writes,read_blocks,write_blocks,busy_ns\n";
    for (std::size_t h = 0; h < trace.hours(); ++h) {
        const HourBucket &b = trace.at(h);
        os << h << ',' << b.reads << ',' << b.writes << ','
           << b.read_blocks << ',' << b.write_blocks << ','
           << b.busy << '\n';
    }
}

void
writeHourCsv(const std::string &path, const HourTrace &trace)
{
    auto os = openOut(path);
    writeHourCsv(os, trace);
}

StatusOr<HourTrace>
readHourCsv(std::istream &is, const IngestOptions &opts,
            IngestStats *stats)
{
    Gate gate{opts, {}};
    IngestMetricsScope obs_scope(gate.st);
    auto fail = [&](Status s) -> StatusOr<HourTrace> {
        if (stats)
            *stats = gate.st;
        return s;
    };

    std::string line;
    if (!std::getline(is, line))
        return fail(Status::truncated("empty hour-trace CSV"));
    const std::string_view head_line = trimView(line);
    std::string_view head[3];
    std::int64_t start = 0;
    if (splitFields(head_line, ',', head, 3) != 3 ||
        head[0] != "# dlw-hour-v1" || !tryParseInt(head[2], start)) {
        return fail(Status::corruptData("bad hour-trace header '" +
                                        std::string(head_line) + "'"));
    }
    HourTrace trace(std::string(head[1]), start);
    if (!std::getline(is, line)) {
        return fail(
            Status::truncated("truncated CSV: missing column header"));
    }

    std::size_t lineno = 2;
    while (std::getline(is, line)) {
        ++lineno;
        const std::string_view t = trimView(line);
        if (t.empty())
            continue;
        const std::size_t record_bytes = line.size() + 1;

        std::string why;
        bool was_clamped = false;
        std::uint64_t h = 0;
        HourBucket b;
        if (FAULT_POINT("trace.read.record")) {
            why = atLine(lineno, "injected fault at trace.read.record");
        } else {
            std::string_view f[6];
            if (splitFields(t, ',', f, 6) != 6) {
                why = atLine(lineno, "expected 6 fields");
            } else if (!tryParseUint(f[0], h) ||
                       !tryParseUint(f[1], b.reads) ||
                       !tryParseUint(f[2], b.writes) ||
                       !tryParseUint(f[3], b.read_blocks) ||
                       !tryParseUint(f[4], b.write_blocks) ||
                       !tryParseInt(f[5], b.busy)) {
                why = atLine(lineno, "malformed field");
            } else if (b.busy < 0 || b.busy > kHour) {
                if (gate.clampMode()) {
                    b.busy = b.busy < 0 ? 0 : kHour;
                    was_clamped = true;
                }
                why = atLine(lineno, "busy time outside [0, 1h]");
            }
        }

        if (!why.empty()) {
            Status s = gate.corrupt(why);
            if (!s.ok())
                return fail(std::move(s));
            if (!was_clamped) {
                gate.skip();
                continue;
            }
            gate.clamped();
        }
        trace.bucketFor(static_cast<std::size_t>(h)) = b;
        gate.accept(record_bytes);
    }
    if (stats)
        *stats = gate.st;
    return trace;
}

StatusOr<HourTrace>
readHourCsv(const std::string &path, const IngestOptions &opts,
            IngestStats *stats)
{
    std::ifstream is;
    Status s = openIn(path, is);
    if (!s.ok())
        return s;
    StatusOr<HourTrace> r = readHourCsv(is, opts, stats);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    return r;
}

HourTrace
readHourCsv(std::istream &is)
{
    return readHourCsv(is, IngestOptions{}).valueOrThrow();
}

HourTrace
readHourCsv(const std::string &path)
{
    return readHourCsv(path, IngestOptions{}).valueOrThrow();
}

void
writeLifetimeCsv(std::ostream &os, const LifetimeTrace &trace)
{
    os << "# dlw-lifetime-v1," << trace.family() << '\n';
    os << "drive_id,power_on_ns,busy_ns,reads,writes,read_blocks,"
          "write_blocks,peak_hour_requests,saturated_hours,"
          "longest_saturated_run\n";
    for (const LifetimeRecord &r : trace.records()) {
        os << r.drive_id << ',' << r.power_on << ',' << r.busy << ','
           << r.reads << ',' << r.writes << ',' << r.read_blocks << ','
           << r.write_blocks << ',' << r.peak_hour_requests << ','
           << r.saturated_hours << ',' << r.longest_saturated_run
           << '\n';
    }
}

void
writeLifetimeCsv(const std::string &path, const LifetimeTrace &trace)
{
    auto os = openOut(path);
    writeLifetimeCsv(os, trace);
}

StatusOr<LifetimeTrace>
readLifetimeCsv(std::istream &is, const IngestOptions &opts,
                IngestStats *stats)
{
    Gate gate{opts, {}};
    IngestMetricsScope obs_scope(gate.st);
    auto fail = [&](Status s) -> StatusOr<LifetimeTrace> {
        if (stats)
            *stats = gate.st;
        return s;
    };

    std::string line;
    if (!std::getline(is, line))
        return fail(Status::truncated("empty lifetime-trace CSV"));
    const std::string_view head_line = trimView(line);
    std::string_view head[2];
    if (splitFields(head_line, ',', head, 2) != 2 ||
        head[0] != "# dlw-lifetime-v1") {
        return fail(Status::corruptData("bad lifetime-trace header '" +
                                        std::string(head_line) + "'"));
    }
    LifetimeTrace trace{std::string(head[1])};
    if (!std::getline(is, line)) {
        return fail(
            Status::truncated("truncated CSV: missing column header"));
    }

    std::size_t lineno = 2;
    while (std::getline(is, line)) {
        ++lineno;
        const std::string_view t = trimView(line);
        if (t.empty())
            continue;
        const std::size_t record_bytes = line.size() + 1;

        std::string why;
        bool was_clamped = false;
        LifetimeRecord r;
        if (FAULT_POINT("trace.read.record")) {
            why = atLine(lineno, "injected fault at trace.read.record");
        } else {
            std::string_view f[10];
            if (splitFields(t, ',', f, 10) != 10) {
                why = atLine(lineno, "expected 10 fields");
            } else if (!tryParseInt(f[1], r.power_on) ||
                       !tryParseInt(f[2], r.busy) ||
                       !tryParseUint(f[3], r.reads) ||
                       !tryParseUint(f[4], r.writes) ||
                       !tryParseUint(f[5], r.read_blocks) ||
                       !tryParseUint(f[6], r.write_blocks) ||
                       !tryParseUint(f[7], r.peak_hour_requests) ||
                       !tryParseUint(f[8], r.saturated_hours) ||
                       !tryParseUint(f[9], r.longest_saturated_run)) {
                why = atLine(lineno, "malformed field");
            } else {
                r.drive_id = trim(f[0]);
                // Domain repairs exist only under the clamp policy;
                // the other policies pass domain issues through to
                // validate(), as the seed reader did.
                if (gate.clampMode()) {
                    if (r.power_on < 0) {
                        r.power_on = 0;
                        was_clamped = true;
                    }
                    if (r.busy < 0 || r.busy > r.power_on) {
                        r.busy = r.busy < 0 ? 0 : r.power_on;
                        was_clamped = true;
                    }
                    if (r.longest_saturated_run > r.saturated_hours) {
                        r.longest_saturated_run = r.saturated_hours;
                        was_clamped = true;
                    }
                    if (was_clamped) {
                        why = atLine(lineno,
                                     "counters outside their domain");
                    }
                }
            }
        }

        if (!why.empty()) {
            Status s = gate.corrupt(why);
            if (!s.ok())
                return fail(std::move(s));
            if (!was_clamped) {
                gate.skip();
                continue;
            }
            gate.clamped();
        }
        trace.append(std::move(r));
        gate.accept(record_bytes);
    }
    if (stats)
        *stats = gate.st;
    return trace;
}

StatusOr<LifetimeTrace>
readLifetimeCsv(const std::string &path, const IngestOptions &opts,
                IngestStats *stats)
{
    std::ifstream is;
    Status s = openIn(path, is);
    if (!s.ok())
        return s;
    StatusOr<LifetimeTrace> r = readLifetimeCsv(is, opts, stats);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    return r;
}

LifetimeTrace
readLifetimeCsv(std::istream &is)
{
    return readLifetimeCsv(is, IngestOptions{}).valueOrThrow();
}

LifetimeTrace
readLifetimeCsv(const std::string &path)
{
    return readLifetimeCsv(path, IngestOptions{}).valueOrThrow();
}

} // namespace trace
} // namespace dlw
