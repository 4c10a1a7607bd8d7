#include "trace/csvio.hh"

#include <fstream>
#include <ostream>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "trace/gate.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace trace
{

namespace
{

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
    Gate gate{opts, {}, {}};
    IngestMetricsScope obs_scope(gate.st);
    auto done = [&](StatusOr<HourTrace> r) {
        if (stats)
            *stats = gate.st;
        return r;
    };

    LineReader lines(is);
    HourTrace trace;
    Status s = readCsvHead(lines, "hour", [&](std::string_view t) {
        std::string_view head[3];
        std::int64_t start = 0;
        if (splitFields(t, ',', head, 3) != 3 ||
            head[0] != "# dlw-hour-v1" || !tryParseInt(head[2], start))
            return false;
        trace = HourTrace(std::string(head[1]), start);
        return true;
    });
    if (!s.ok())
        return done(s);

    std::string_view line;
    for (std::size_t lineno = 3; lines.next(line); ++lineno) {
        const std::string_view t = trimView(line);
        if (t.empty())
            continue;
        std::string why;
        bool clamped = false;
        std::uint64_t h = 0;
        HourBucket b;
        std::string_view f[6];
        if (FAULT_POINT("trace.read.record")) {
            why = kInjectedRecordFault;
        } else if (splitFields(t, ',', f, 6) != 6) {
            why = "expected 6 fields";
        } else if (!tryParseUint(f[0], h) ||
                   !tryParseUint(f[1], b.reads) ||
                   !tryParseUint(f[2], b.writes) ||
                   !tryParseUint(f[3], b.read_blocks) ||
                   !tryParseUint(f[4], b.write_blocks) ||
                   !tryParseInt(f[5], b.busy)) {
            why = "malformed field";
        } else if (h >= kMaxHours) {
            why = "hour index out of range";
        } else if (b.busy < 0 || b.busy > kHour) {
            why = "busy time outside [0, 1h]";
            if (gate.clampMode()) {
                b.busy = b.busy < 0 ? 0 : kHour;
                clamped = true;
            }
        }
        if (!why.empty())
            why = atLine(lineno, why);
        const Admit a = gate.admit(std::move(why), clamped, line.size() + 1);
        if (a == Admit::kStop)
            return done(gate.status);
        if (a == Admit::kKeep)
            trace.bucketFor(static_cast<std::size_t>(h)) = b;
    }
    return done(std::move(trace));
}

StatusOr<HourTrace>
readHourCsv(const std::string &path, const IngestOptions &opts,
            IngestStats *stats)
{
    return readTraceFile(path, [&](std::istream &is) {
        return readHourCsv(is, opts, stats);
    });
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
    Gate gate{opts, {}, {}};
    IngestMetricsScope obs_scope(gate.st);
    auto done = [&](StatusOr<LifetimeTrace> r) {
        if (stats)
            *stats = gate.st;
        return r;
    };

    LineReader lines(is);
    LifetimeTrace trace;
    Status s = readCsvHead(lines, "lifetime", [&](std::string_view t) {
        std::string_view head[2];
        if (splitFields(t, ',', head, 2) != 2 ||
            head[0] != "# dlw-lifetime-v1")
            return false;
        trace.setFamily(std::string(head[1]));
        return true;
    });
    if (!s.ok())
        return done(s);

    std::string_view line;
    for (std::size_t lineno = 3; lines.next(line); ++lineno) {
        const std::string_view t = trimView(line);
        if (t.empty())
            continue;
        std::string why;
        bool clamped = false;
        LifetimeRecord r;
        std::string_view f[10];
        if (FAULT_POINT("trace.read.record")) {
            why = kInjectedRecordFault;
        } else if (splitFields(t, ',', f, 10) != 10) {
            why = "expected 10 fields";
        } else if (!tryParseInt(f[1], r.power_on) ||
                   !tryParseInt(f[2], r.busy) ||
                   !tryParseUint(f[3], r.reads) ||
                   !tryParseUint(f[4], r.writes) ||
                   !tryParseUint(f[5], r.read_blocks) ||
                   !tryParseUint(f[6], r.write_blocks) ||
                   !tryParseUint(f[7], r.peak_hour_requests) ||
                   !tryParseUint(f[8], r.saturated_hours) ||
                   !tryParseUint(f[9], r.longest_saturated_run)) {
            why = "malformed field";
        } else {
            r.drive_id = trim(f[0]);
            // Domain repairs exist only under the clamp policy; the
            // other policies pass domain issues through to validate(),
            // as the seed reader did.
            if (gate.clampMode()) {
                if (r.power_on < 0) {
                    r.power_on = 0;
                    clamped = true;
                }
                if (r.busy < 0 || r.busy > r.power_on) {
                    r.busy = r.busy < 0 ? 0 : r.power_on;
                    clamped = true;
                }
                if (r.longest_saturated_run > r.saturated_hours) {
                    r.longest_saturated_run = r.saturated_hours;
                    clamped = true;
                }
                if (clamped)
                    why = "counters outside their domain";
            }
        }
        if (!why.empty())
            why = atLine(lineno, why);
        const Admit a = gate.admit(std::move(why), clamped, line.size() + 1);
        if (a == Admit::kStop)
            return done(gate.status);
        if (a == Admit::kKeep)
            trace.append(std::move(r));
    }
    return done(std::move(trace));
}

StatusOr<LifetimeTrace>
readLifetimeCsv(const std::string &path, const IngestOptions &opts,
                IngestStats *stats)
{
    return readTraceFile(path, [&](std::istream &is) {
        return readLifetimeCsv(is, opts, stats);
    });
}

} // namespace trace
} // namespace dlw
