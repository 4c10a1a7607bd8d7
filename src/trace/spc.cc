#include "trace/spc.hh"

#include <algorithm>
#include <limits>
#include <ostream>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "trace/gate.hh"

namespace dlw
{
namespace trace
{

namespace
{

/**
 * Parse one trimmed SPC line into `r`.  Returns the bare corruption
 * reason, empty for a clean or repaired record; `clamped` marks a
 * repair and `other_asu` a clean record of an ASU not asked for.
 */
std::string
parseSpcLine(std::string_view t, int asu, bool clamp, Request &r,
             bool &clamped, bool &other_asu)
{
    const auto quoted = [](const char *what, std::string_view field) {
        return std::string(what) + " '" + std::string(trimView(field)) +
               "'";
    };
    std::string_view f[5];
    std::int64_t rec_asu = 0;
    std::uint64_t size_bytes = 0;
    double ts = 0.0;
    if (splitFields(t, ',', f, 5) < 5)
        return "expected 5 fields";
    if (!tryParseInt(f[0], rec_asu))
        return quoted("malformed asu", f[0]);
    if (asu >= 0 && rec_asu != asu) {
        other_asu = true;
        return {};
    }
    if (!tryParseUint(f[1], r.lba))
        return quoted("malformed lba", f[1]);
    if (!tryParseUint(f[2], size_bytes))
        return quoted("malformed size", f[2]);
    if (!tryParseDouble(f[4], ts))
        return quoted("malformed timestamp", f[4]);
    if (size_bytes > std::uint64_t{std::numeric_limits<BlockCount>::max()} *
                         kBlockBytes)
        return quoted("blocks out of range", f[2]);

    std::string why;
    if (size_bytes == 0 || size_bytes % kBlockBytes != 0) {
        why = "size not a positive multiple of 512";
        if (!clamp)
            return why;
        // Round up to whole blocks, floor one block.
        size_bytes = std::max<std::uint64_t>(
                         1, (size_bytes + kBlockBytes - 1) / kBlockBytes) *
                     kBlockBytes;
        clamped = true;
    }
    r.blocks = static_cast<BlockCount>(size_bytes / kBlockBytes);
    const std::string_view op = trimView(f[3]);
    if (op == "r" || op == "R") {
        r.op = Op::Read;
    } else if (op == "w" || op == "W") {
        r.op = Op::Write;
    } else {
        clamped = false;
        return quoted("bad opcode", op);
    }
    if (ts < 0.0) {
        clamped = clamp;
        why = "negative timestamp";
        if (!clamp)
            return why;
        ts = 0.0;
    }
    r.arrival = secondsToTicks(ts);
    return why;
}

} // anonymous namespace

StatusOr<MsTrace>
readSpc(std::istream &is, const std::string &drive_id,
        const IngestOptions &opts, IngestStats *stats, int asu)
{
    Gate gate{opts, {}, {}};
    IngestMetricsScope obs_scope(gate.st);
    MsTrace trace(drive_id, 0, 0);
    Tick last = 0;
    LineReader lines(is);
    std::string_view line;
    for (std::size_t lineno = 1; lines.next(line); ++lineno) {
        const std::string_view t = trimView(line);
        if (t.empty() || t[0] == '#')
            continue;
        Request r;
        bool clamped = false;
        bool other_asu = false;
        std::string why =
            FAULT_POINT("trace.read.record")
                ? kInjectedRecordFault
                : parseSpcLine(t, asu, gate.clampMode(), r, clamped,
                               other_asu);
        if (other_asu)
            continue;
        if (!why.empty())
            why = atLine(lineno, why, "SPC line");
        const Admit a = gate.admit(std::move(why), clamped, line.size() + 1);
        if (a == Admit::kStop) {
            if (stats)
                *stats = gate.st;
            return gate.status;
        }
        if (a == Admit::kKeep) {
            last = std::max(last, r.arrival);
            trace.append(r);
        }
    }

    trace.setWindow(0, trace.empty() ? 0 : last + 1);
    trace.sortByArrival();
    if (stats)
        *stats = gate.st;
    return trace;
}

StatusOr<MsTrace>
readSpc(const std::string &path, const std::string &drive_id,
        const IngestOptions &opts, IngestStats *stats, int asu)
{
    return readTraceFile(path, [&](std::istream &is) {
        return readSpc(is, drive_id, opts, stats, asu);
    });
}

void
writeSpc(std::ostream &os, const MsTrace &trace)
{
    for (const Request &r : trace.requests()) {
        os << 0 << ',' << r.lba << ',' << r.bytes() << ','
           << (r.isRead() ? 'r' : 'w') << ','
           << formatDouble(ticksToSeconds(r.arrival), 9) << '\n';
    }
}

} // namespace trace
} // namespace dlw
