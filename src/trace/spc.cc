#include "trace/spc.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "obs/span.hh"

namespace dlw
{
namespace trace
{

StatusOr<MsTrace>
readSpc(std::istream &is, const std::string &drive_id,
        const IngestOptions &opts, IngestStats *stats, int asu)
{
    IngestStats st;
    IngestMetricsScope obs_scope(st);
    const bool clamp = opts.policy == RecordPolicy::kBestEffortClamp;
    MsTrace trace(drive_id, 0, 0);
    std::string line;
    std::size_t lineno = 0;
    Tick last = 0;

    while (std::getline(is, line)) {
        ++lineno;
        const std::string_view t = trimView(line);
        if (t.empty() || t[0] == '#')
            continue;
        const std::size_t record_bytes = line.size() + 1;

        std::string why;
        bool was_clamped = false;
        Request r;
        bool filtered = false;
        auto at = [&](const std::string &what) {
            std::ostringstream os;
            os << "SPC line " << lineno << ": " << what;
            return os.str();
        };

        if (FAULT_POINT("trace.read.record")) {
            why = at("injected fault at trace.read.record");
        } else {
            std::string_view f[5];
            std::int64_t rec_asu = 0;
            std::uint64_t size_bytes = 0;
            double ts = 0.0;
            if (splitFields(t, ',', f, 5) < 5) {
                why = at("expected 5 fields");
            } else if (!tryParseInt(f[0], rec_asu)) {
                why = at("malformed asu '" + trim(f[0]) + "'");
            } else if (asu >= 0 && rec_asu != asu) {
                filtered = true;
            } else if (!tryParseUint(f[1], r.lba)) {
                why = at("malformed lba '" + trim(f[1]) + "'");
            } else if (!tryParseUint(f[2], size_bytes)) {
                why = at("malformed size '" + trim(f[2]) + "'");
            } else if (!tryParseDouble(f[4], ts)) {
                why = at("malformed timestamp '" + trim(f[4]) + "'");
            } else {
                if (size_bytes == 0 || size_bytes % kBlockBytes != 0) {
                    why = at("size not a positive multiple of 512");
                    if (clamp) {
                        // Round up to whole blocks, floor one block.
                        size_bytes =
                            ((size_bytes + kBlockBytes - 1) /
                             kBlockBytes) * kBlockBytes;
                        if (size_bytes == 0)
                            size_bytes = kBlockBytes;
                        was_clamped = true;
                    }
                }
                if (why.empty() || was_clamped) {
                    r.blocks = static_cast<BlockCount>(size_bytes /
                                                       kBlockBytes);
                    const std::string_view op = trimView(f[3]);
                    if (op == "r" || op == "R") {
                        r.op = Op::Read;
                    } else if (op == "w" || op == "W") {
                        r.op = Op::Write;
                    } else {
                        why = at("bad opcode '" + std::string(op) + "'");
                        was_clamped = false;
                    }
                }
                if (why.empty() || was_clamped) {
                    if (ts < 0.0) {
                        why = at("negative timestamp");
                        if (clamp) {
                            ts = 0.0;
                            was_clamped = true;
                        } else {
                            was_clamped = false;
                        }
                    }
                }
                if (why.empty() || was_clamped)
                    r.arrival = secondsToTicks(ts);
            }
        }

        if (filtered)
            continue;
        if (!why.empty()) {
            st.noteError(why, opts.max_error_samples);
            if (opts.policy == RecordPolicy::kAbort) {
                if (stats)
                    *stats = st;
                return Status::corruptData(why);
            }
            if (!was_clamped) {
                ++st.records_skipped;
                continue;
            }
            ++st.records_clamped;
        }
        last = std::max(last, r.arrival);
        trace.append(r);
        ++st.records_read;
        st.bytes_read += record_bytes;
        if (st.errors != 0)
            st.bytes_recovered += record_bytes;
    }

    trace.setWindow(0, trace.empty() ? 0 : last + 1);
    trace.sortByArrival();
    if (stats)
        *stats = st;
    return trace;
}

StatusOr<MsTrace>
readSpc(const std::string &path, const std::string &drive_id,
        const IngestOptions &opts, IngestStats *stats, int asu)
{
    std::ifstream is;
    {
        obs::ScopedSpan span("ingest.open");
        if (FAULT_POINT("trace.open")) {
            return Status::ioError(
                "injected fault at trace.open on '" + path + "'");
        }
        is.open(path);
    }
    if (!is) {
        return Status::ioError("cannot open '" + path +
                               "' for reading");
    }
    StatusOr<MsTrace> r = readSpc(is, drive_id, opts, stats, asu);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    return r;
}

MsTrace
readSpc(std::istream &is, const std::string &drive_id, int asu)
{
    return readSpc(is, drive_id, IngestOptions{}, nullptr, asu)
        .valueOrThrow();
}

MsTrace
readSpc(const std::string &path, const std::string &drive_id, int asu)
{
    return readSpc(path, drive_id, IngestOptions{}, nullptr, asu)
        .valueOrThrow();
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
