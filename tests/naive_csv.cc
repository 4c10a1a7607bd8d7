/**
 * @file
 * The getline/split ms-trace CSV decoder, verbatim apart from names,
 * as a test-only oracle (see naive_csv.hh).
 */

#include "naive_csv.hh"

#include <limits>
#include <sstream>

#include "common/strutil.hh"

namespace dlw
{
namespace trace
{
namespace naive
{

namespace
{

std::string
atLine(std::size_t lineno, const std::string &what)
{
    std::ostringstream os;
    os << "line " << lineno << ": " << what;
    return os.str();
}

} // anonymous namespace

MsRecordParse
parseMsCsvRecordLine(const std::string &trimmed, bool clamp,
                     Request &out)
{
    MsRecordParse p;
    auto f = split(trimmed, ',');
    std::uint64_t blocks = 0;
    if (f.size() != 4) {
        p.why = "expected 4 fields";
    } else if (!tryParseInt(f[0], out.arrival)) {
        p.why = "malformed arrival '" + trim(f[0]) + "'";
    } else if (!tryParseUint(f[1], out.lba)) {
        p.why = "malformed lba '" + trim(f[1]) + "'";
    } else if (!tryParseUint(f[2], blocks)) {
        p.why = "malformed blocks '" + trim(f[2]) + "'";
    } else if (blocks > std::numeric_limits<BlockCount>::max()) {
        p.why = "blocks out of range '" + trim(f[2]) + "'";
    } else {
        out.blocks = static_cast<BlockCount>(blocks);
        const std::string op = trim(f[3]);
        if (op == "R") {
            out.op = Op::Read;
        } else if (op == "W") {
            out.op = Op::Write;
        } else if (clamp && (op == "r" || op == "w")) {
            out.op = op == "r" ? Op::Read : Op::Write;
            p.clamped = true;
            p.why = "lowercase op '" + op + "'";
        } else {
            p.why = "bad op '" + op + "'";
        }
        if (p.why.empty() || p.clamped) {
            if (out.blocks == 0) {
                if (clamp) {
                    out.blocks = 1;
                    p.clamped = true;
                    p.why = "zero-length request";
                } else {
                    p.clamped = false;
                    p.why = "zero-length request";
                }
            }
        }
    }
    return p;
}

Status
readMsCsvRecords(const std::string &text, const IngestOptions &opts,
                 std::vector<Request> &out, IngestStats &stats)
{
    std::istringstream is(text);
    const bool clamp = opts.policy == RecordPolicy::kBestEffortClamp;
    stats = IngestStats{};
    std::string line;
    std::getline(is, line);
    std::getline(is, line);
    std::size_t lineno = 2;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty())
            continue;
        const std::size_t record_bytes = line.size() + 1;

        Request r;
        MsRecordParse p = parseMsCsvRecordLine(t, clamp, r);
        if (!p.why.empty()) {
            const std::string why = atLine(lineno, p.why);
            stats.noteError(why, opts.max_error_samples);
            if (opts.policy == RecordPolicy::kAbort)
                return Status::corruptData(why);
            if (!p.clamped) {
                ++stats.records_skipped;
                continue;
            }
            ++stats.records_clamped;
        }
        out.push_back(r);
        ++stats.records_read;
        stats.bytes_read += record_bytes;
        if (stats.errors != 0)
            stats.bytes_recovered += record_bytes;
    }
    return Status();
}

} // namespace naive
} // namespace trace
} // namespace dlw
