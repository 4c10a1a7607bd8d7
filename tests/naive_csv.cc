/**
 * @file
 * The getline/split ms-trace CSV decoder, verbatim apart from names,
 * as a test-only oracle (see naive_csv.hh).
 */

#include "naive_csv.hh"

#include <sstream>

#include "common/strutil.hh"
#include "trace/gate.hh"

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
    Gate gate{opts, {}};
    std::string line;
    std::getline(is, line);
    std::getline(is, line);
    std::size_t lineno = 2;
    Status status;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty())
            continue;
        const std::size_t record_bytes = line.size() + 1;

        std::string why;
        bool was_clamped = false;
        Request r;
        MsRecordParse p =
            parseMsCsvRecordLine(t, gate.clampMode(), r);
        was_clamped = p.clamped;
        if (!p.why.empty())
            why = atLine(lineno, p.why);

        if (!why.empty()) {
            Status s = gate.corrupt(why);
            if (!s.ok()) {
                status = std::move(s);
                break;
            }
            if (!was_clamped) {
                gate.skip();
                continue;
            }
            gate.clamped();
        }
        out.push_back(r);
        gate.accept(record_bytes);
    }
    stats = gate.st;
    return status;
}

} // namespace naive
} // namespace trace
} // namespace dlw
