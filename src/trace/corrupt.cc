#include "trace/corrupt.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "common/strutil.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace trace
{

namespace
{

/** Lines a dlw CSV reserves for its magic + column headers. */
constexpr std::size_t kCsvHeaderLines = 2;

/**
 * Split a buffer into '\n'-terminated lines, remembering whether the
 * last line was unterminated so the buffer can be rebuilt exactly.
 */
struct LineBuffer
{
    std::vector<std::string> lines;
    bool final_newline = true;

    explicit LineBuffer(const std::string &in)
    {
        std::size_t pos = 0;
        while (pos < in.size()) {
            std::size_t nl = in.find('\n', pos);
            if (nl == std::string::npos) {
                lines.push_back(in.substr(pos));
                final_newline = false;
                break;
            }
            lines.push_back(in.substr(pos, nl - pos));
            pos = nl + 1;
        }
    }

    std::string
    join() const
    {
        std::string out;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            out += lines[i];
            if (i + 1 < lines.size() || final_newline)
                out += '\n';
        }
        return out;
    }
};

StatusOr<std::string>
truncateBytes(const std::string &in, const CorruptSpec &spec, Rng &rng)
{
    if (in.size() <= spec.offset + 1) {
        return Status::invalidArgument(
            "buffer too small to truncate beyond spared offset");
    }
    // Cut somewhere in the middle half of the unprotected region so
    // the damage is neither trivial nor a near-complete file.
    const std::size_t body = in.size() - spec.offset;
    auto cut = spec.offset + static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(body / 4),
        static_cast<std::int64_t>(3 * body / 4)));
    cut = std::max<std::size_t>(cut, spec.offset + 1);
    return in.substr(0, cut);
}

StatusOr<std::string>
flipBits(const std::string &in, const CorruptSpec &spec, Rng &rng)
{
    if (in.size() <= spec.offset) {
        return Status::invalidArgument(
            "buffer too small to bit-flip beyond spared offset");
    }
    std::string out = in;
    for (std::size_t e = 0; e < spec.count; ++e) {
        auto byte = static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::int64_t>(spec.offset),
            static_cast<std::int64_t>(in.size()) - 1));
        auto bit = static_cast<unsigned>(rng.uniformInt(0, 7));
        out[byte] = static_cast<char>(
            static_cast<unsigned char>(out[byte]) ^ (1u << bit));
    }
    return out;
}

/** Pick a random record-line index (never a header line). */
std::size_t
pickRecordLine(const LineBuffer &buf, Rng &rng)
{
    return static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(kCsvHeaderLines),
        static_cast<std::int64_t>(buf.lines.size()) - 1));
}

StatusOr<std::string>
garbleFields(const std::string &in, const CorruptSpec &spec, Rng &rng)
{
    LineBuffer buf(in);
    if (buf.lines.size() <= kCsvHeaderLines) {
        return Status::invalidArgument(
            "no record lines to garble after the CSV header");
    }
    for (std::size_t e = 0; e < spec.count; ++e) {
        std::string &line = buf.lines[pickRecordLine(buf, rng)];
        std::vector<std::string_view> fields(
            splitFields(line, ',', nullptr, 0));
        splitFields(line, ',', fields.data(), fields.size());
        auto victim = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(fields.size()) - 1));
        fields[victim] = "?!";
        std::string rebuilt;
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i)
                rebuilt += ',';
            rebuilt += fields[i];
        }
        line = rebuilt;
    }
    return buf.join();
}

StatusOr<std::string>
dupLines(const std::string &in, const CorruptSpec &spec, Rng &rng)
{
    LineBuffer buf(in);
    if (buf.lines.size() <= kCsvHeaderLines) {
        return Status::invalidArgument(
            "no record lines to duplicate after the CSV header");
    }
    for (std::size_t e = 0; e < spec.count; ++e) {
        std::size_t i = pickRecordLine(buf, rng);
        buf.lines.insert(buf.lines.begin() +
                             static_cast<std::ptrdiff_t>(i),
                         buf.lines[i]);
    }
    return buf.join();
}

StatusOr<std::string>
reorderLines(const std::string &in, const CorruptSpec &spec, Rng &rng)
{
    LineBuffer buf(in);
    if (buf.lines.size() < kCsvHeaderLines + 2) {
        return Status::invalidArgument(
            "need at least two record lines to reorder");
    }
    for (std::size_t e = 0; e < spec.count; ++e) {
        std::size_t i = pickRecordLine(buf, rng);
        std::size_t j = pickRecordLine(buf, rng);
        std::swap(buf.lines[i], buf.lines[j]);
    }
    return buf.join();
}

} // anonymous namespace

const char *
corruptModeName(CorruptMode mode)
{
    switch (mode) {
      case CorruptMode::kTruncate: return "truncate";
      case CorruptMode::kBitFlip: return "bitflip";
      case CorruptMode::kFieldGarbage: return "garbage";
      case CorruptMode::kDupTimestamp: return "dup";
      case CorruptMode::kReorder: return "reorder";
    }
    return "unknown";
}

StatusOr<CorruptMode>
parseCorruptMode(std::string_view name)
{
    if (name == "truncate")
        return CorruptMode::kTruncate;
    if (name == "bitflip")
        return CorruptMode::kBitFlip;
    if (name == "garbage")
        return CorruptMode::kFieldGarbage;
    if (name == "dup")
        return CorruptMode::kDupTimestamp;
    if (name == "reorder")
        return CorruptMode::kReorder;
    return Status::invalidArgument(
        "unknown corrupt mode '" + std::string(name) +
        "' (want truncate|bitflip|garbage|dup|reorder)");
}

StatusOr<std::string>
corruptBuffer(const std::string &in, const CorruptSpec &spec)
{
    const bool byte_mode = spec.mode == CorruptMode::kTruncate ||
                           spec.mode == CorruptMode::kBitFlip;
    if (!byte_mode && in.compare(0, kMsBinaryMagic.size(),
                                 kMsBinaryMagic.data(),
                                 kMsBinaryMagic.size()) == 0) {
        return Status::invalidArgument(
            std::string("mode '") + corruptModeName(spec.mode) +
            "' edits CSV lines and cannot damage a binary DLWMS1 "
            "trace (use truncate or bitflip)");
    }
    Rng rng(spec.seed);
    switch (spec.mode) {
      case CorruptMode::kTruncate:
        return truncateBytes(in, spec, rng);
      case CorruptMode::kBitFlip:
        return flipBits(in, spec, rng);
      case CorruptMode::kFieldGarbage:
        return garbleFields(in, spec, rng);
      case CorruptMode::kDupTimestamp:
        return dupLines(in, spec, rng);
      case CorruptMode::kReorder:
        return reorderLines(in, spec, rng);
    }
    return Status::invalidArgument("unknown corrupt mode");
}

Status
corruptFile(const std::string &in_path, const std::string &out_path,
            const CorruptSpec &spec)
{
    std::ifstream is(in_path, std::ios::binary);
    if (!is) {
        return Status::ioError("cannot open '" + in_path +
                               "' for reading");
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad()) {
        return Status::ioError("I/O error while reading '" + in_path +
                               "'");
    }

    StatusOr<std::string> damaged = corruptBuffer(buf.str(), spec);
    if (!damaged.ok()) {
        Status e = damaged.status();
        return e.withContext("corrupting '" + in_path + "'");
    }

    std::ofstream os(out_path, std::ios::binary);
    if (!os) {
        return Status::ioError("cannot open '" + out_path +
                               "' for writing");
    }
    os << damaged.value();
    if (!os) {
        return Status::ioError("I/O error while writing '" + out_path +
                               "'");
    }
    return Status();
}

} // namespace trace
} // namespace dlw
