#include "trace/stream.hh"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <utility>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "trace/spc.hh"

namespace dlw
{
namespace trace
{

namespace
{

/**
 * Streaming decoder for the dlw-ms-v1 CSV format.  One line/parse
 * loop per next() call, stopping at batch capacity; each line is
 * parsed in place, so steady-state decoding allocates nothing.
 * Policies, stats and error text are the whole-file reader's, since
 * that reader is a drain over this source.
 */
class MsCsvSource final : public FileSource
{
  public:
    MsCsvSource(const IngestOptions &opts, std::string drive_id,
                Tick start, Tick duration,
                std::unique_ptr<std::istream> owned, std::istream &is,
                LineReader lines)
        : FileSource(opts, std::move(drive_id), start, duration,
                     std::move(owned), is),
          lines_(std::move(lines))
    {
    }

  private:
    bool
    fill(RequestBatch &batch) override
    {
        const bool clamp = gate_.clampMode();
        std::string_view line;
        while (!batch.full() && lines_.next(line)) {
            ++lineno_;
            const std::string_view t = trimView(line);
            if (t.empty())
                continue;
            Request r;
            MsRecordParse p = FAULT_POINT("trace.read.record")
                                  ? MsRecordParse{kInjectedRecordFault}
                                  : parseMsCsvRecordLine(t, clamp, r);
            if (!p.why.empty())
                p.why = atLine(lineno_, p.why);
            const Admit a =
                gate_.admit(std::move(p.why), p.clamped, line.size() + 1);
            if (a == Admit::kStop)
                return false;
            if (a == Admit::kKeep)
                batch.append(r);
        }
        return batch.full();
    }

    LineReader lines_;
    std::size_t lineno_ = 2; ///< two header lines already consumed
};

/**
 * Streaming decoder for the DLWMS1 binary format.  The record count
 * comes from the header, so end-of-stream and truncation are
 * distinguishable; a truncated tail under the recovering policies
 * keeps the intact prefix, exactly like the whole-file reader.
 */
class MsBinarySource final : public FileSource
{
  public:
    MsBinarySource(const IngestOptions &opts, std::string drive_id,
                   Tick start, Tick duration, std::uint64_t count,
                   std::unique_ptr<std::istream> owned,
                   std::istream &is)
        : FileSource(opts, std::move(drive_id), start, duration,
                     std::move(owned), is),
          count_(count)
    {
    }

  private:
    bool
    fill(RequestBatch &batch) override
    {
        const bool clamp = gate_.clampMode();
        while (!batch.full() && i_ < count_) {
            MsRawRecord raw{};
            if (!is_.read(reinterpret_cast<char *>(&raw), sizeof(raw))) {
                std::string why = "truncated binary trace at record " +
                                  std::to_string(i_) + " of " +
                                  std::to_string(count_);
                if (gate_.truncated(std::move(why), count_ - i_) ==
                    Admit::kStop)
                    return false;
                i_ = count_;
                break;
            }
            const std::uint64_t rec = i_++;
            Request r;
            MsRecordParse p;
            if (FAULT_POINT("trace.read.record")) {
                p.why = std::string(kInjectedRecordFault) + " (record " +
                        std::to_string(rec) + ")";
            } else {
                p = decodeMsRawRecord(raw, clamp, r);
                if (!p.why.empty())
                    p.why += " at record " + std::to_string(rec);
            }
            const Admit a =
                gate_.admit(std::move(p.why), p.clamped, sizeof(raw));
            if (a == Admit::kStop)
                return false;
            if (a == Admit::kKeep)
                batch.append(r);
        }
        return i_ < count_;
    }

    std::uint64_t count_ = 0;
    std::uint64_t i_ = 0;
};

StatusOr<std::unique_ptr<FileSource>>
makeCsvSource(std::unique_ptr<std::istream> owned, std::istream &is,
              const IngestOptions &opts)
{
    LineReader lines(is);
    MsStreamHeader head;
    Status s = readCsvHead(lines, "ms", [&](std::string_view t) {
        return parseMsCsvHeaderLine(t, head).ok();
    });
    if (!s.ok())
        return s;
    return std::unique_ptr<FileSource>(new MsCsvSource(
        opts, std::move(head.drive_id), head.start, head.duration,
        std::move(owned), is, std::move(lines)));
}

StatusOr<std::unique_ptr<FileSource>>
makeBinarySource(std::unique_ptr<std::istream> owned,
                 std::istream &is, const IngestOptions &opts)
{
    // The header is not policy-recoverable: without a trustworthy
    // record count and id there is nothing to resynchronize on.
    MsStreamHeader head;
    std::uint64_t count = 0;
    std::string bytes;
    for (std::size_t need = 12; bytes.size() < need;) {
        const std::size_t have = bytes.size();
        bytes.resize(need);
        is.read(bytes.data() + have,
                static_cast<std::streamsize>(need - have));
        bytes.resize(have + static_cast<std::size_t>(is.gcount()));
        Status s = parseMsBinaryHeader(bytes, bytes.size() < need, head,
                                       count, need);
        if (!s.ok())
            return s;
    }
    return std::unique_ptr<FileSource>(new MsBinarySource(
        opts, std::move(head.drive_id), head.start, head.duration, count,
        std::move(owned), is));
}

template <typename Make>
StatusOr<std::unique_ptr<FileSource>>
openFromPath(const std::string &path, const IngestOptions &opts,
             Make make)
{
    auto r = readTraceFile(path, [&](std::ifstream &is) {
        auto owned = std::make_unique<std::ifstream>(std::move(is));
        std::istream &in = *owned;
        return make(std::move(owned), in, opts);
    });
    if (r.ok())
        r.value()->setContext(readingContext(path));
    return r;
}

} // anonymous namespace

const std::array<char, 8> kMsBinaryMagic =
    {'D', 'L', 'W', 'M', 'S', '1', '\0', '\0'};

Status
parseMsBinaryHeader(std::string_view bytes, bool at_end,
                    MsStreamHeader &out, std::uint64_t &count,
                    std::size_t &need)
{
    // magic(8) + id_len(4), then the id, start(8), duration(8) and
    // count(8).
    const std::string_view magic(kMsBinaryMagic.data(),
                                 kMsBinaryMagic.size());
    need = 12;
    if (bytes.size() < need && !at_end)
        return Status();
    if (bytes.substr(0, 8) != magic)
        return Status::corruptData("not a dlw binary ms trace (bad magic)");
    if (bytes.size() < need) {
        return Status::truncated(
            "truncated binary trace while reading id length");
    }
    std::uint32_t id_len = 0;
    std::memcpy(&id_len, bytes.data() + 8, 4);
    if (id_len > 4096) {
        return Status::corruptData("implausible drive-id length " +
                                   std::to_string(id_len));
    }
    need = 12 + id_len + 24;
    if (bytes.size() < need) {
        if (!at_end)
            return Status();
        return Status::truncated(
            bytes.size() < 12 + id_len
                ? "truncated binary trace while reading drive id"
                : "truncated binary trace while reading header");
    }
    Tick start = 0, duration = 0;
    std::memcpy(&start, bytes.data() + 12 + id_len, 8);
    std::memcpy(&duration, bytes.data() + 12 + id_len + 8, 8);
    if (duration < 0)
        return Status::corruptData("negative duration in binary header");
    out.drive_id.assign(bytes.data() + 12, id_len);
    out.start = start;
    out.duration = duration;
    std::memcpy(&count, bytes.data() + 12 + id_len + 16, 8);
    return Status();
}

Status
parseMsCsvHeaderLine(std::string_view line, MsStreamHeader &out)
{
    const std::string_view t = trimView(line);
    std::string_view head[4];
    std::int64_t start = 0, duration = 0;
    if (splitFields(t, ',', head, 4) != 4 || head[0] != "# dlw-ms-v1" ||
        !tryParseInt(head[2], start) ||
        !tryParseInt(head[3], duration) || duration < 0) {
        return Status::corruptData("bad ms-trace header '" +
                                   std::string(t) + "'");
    }
    out.drive_id = std::string(head[1]);
    out.start = start;
    out.duration = duration;
    return Status();
}

MsRecordParse
parseMsCsvRecordLine(std::string_view trimmed, bool clamp, Request &out)
{
    // Error text quotes the trimmed field, as "<what> '<field>'".
    const auto quoted = [](const char *what, std::string_view field) {
        std::string s = what;
        s += " '";
        s += trimView(field);
        s += '\'';
        return s;
    };
    MsRecordParse p;
    std::string_view f[4];
    std::uint64_t blocks = 0;
    if (splitFields(trimmed, ',', f, 4) != 4) {
        p.why = "expected 4 fields";
    } else if (!tryParseInt(f[0], out.arrival)) {
        p.why = quoted("malformed arrival", f[0]);
    } else if (!tryParseUint(f[1], out.lba)) {
        p.why = quoted("malformed lba", f[1]);
    } else if (!tryParseUint(f[2], blocks)) {
        p.why = quoted("malformed blocks", f[2]);
    } else if (blocks > std::numeric_limits<BlockCount>::max()) {
        p.why = quoted("blocks out of range", f[2]);
    } else {
        out.blocks = static_cast<BlockCount>(blocks);
        const std::string_view op = trimView(f[3]);
        if (op == "R") {
            out.op = Op::Read;
        } else if (op == "W") {
            out.op = Op::Write;
        } else if (clamp && (op == "r" || op == "w")) {
            out.op = op == "r" ? Op::Read : Op::Write;
            p.clamped = true;
            p.why = quoted("lowercase op", op);
        } else {
            p.why = quoted("bad op", op);
        }
        if (p.why.empty() || p.clamped) {
            if (out.blocks == 0) {
                p.clamped = clamp;
                p.why = "zero-length request";
                if (clamp)
                    out.blocks = 1;
            }
        }
    }
    return p;
}

MsRecordParse
decodeMsRawRecord(const MsRawRecord &raw, bool clamp, Request &out)
{
    MsRecordParse p;
    MsRawRecord r = raw;
    if (r.op > 1) {
        p.why = "bad op byte";
        if (clamp) {
            r.op &= 1;
            p.clamped = true;
        }
    } else if (r.blocks == 0) {
        p.why = "zero-length request";
        if (clamp) {
            r.blocks = 1;
            p.clamped = true;
        }
    }
    out.arrival = r.arrival;
    out.lba = r.lba;
    out.blocks = r.blocks;
    out.op = static_cast<Op>(r.op & 1);
    return p;
}

StatusOr<std::unique_ptr<FileSource>>
openMsCsvSource(std::istream &is, const IngestOptions &opts)
{
    return makeCsvSource(nullptr, is, opts);
}

StatusOr<std::unique_ptr<FileSource>>
openMsCsvSource(const std::string &path, const IngestOptions &opts)
{
    return openFromPath(path, opts, makeCsvSource);
}

StatusOr<std::unique_ptr<FileSource>>
openMsBinarySource(std::istream &is, const IngestOptions &opts)
{
    return makeBinarySource(nullptr, is, opts);
}

StatusOr<std::unique_ptr<FileSource>>
openMsBinarySource(const std::string &path, const IngestOptions &opts)
{
    return openFromPath(path, opts, makeBinarySource);
}

StatusOr<MsTrace>
drainMsSource(StatusOr<std::unique_ptr<FileSource>> src,
              IngestStats *stats)
{
    if (!src.ok()) {
        if (stats)
            *stats = IngestStats{};
        return src.status();
    }
    FileSource &source = *src.value();
    MsTrace trace;
    Status s = drainToTrace(source, trace);
    if (stats)
        *stats = source.stats();
    if (!s.ok())
        return s;
    return trace;
}

StatusOr<std::unique_ptr<FileSource>>
openMsSource(const std::string &path, const IngestOptions &opts)
{
    if (endsWith(path, ".bin"))
        return openMsBinarySource(path, opts);
    if (endsWith(path, ".csv"))
        return openMsCsvSource(path, opts);
    return Status::invalidArgument(
        "no streaming decoder for '" + path +
        "' (expected .csv or .bin; SPC traces need a global sort)");
}

StatusOr<MsTrace>
readMsFile(const std::string &path, const IngestOptions &opts,
           IngestStats *stats)
{
    if (endsWith(path, ".spc"))
        return readSpc(path, path, opts, stats);
    return drainMsSource(openMsSource(path, opts), stats);
}

} // namespace trace
} // namespace dlw
