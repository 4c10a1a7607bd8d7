#include "trace/stream.hh"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/strutil.hh"
#include "obs/span.hh"
#include "trace/spc.hh"

namespace dlw
{
namespace trace
{

namespace
{

Status
openIn(const std::string &path, std::ifstream &is, bool binary)
{
    obs::ScopedSpan span("ingest.open");
    if (FAULT_POINT("trace.open")) {
        return Status::ioError("injected fault at trace.open on '" +
                               path + "'");
    }
    if (binary)
        is.open(path, std::ios::binary);
    else
        is.open(path);
    if (!is)
        return Status::ioError("cannot open '" + path + "' for reading");
    return Status();
}

std::string
atLine(std::size_t lineno, const std::string &what)
{
    std::ostringstream os;
    os << "line " << lineno << ": " << what;
    return os.str();
}

/**
 * The CSV decoder's line splitter.  Reads the stream kCsvChunkBytes
 * at a time and hands out lines as views into the chunk, found with
 * memchr, with std::getline's semantics: the view excludes the '\n',
 * a last line without one still counts, and nothing follows a final
 * '\n'.  A line longer than the buffer grows it.
 */
class LineReader
{
  public:
    /** A stream already in a failed state reads as empty. */
    explicit LineReader(std::istream &is)
        : buf_(is.rdbuf()), chunk_(kCsvChunkBytes), eof_(!is)
    {
    }

    /**
     * The next line, valid until the next call.
     *
     * @return False at end of input.
     */
    bool
    next(std::string_view &line)
    {
        for (;;) {
            const char *base = chunk_.data();
            const void *nl =
                std::memchr(base + begin_, '\n', end_ - begin_);
            if (nl != nullptr) {
                const auto at = static_cast<std::size_t>(
                    static_cast<const char *>(nl) - base);
                line = std::string_view(base + begin_, at - begin_);
                begin_ = at + 1;
                return true;
            }
            if (eof_) {
                if (begin_ == end_)
                    return false;
                line = std::string_view(base + begin_, end_ - begin_);
                begin_ = end_;
                return true;
            }
            refill();
        }
    }

  private:
    /** Move the partial line to the front and read behind it. */
    void
    refill()
    {
        std::memmove(chunk_.data(), chunk_.data() + begin_,
                     end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
        if (end_ == chunk_.size())
            chunk_.resize(2 * chunk_.size());
        const std::streamsize n = buf_->sgetn(
            chunk_.data() + end_,
            static_cast<std::streamsize>(chunk_.size() - end_));
        if (n <= 0)
            eof_ = true;
        else
            end_ += static_cast<std::size_t>(n);
    }

    std::streambuf *buf_;
    std::vector<char> chunk_;
    std::size_t begin_ = 0; ///< first unread byte
    std::size_t end_ = 0;   ///< one past the last buffered byte
    bool eof_;
};

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

    bool
    next(RequestBatch &batch) override
    {
        batch.clear();
        batch.setTag(tag_);
        if (done_)
            return false;

        const bool clamp = gate_.clampMode();
        std::string_view line;
        while (!batch.full() && lines_.next(line)) {
            ++lineno_;
            const std::string_view t = trimView(line);
            if (t.empty())
                continue;
            const std::size_t record_bytes = line.size() + 1;

            std::string why;
            bool was_clamped = false;
            Request r;
            if (FAULT_POINT("trace.read.record")) {
                why = atLine(lineno_,
                             "injected fault at trace.read.record");
            } else {
                MsRecordParse p = parseMsCsvRecordLine(t, clamp, r);
                was_clamped = p.clamped;
                if (!p.why.empty())
                    why = atLine(lineno_, p.why);
            }

            if (!why.empty()) {
                Status s = gate_.corrupt(why);
                if (!s.ok()) {
                    status_ = std::move(s);
                    done_ = true;
                    return false;
                }
                if (!was_clamped) {
                    gate_.skip();
                    continue;
                }
                gate_.clamped();
            }
            batch.append(r);
            gate_.accept(record_bytes);
        }

        if (!batch.full())
            done_ = true;
        if (batch.empty())
            return false;
        noteBatchDecoded(batch);
        return true;
    }

  private:
    LineReader lines_;
    std::size_t lineno_ = 2; ///< two header lines already consumed
};

template <typename T>
bool
readRaw(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return static_cast<bool>(is);
}

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

    bool
    next(RequestBatch &batch) override
    {
        batch.clear();
        batch.setTag(tag_);
        if (done_)
            return false;

        const bool clamp = gate_.clampMode();
        while (!batch.full() && i_ < count_) {
            MsRawRecord raw{};
            if (!readRaw(is_, raw)) {
                std::ostringstream os;
                os << "truncated binary trace at record " << i_
                   << " of " << count_;
                gate_.st.noteError(os.str(),
                                   opts_.max_error_samples);
                if (opts_.policy == RecordPolicy::kAbort) {
                    status_ = Status::truncated(os.str());
                    done_ = true;
                    return false;
                }
                // Keep the prefix: everything before the cut is
                // intact.
                gate_.st.records_skipped += count_ - i_;
                i_ = count_;
                break;
            }
            const std::uint64_t rec = i_++;

            std::string why;
            bool was_clamped = false;
            Request r;
            if (FAULT_POINT("trace.read.record")) {
                std::ostringstream os;
                os << "injected fault at trace.read.record (record "
                   << rec << ")";
                why = os.str();
            } else {
                MsRecordParse p = decodeMsRawRecord(raw, clamp, r);
                was_clamped = p.clamped;
                if (!p.why.empty()) {
                    std::ostringstream os;
                    os << p.why << " at record " << rec;
                    why = os.str();
                }
            }

            if (!why.empty()) {
                Status s = gate_.corrupt(why);
                if (!s.ok()) {
                    status_ = std::move(s);
                    done_ = true;
                    return false;
                }
                if (!was_clamped) {
                    gate_.skip();
                    continue;
                }
                gate_.clamped();
            }

            batch.append(r);
            gate_.accept(sizeof(MsRawRecord));
        }

        if (i_ >= count_)
            done_ = true;
        if (batch.empty())
            return false;
        noteBatchDecoded(batch);
        return true;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t i_ = 0;
};

StatusOr<std::unique_ptr<FileSource>>
makeCsvSource(std::unique_ptr<std::istream> owned, std::istream &is,
              const IngestOptions &opts)
{
    LineReader lines(is);
    std::string_view line;
    if (!lines.next(line))
        return Status::truncated("empty ms-trace CSV");
    MsStreamHeader head;
    Status hs = parseMsCsvHeaderLine(line, head);
    if (!hs.ok())
        return hs;
    if (!lines.next(line)) {
        return Status::truncated(
            "truncated CSV: missing column header");
    }
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
    std::array<char, 8> magic{};
    is.read(magic.data(), magic.size());
    if (!is || magic != kMsBinaryMagic) {
        return Status::corruptData(
            "not a dlw binary ms trace (bad magic)");
    }

    std::uint32_t id_len = 0;
    if (!readRaw(is, id_len)) {
        return Status::truncated(
            "truncated binary trace while reading id length");
    }
    if (id_len > 4096) {
        std::ostringstream os;
        os << "implausible drive-id length " << id_len;
        return Status::corruptData(os.str());
    }
    std::string id(id_len, '\0');
    is.read(id.data(), id_len);
    if (!is) {
        return Status::truncated(
            "truncated binary trace while reading drive id");
    }

    Tick start = 0, duration = 0;
    std::uint64_t count = 0;
    if (!readRaw(is, start) || !readRaw(is, duration) ||
        !readRaw(is, count)) {
        return Status::truncated(
            "truncated binary trace while reading header");
    }
    if (duration < 0) {
        return Status::corruptData(
            "negative duration in binary header");
    }
    return std::unique_ptr<FileSource>(
        new MsBinarySource(opts, std::move(id), start, duration,
                           count, std::move(owned), is));
}

StatusOr<std::unique_ptr<FileSource>>
openFromPath(const std::string &path, const IngestOptions &opts,
             bool binary)
{
    auto owned = std::make_unique<std::ifstream>();
    Status s = openIn(path, *owned, binary);
    if (!s.ok())
        return s;
    std::istream &is = *owned;
    auto r = binary ? makeBinarySource(std::move(owned), is, opts)
                    : makeCsvSource(std::move(owned), is, opts);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext("reading '" + path + "'");
    }
    r.value()->setContext("reading '" + path + "'");
    return r;
}

} // anonymous namespace

const std::array<char, 8> kMsBinaryMagic =
    {'D', 'L', 'W', 'M', 'S', '1', '\0', '\0'};

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
    return openFromPath(path, opts, /*binary=*/false);
}

StatusOr<std::unique_ptr<FileSource>>
openMsBinarySource(std::istream &is, const IngestOptions &opts)
{
    return makeBinarySource(nullptr, is, opts);
}

StatusOr<std::unique_ptr<FileSource>>
openMsBinarySource(const std::string &path, const IngestOptions &opts)
{
    return openFromPath(path, opts, /*binary=*/true);
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
