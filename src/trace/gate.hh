/**
 * @file
 * The one ingest path under every trace decoder.
 *
 * Internal header.  Every decoder (the ms CSV and DLWMS1 sources, the
 * hour, lifetime and SPC readers) opens its file with openTraceFile(),
 * splits text with LineReader, and passes each record through
 * Gate::admit(), the only place the RecordPolicy is applied and the
 * IngestStats counters move.  A decoder decides what is corrupt and
 * how a repair looks; the gate decides what that means.
 */

#ifndef DLW_TRACE_GATE_HH
#define DLW_TRACE_GATE_HH

#include <cstring>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "common/strutil.hh"
#include "trace/ingest.hh"

namespace dlw
{
namespace trace
{

/** Read size of the line reader: it reads its input in chunks of this. */
constexpr std::size_t kCsvChunkBytes = 64 * 1024;

/** Reason text of the injected trace.read.record fault. */
inline constexpr const char *kInjectedRecordFault =
    "injected fault at trace.read.record";

/**
 * The line splitter of every text decoder.  Reads the stream
 * kCsvChunkBytes at a time and hands out lines as views into the
 * chunk, found with memchr, with getline's semantics: the view
 * excludes the '\n', a last line without one still counts, and
 * nothing follows a final '\n'.  A line longer than the buffer grows
 * it.
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

/** What the gate made of one record. */
enum class Admit
{
    kKeep, ///< clean or repaired: deliver it
    kSkip, ///< corrupt: drop it and read on
    kStop, ///< corrupt under kAbort: stop with Gate::status
};

/**
 * Corrupt-record policy gate: one per read, holding its IngestStats.
 */
struct Gate
{
    const IngestOptions &opts;
    IngestStats st;
    /** Why the read stopped, once admit() or truncated() said kStop. */
    Status status;

    bool
    clampMode() const
    {
        return opts.policy == RecordPolicy::kBestEffortClamp;
    }

    /**
     * Apply the policy to one record of `bytes` input bytes.
     *
     * @param why     Framed corruption reason; empty for a clean parse.
     * @param clamped The decoder repaired the record (clamp policy).
     */
    Admit
    admit(std::string &&why, bool clamped, std::size_t bytes)
    {
        if (!why.empty()) {
            st.noteError(why, opts.max_error_samples);
            if (opts.policy == RecordPolicy::kAbort) {
                status = Status::corruptData(std::move(why));
                return Admit::kStop;
            }
            if (!clamped) {
                ++st.records_skipped;
                return Admit::kSkip;
            }
            ++st.records_clamped;
        }
        ++st.records_read;
        st.bytes_read += bytes;
        if (st.errors != 0)
            st.bytes_recovered += bytes;
        return Admit::kKeep;
    }

    /**
     * The input ended `lost` records early.  Under kAbort the read
     * stops with a Truncated status; otherwise the lost records count
     * as skipped and the intact prefix stands.
     */
    Admit
    truncated(std::string &&why, std::uint64_t lost)
    {
        st.noteError(why, opts.max_error_samples);
        if (opts.policy == RecordPolicy::kAbort) {
            status = Status::truncated(std::move(why));
            return Admit::kStop;
        }
        st.records_skipped += lost;
        return Admit::kSkip;
    }
};

/** "line <n>: <what>", the position frame of text records. */
std::string atLine(std::size_t lineno, std::string_view what,
                   std::string_view unit = "line");

/**
 * Open a trace file for reading under the "ingest.open" span and the
 * trace.open fault point.  A failure names the path in its text.
 */
Status openTraceFile(const std::string &path, std::ifstream &is);

/** The "reading '<path>'" frame of errors met inside a file. */
inline std::string
readingContext(const std::string &path)
{
    return "reading '" + path + "'";
}

/**
 * Open `path` and hand the stream to `read`, framing whatever `read`
 * fails with by readingContext().  `read` returns a StatusOr.
 */
template <typename Read>
auto
readTraceFile(const std::string &path, Read &&read)
    -> decltype(read(std::declval<std::ifstream &>()))
{
    std::ifstream is;
    Status s = openTraceFile(path, is);
    if (!s.ok())
        return s;
    auto r = read(is);
    if (!r.ok()) {
        Status e = r.status();
        return e.withContext(readingContext(path));
    }
    return r;
}

/**
 * Read the two header lines of a dlw CSV trace: `parse` vets the
 * trimmed `# dlw-<kind>-v1,...` format line, then a column-name line
 * must follow.
 */
template <typename Parse>
Status
readCsvHead(LineReader &lines, const char *kind, Parse &&parse)
{
    std::string_view line;
    if (!lines.next(line)) {
        return Status::truncated(std::string("empty ") + kind +
                                 "-trace CSV");
    }
    const std::string_view t = trimView(line);
    if (!parse(t)) {
        return Status::corruptData(std::string("bad ") + kind +
                                   "-trace header '" + std::string(t) +
                                   "'");
    }
    if (!lines.next(line))
        return Status::truncated("truncated CSV: missing column header");
    return Status();
}

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_GATE_HH
