/**
 * @file
 * Streaming ms-trace file decoders: CSV and binary sources that
 * deliver a file chunk-by-chunk instead of materializing it.
 *
 * These are the file-backed implementations of trace::RequestSource.
 * The header (drive id, observation window) is decoded eagerly by the
 * open*() factory — header corruption is never recoverable and fails
 * the open — and the records are decoded lazily, one RequestBatch per
 * next() call, under the caller's corrupt-record policy.  Peak decode
 * memory is O(batch), not O(file).
 *
 * The whole-trace readers in trace/csvio.hh and trace/binio.hh are
 * thin drains over these sources, so there is exactly one decode
 * implementation per format and the streaming path is byte-for-byte
 * the same parse the whole-trace path performs.
 */

#ifndef DLW_TRACE_STREAM_HH
#define DLW_TRACE_STREAM_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.hh"
#include "trace/gate.hh"
#include "trace/ingest.hh"
#include "trace/source.hh"

namespace dlw
{
namespace trace
{

/**
 * Base of the file-backed sources: metadata, policy gate, terminal
 * status, and the ingest.* metrics scope (flushed on destruction,
 * like the whole-trace readers).
 */
class FileSource : public RequestSource
{
  public:
    const std::string &driveId() const override { return drive_id_; }

    Tick start() const override { return start_; }

    Tick duration() const override { return duration_; }

    Status
    status() const override
    {
        if (gate_.status.ok() || context_.empty())
            return gate_.status;
        Status s = gate_.status;
        return s.withContext(context_);
    }

    bool
    next(RequestBatch &batch) final
    {
        batch.clear();
        batch.setTag(tag_);
        if (done_)
            return false;
        done_ = !fill(batch);
        if (!gate_.status.ok() || batch.empty())
            return false;
        noteBatchDecoded(batch);
        return true;
    }

    /** Ingestion counters accumulated so far. */
    const IngestStats &stats() const { return gate_.st; }

    /**
     * Context frame ("reading '<path>'") prepended to mid-stream
     * errors; the path factories set it so streaming failures name
     * their file like the whole-trace readers do.
     */
    void setContext(std::string ctx) { context_ = std::move(ctx); }

  protected:
    FileSource(const IngestOptions &opts, std::string drive_id,
               Tick start, Tick duration,
               std::unique_ptr<std::istream> owned, std::istream &is)
        : drive_id_(std::move(drive_id)), start_(start),
          duration_(duration), opts_(opts), owned_(std::move(owned)),
          is_(is), gate_{opts_, {}, {}}, obs_scope_(gate_.st)
    {
    }

    /**
     * Decode records into the cleared `batch` until it is full, the
     * input ends or the gate stops the read.
     *
     * @return False once no further record can follow.
     */
    virtual bool fill(RequestBatch &batch) = 0;

    std::string drive_id_;
    Tick start_ = 0;
    Tick duration_ = 0;
    IngestOptions opts_;
    std::unique_ptr<std::istream> owned_; ///< set for path opens
    std::istream &is_;
    Gate gate_;
    IngestMetricsScope obs_scope_;
    std::string context_;
    bool done_ = false;
};

/**
 * Open a streaming CSV decoder over a caller-owned stream (which
 * must outlive the source) or a file path.  Fails on a bad or
 * truncated header.
 */
StatusOr<std::unique_ptr<FileSource>> openMsCsvSource(
    std::istream &is, const IngestOptions &opts);
StatusOr<std::unique_ptr<FileSource>> openMsCsvSource(
    const std::string &path, const IngestOptions &opts);

/** Open a streaming binary decoder (stream or path). */
StatusOr<std::unique_ptr<FileSource>> openMsBinarySource(
    std::istream &is, const IngestOptions &opts);
StatusOr<std::unique_ptr<FileSource>> openMsBinarySource(
    const std::string &path, const IngestOptions &opts);

/**
 * Drain a freshly opened source into a whole trace, propagating the
 * open error verbatim when there is no source.  The whole-trace
 * readers in csvio/binio are this drain over the streaming decoders,
 * so both paths share one decode implementation byte for byte.  On
 * any failure `stats` (when given) holds the counters accumulated
 * before the error.
 */
StatusOr<MsTrace> drainMsSource(
    StatusOr<std::unique_ptr<FileSource>> src, IngestStats *stats);

// ---------------------------------------------------------------------------
// The ms-trace wire grammar, exported so the network framing layer
// (src/net) decodes exactly the bytes the file decoders decode — one
// record codec per format, whether it arrives from a file or a
// socket.

/** Stream metadata carried by a ms-trace header (CSV or binary). */
struct MsStreamHeader
{
    std::string drive_id;
    Tick start = 0;
    Tick duration = 0;
};

/** Parse a `# dlw-ms-v1,<id>,<start>,<duration>` header line. */
Status parseMsCsvHeaderLine(std::string_view line, MsStreamHeader &out);

/**
 * Outcome of decoding one record (CSV line or raw binary record).
 * `why` is the bare corruption reason; callers decorate it with
 * their own position frame (line number, record index).
 */
struct MsRecordParse
{
    std::string why;      ///< empty for a clean parse
    bool clamped = false; ///< repaired under the clamp policy

};

/**
 * Parse one trimmed, non-empty CSV record line
 * (`arrival,lba,blocks,op`) in place: the fields are scanned as views
 * and nothing is allocated unless the line is corrupt.  `clamp`
 * enables the best-effort repairs of RecordPolicy::kBestEffortClamp
 * (lowercase ops, zero-length requests).  Fields of `out` are written
 * in column order, each only once it parsed.
 */
MsRecordParse parseMsCsvRecordLine(std::string_view trimmed, bool clamp,
                                   Request &out);

/** On-wire binary request record, explicitly padded to 24 bytes. */
struct MsRawRecord
{
    std::int64_t arrival;
    std::uint64_t lba;
    std::uint32_t blocks;
    std::uint8_t op;
    std::uint8_t pad[3];
};
static_assert(sizeof(MsRawRecord) == 24, "raw record layout changed");

/** Magic prefix of a DLWMS1 binary ms trace. */
extern const std::array<char, 8> kMsBinaryMagic;

/**
 * Parse the DLWMS1 header at the front of `bytes`, for the file
 * decoder and the wire decoder alike.  `need` is set to the header
 * size as far as `bytes` shows it: 12 until the drive-id length is
 * in, then the whole header.  While `bytes` is shorter than `need`
 * the header is incomplete, which is OK unless `at_end` says no more
 * bytes will come; then it is the truncation error.  `out` and
 * `count` are filled once the header is complete.
 */
Status parseMsBinaryHeader(std::string_view bytes, bool at_end,
                           MsStreamHeader &out, std::uint64_t &count,
                           std::size_t &need);

/** Validate (and under `clamp`, repair) one raw binary record. */
MsRecordParse decodeMsRawRecord(const MsRawRecord &raw, bool clamp,
                                Request &out);

/**
 * Open a streaming decoder picked by file extension (.csv or .bin).
 * SPC traces are not streamable — their arrivals need a global sort —
 * so .spc returns InvalidArgument; materialize those via readSpc().
 */
StatusOr<std::unique_ptr<FileSource>> openMsSource(
    const std::string &path, const IngestOptions &opts);

/**
 * Read a whole ms trace picked by file extension: .csv and .bin
 * drain their streaming decoders, .spc goes through readSpc() (the
 * path doubles as drive id).  Any other extension is
 * InvalidArgument.
 */
StatusOr<MsTrace> readMsFile(const std::string &path,
                             const IngestOptions &opts,
                             IngestStats *stats = nullptr);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_STREAM_HH
