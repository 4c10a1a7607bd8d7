#include "net/wire.hh"

#include <cstring>
#include <sstream>

#include "common/strutil.hh"

namespace dlw
{
namespace net
{

const char *
streamFormatName(StreamFormat f)
{
    return f == StreamFormat::kCsv ? "csv" : "bin";
}

bool
isIdToken(std::string_view s, std::size_t max_bytes)
{
    if (s.empty() || s.size() > max_bytes)
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

Status
parseStreamHello(const std::string &line, StreamHello &out)
{
    std::string_view f[5];
    const std::size_t n = splitFields(trimView(line), ' ', f, 5);
    if (f[0] != kHelloMagic)
        return Status::invalidArgument("not a dlw stream hello");
    if (n < 2 || n > 5) {
        return Status::invalidArgument(
            "malformed hello (want 'DLWS1 <csv|bin> "
            "[tenant [class [trace]]]')");
    }
    if (f[1] == "csv") {
        out.format = StreamFormat::kCsv;
    } else if (f[1] == "bin") {
        out.format = StreamFormat::kBin;
    } else {
        return Status::invalidArgument("unknown stream format '" +
                                       std::string(f[1]) + "' (csv|bin)");
    }
    out.tenant = "anon";
    out.klass = qos::WorkClass::kInteractive;
    out.trace_id.clear();
    if (n >= 3) {
        if (!isIdToken(f[2])) {
            return Status::invalidArgument(
                "bad tenant id (want 1-64 of [A-Za-z0-9._-])");
        }
        out.tenant = std::string(f[2]);
    }
    if (n >= 4 && !qos::parseWorkClass(std::string(f[3]), out.klass)) {
        return Status::invalidArgument(
            "unknown workload class '" + std::string(f[3]) +
            "' (interactive|bulk|background)");
    }
    if (n == 5) {
        if (!isIdToken(f[4])) {
            return Status::invalidArgument(
                "bad trace id (want 1-64 of [A-Za-z0-9._-])");
        }
        out.trace_id = std::string(f[4]);
    }
    return Status();
}

std::string
renderStreamHello(StreamFormat format, const std::string &tenant,
                  qos::WorkClass klass, const std::string &trace_id)
{
    std::string s = kHelloMagic;
    s += ' ';
    s += streamFormatName(format);
    const bool tagged = klass != qos::WorkClass::kInteractive;
    const bool traced = !trace_id.empty();
    if (!tenant.empty() || tagged || traced) {
        s += ' ';
        // The class and trace fields are positional, so an empty
        // tenant must still occupy its slot when either follows.
        s += tenant.empty() ? "anon" : tenant;
    }
    if (tagged || traced) {
        s += ' ';
        s += qos::workClassName(klass);
    }
    if (traced) {
        s += ' ';
        s += trace_id;
    }
    s += '\n';
    return s;
}

std::string
renderStreamAck(const std::string &session_id)
{
    std::string s = kHelloMagic;
    s += " ok ";
    s += session_id;
    s += '\n';
    return s;
}

std::string
renderStreamAck(const std::string &session_id,
                std::uint64_t server_ts_ns)
{
    std::string s = kHelloMagic;
    s += " ok ";
    s += session_id;
    s += ' ';
    s += std::to_string(server_ts_ns);
    s += '\n';
    return s;
}

std::string
renderReportOk(std::size_t report_bytes)
{
    std::ostringstream os;
    os << kReportMagic << " ok " << report_bytes << '\n';
    return os.str();
}

std::string
renderReportError(const std::string &message)
{
    // The message rides on one line; newlines would break framing.
    std::string flat = message;
    for (char &c : flat) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    std::string s = kReportMagic;
    s += " error ";
    s += flat;
    s += '\n';
    return s;
}

void
appendFrame(std::string &out, const char *data, std::size_t n)
{
    const auto len = static_cast<std::uint32_t>(n);
    char hdr[4] = {static_cast<char>(len & 0xff),
                   static_cast<char>((len >> 8) & 0xff),
                   static_cast<char>((len >> 16) & 0xff),
                   static_cast<char>((len >> 24) & 0xff)};
    out.append(hdr, sizeof(hdr));
    out.append(data, n);
}

void
appendEndFrame(std::string &out)
{
    const char hdr[4] = {0, 0, 0, 0};
    out.append(hdr, sizeof(hdr));
}

StreamDecoder::StreamDecoder(StreamFormat format,
                             std::size_t max_line_bytes)
    : format_(format), max_line_bytes_(max_line_bytes)
{
}

Status
StreamDecoder::drain(ByteQueue &in)
{
    if (done_ && !in.empty())
        return Status::invalidArgument("bytes after end-of-stream");
    return format_ == StreamFormat::kCsv ? drainCsv(in)
                                         : drainBin(in);
}

Status
StreamDecoder::drainCsv(ByteQueue &in)
{
    // Lines are decoded in place as views into `in`; the consumed
    // prefix is dropped once, after the last complete line.
    const char *const base = in.data();
    const std::size_t size = in.size();
    std::size_t pos = 0;
    Status s;
    while (s.ok()) {
        const void *nl = std::memchr(base + pos, '\n', size - pos);
        if (nl == nullptr)
            break;
        const auto at =
            static_cast<std::size_t>(static_cast<const char *>(nl) - base);
        const std::string_view line(base + pos, at - pos);
        pos = at + 1;
        s = decodeCsvLine(line);
    }
    in.consume(pos);
    if (!s.ok())
        return s;
    if (in.size() > max_line_bytes_) {
        return Status::invalidArgument(
            "oversized CSV line (connection buffer budget exceeded)");
    }
    return Status();
}

Status
StreamDecoder::decodeCsvLine(std::string_view line)
{
    if (!saw_header_line_) {
        Status s = trace::parseMsCsvHeaderLine(line, header_);
        if (!s.ok())
            return s;
        saw_header_line_ = true;
        header_ready_ = true;
        return Status();
    }
    if (!saw_column_line_) {
        saw_column_line_ = true;
        return Status();
    }
    const std::string_view t = trimView(line);
    if (t.empty())
        return Status();
    trace::Request r;
    trace::MsRecordParse p =
        trace::parseMsCsvRecordLine(t, /*clamp=*/false, r);
    if (!p.why.empty()) {
        std::ostringstream os;
        os << "record " << records_ << ": " << p.why;
        return Status::corruptData(os.str());
    }
    pending_.push_back(r);
    ++records_;
    return Status();
}

Status
StreamDecoder::drainBin(ByteQueue &in)
{
    for (;;) {
        if (saw_end_frame_) {
            if (!in.empty()) {
                return Status::invalidArgument(
                    "bytes after the end-of-stream frame");
            }
            return Status();
        }
        if (!have_frame_len_) {
            if (in.size() < 4)
                return Status();
            std::uint32_t len = 0;
            std::memcpy(&len, in.data(), 4);
            in.consume(4);
            if (len > kMaxFrameBytes) {
                std::ostringstream os;
                os << "oversized frame (" << len << " > "
                   << kMaxFrameBytes << " bytes)";
                return Status::invalidArgument(os.str());
            }
            frame_len_ = len;
            have_frame_len_ = true;
        }
        if (frame_len_ == 0) {
            saw_end_frame_ = true;
            have_frame_len_ = false;
            Status s = decodeBinPayload();
            if (!s.ok())
                return s;
            if (!header_ready_ || records_ != expected_records_ ||
                payload_.size() != 0) {
                std::ostringstream os;
                os << "truncated binary stream: " << records_
                   << " of " << expected_records_
                   << " records before the end frame";
                return Status::truncated(os.str());
            }
            done_ = true;
            continue;
        }
        if (in.size() < frame_len_) {
            // Partial frame: wait for more bytes (the frame length
            // itself is already capped, so buffering it is bounded).
            return Status();
        }
        payload_.append(in.data(), frame_len_);
        in.consume(frame_len_);
        have_frame_len_ = false;
        Status s = decodeBinPayload();
        if (!s.ok())
            return s;
    }
}

Status
StreamDecoder::decodeBinPayload()
{
    if (!header_ready_) {
        std::size_t need = 0;
        Status s = trace::parseMsBinaryHeader(
            std::string_view(payload_.data(), payload_.size()),
            /*at_end=*/false, header_, expected_records_, need);
        if (!s.ok() || payload_.size() < need)
            return s;
        payload_.consume(need);
        header_ready_ = true;
    }
    while (payload_.size() >= sizeof(trace::MsRawRecord) &&
           records_ < expected_records_) {
        trace::MsRawRecord raw;
        std::memcpy(&raw, payload_.data(), sizeof(raw));
        payload_.consume(sizeof(raw));
        trace::Request r;
        trace::MsRecordParse p =
            trace::decodeMsRawRecord(raw, /*clamp=*/false, r);
        if (!p.why.empty()) {
            std::ostringstream os;
            os << p.why << " at record " << records_;
            return Status::corruptData(os.str());
        }
        pending_.push_back(r);
        ++records_;
    }
    if (records_ == expected_records_ && header_ready_ &&
        payload_.size() != 0) {
        return Status::corruptData(
            "trailing bytes after the last binary record");
    }
    return Status();
}

Status
StreamDecoder::endOfInput()
{
    if (format_ == StreamFormat::kCsv) {
        if (!saw_header_line_) {
            return Status::truncated(
                "connection closed before the ms-trace header");
        }
        done_ = true;
        return Status();
    }
    if (!done_) {
        std::ostringstream os;
        os << "connection closed mid-stream (" << records_
           << " records, no end frame)";
        return Status::truncated(os.str());
    }
    return Status();
}

bool
StreamDecoder::take(trace::RequestBatch &batch)
{
    batch.clear();
    const std::size_t avail = pending_.size() - pending_head_;
    if (avail == 0 || (!done_ && avail < batch.capacity())) {
        if (pending_head_ != 0 && pending_head_ == pending_.size()) {
            pending_.clear();
            pending_head_ = 0;
        }
        return false;
    }
    const std::size_t n = std::min(avail, batch.capacity());
    for (std::size_t i = 0; i < n; ++i)
        batch.append(pending_[pending_head_ + i]);
    pending_head_ += n;
    if (pending_head_ == pending_.size()) {
        pending_.clear();
        pending_head_ = 0;
    }
    return true;
}

void
StreamDecoder::saveState(BinEnc &enc) const
{
    enc.u8(format_ == StreamFormat::kBin ? 1 : 0);
    enc.u64(max_line_bytes_);
    enc.u8(saw_header_line_ ? 1 : 0);
    enc.u8(saw_column_line_ ? 1 : 0);
    enc.bytes(payload_.data(), payload_.size());
    enc.u8(have_frame_len_ ? 1 : 0);
    enc.u32(frame_len_);
    enc.u8(saw_end_frame_ ? 1 : 0);
    enc.u64(expected_records_);
    enc.str(header_.drive_id);
    enc.i64(header_.start);
    enc.i64(header_.duration);
    enc.u8(header_ready_ ? 1 : 0);
    enc.u8(done_ ? 1 : 0);
    enc.u64(records_);
    // Undelivered requests only; the consumed prefix is dropped.
    enc.u64(pending_.size() - pending_head_);
    for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
        const trace::Request &r = pending_[i];
        enc.i64(r.arrival);
        enc.u64(r.lba);
        enc.u32(r.blocks);
        enc.u8(static_cast<std::uint8_t>(r.op));
    }
}

bool
StreamDecoder::loadState(BinDec &dec)
{
    const std::uint8_t format = dec.u8();
    const std::uint64_t max_line = dec.u64();
    if (!dec.ok() || format > 1 || max_line == 0)
        return false;
    format_ = format ? StreamFormat::kBin : StreamFormat::kCsv;
    max_line_bytes_ = static_cast<std::size_t>(max_line);
    saw_header_line_ = dec.u8() != 0;
    saw_column_line_ = dec.u8() != 0;
    const std::string payload = dec.str();
    payload_.clear();
    payload_.append(payload);
    have_frame_len_ = dec.u8() != 0;
    frame_len_ = dec.u32();
    saw_end_frame_ = dec.u8() != 0;
    expected_records_ = dec.u64();
    header_.drive_id = dec.str();
    header_.start = dec.i64();
    header_.duration = dec.i64();
    header_ready_ = dec.u8() != 0;
    done_ = dec.u8() != 0;
    records_ = dec.u64();
    const std::uint64_t n_pending = dec.u64();
    // 21 bytes per serialized request: bound before allocating.
    if (!dec.ok() || n_pending * 21 > dec.remaining())
        return false;
    pending_.clear();
    pending_head_ = 0;
    pending_.reserve(static_cast<std::size_t>(n_pending));
    for (std::uint64_t i = 0; i < n_pending; ++i) {
        trace::Request r;
        r.arrival = dec.i64();
        r.lba = dec.u64();
        r.blocks = dec.u32();
        r.op = static_cast<trace::Op>(dec.u8());
        pending_.push_back(r);
    }
    return dec.ok();
}

} // namespace net
} // namespace dlw
