#include "daemon/session.hh"

#include <chrono>
#include <utility>

#include "obs/timeline.hh"

namespace dlw
{
namespace daemon
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
wallNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace

const char *
sessionStageName(SessionStage s)
{
    switch (s) {
    case SessionStage::kRead:
        return "read";
    case SessionStage::kDecode:
        return "decode";
    case SessionStage::kAdmit:
        return "admit";
    case SessionStage::kFold:
        return "fold";
    case SessionStage::kMerge:
        return "merge";
    }
    return "?";
}

obs::Histogram &
sessionStageHistogram(SessionStage s)
{
    static obs::Histogram &read = obs::histogram("daemon.stage.read_seconds", "s", "daemon", "socket-read latency per readable event");
    static obs::Histogram &decode = obs::histogram("daemon.stage.decode_seconds", "s", "daemon", "wire-decode latency per consumed chunk");
    static obs::Histogram &admit = obs::histogram("daemon.stage.admit_seconds", "s", "daemon", "QoS admission-decision latency per chunk");
    static obs::Histogram &fold = obs::histogram("daemon.stage.fold_seconds", "s", "daemon", "incremental accumulator-fold latency per chunk");
    static obs::Histogram &merge = obs::histogram("daemon.stage.merge_seconds", "s", "daemon", "final finish-and-render latency per session");
    switch (s) {
    case SessionStage::kRead:
        return read;
    case SessionStage::kDecode:
        return decode;
    case SessionStage::kAdmit:
        return admit;
    case SessionStage::kFold:
        return fold;
    case SessionStage::kMerge:
        return merge;
    }
    return merge;
}

void
StageStats::note(std::uint64_t ns)
{
    ++count;
    total_ns += ns;
    if (ns > max_ns)
        max_ns = ns;
    std::size_t b = 0;
    for (std::uint64_t v = ns; v > 1 && b + 1 < buckets.size(); v >>= 1)
        ++b;
    ++buckets[b];
}

double
StageStats::quantileNs(double q) const
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank >= count)
        rank = count - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (seen > rank) {
            // Geometric midpoint of [2^b, 2^(b+1)), capped at max.
            const double mid =
                static_cast<double>(std::uint64_t(1) << b) * 1.5;
            return mid < static_cast<double>(max_ns)
                ? mid
                : static_cast<double>(max_ns);
        }
    }
    return static_cast<double>(max_ns);
}

const char *
sessionStateName(SessionState s)
{
    switch (s) {
    case SessionState::kStreaming:
        return "streaming";
    case SessionState::kDone:
        return "done";
    case SessionState::kAborted:
        return "aborted";
    }
    return "?";
}

Session::Session(std::string id, std::string tenant,
                 net::StreamFormat format, qos::WorkClass klass,
                 std::string trace_id)
    : id_(std::move(id)), tenant_(std::move(tenant)),
      tag_{qos::internTenant(tenant_), klass}, format_(format),
      trace_id_(std::move(trace_id)),
      decoder_(format, net::kMaxFrameBytes)
{
    batch_.setTag(tag_);
    started_at_ms_ = wallNowMs();
    started_ns_ = steadyNowNs();
    internTraceNames();
}

void
Session::internTraceNames()
{
    if (trace_id_.empty())
        return;
    // One interning per traced session, never on the data path.
    const std::string p = "trace/" + trace_id_ + "/server.";
    tl_span_ = obs::internTimelineName(p + "session");
    tl_decode_ = obs::internTimelineName(p + "decode");
    tl_fold_ = obs::internTimelineName(p + "fold");
    tl_park_ = obs::internTimelineName(p + "park");
    tl_report_ = obs::internTimelineName(p + "report");
}

void
Session::noteStage(SessionStage st, std::uint64_t ns)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stages_[static_cast<std::size_t>(st)].note(ns);
    }
    sessionStageHistogram(st).record(static_cast<double>(ns) * 1e-9);
}

std::uint64_t
Session::durationMs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return durationMsLocked();
}

std::uint64_t
Session::recordsLocked() const
{
    // A restored done session has no accumulators left; its count
    // survives with the rendered result.
    return live_ != nullptr ? live_->requests() : final_records_;
}

std::uint64_t
Session::durationMsLocked() const
{
    if (final_duration_ms_ != 0 || state_ != SessionState::kStreaming)
        return final_duration_ms_;
    return (steadyNowNs() - started_ns_) / 1000000;
}

double
Session::recordsPerSLocked() const
{
    const std::uint64_t recs = recordsLocked();
    const std::uint64_t ms = durationMsLocked();
    if (recs == 0 || ms == 0)
        return 0.0;
    return static_cast<double>(recs) * 1000.0 /
           static_cast<double>(ms);
}

void
Session::writeSummaryLocked(JsonWriter &w, bool with_error) const
{
    w.key("session").str(id_)
        .key("tenant").str(tenant_)
        .key("class").str(qos::workClassName(tag_.klass))
        .key("state").str(sessionStateName(state_));
    if (!trace_id_.empty())
        w.key("trace").str(trace_id_);
    if (with_error && !error_.empty())
        w.key("error").str(error_);
    w.key("started_at_ms").num(started_at_ms_)
        .key("duration_ms").num(durationMsLocked())
        .key("records_per_s").fixed(recordsPerSLocked(), 1);
}

void
Session::writeListingEntry(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu_);
    w.beginObject();
    writeSummaryLocked(w, false);
    w.endObject();
}

Status
Session::consume(net::ByteQueue &in)
{
    const std::size_t before = in.size();
    if (tl_decode_ != nullptr)
        obs::emitBegin(tl_decode_);
    const std::uint64_t t0 = steadyNowNs();
    Status s = decoder_.drain(in);
    const std::uint64_t t1 = steadyNowNs();
    if (tl_decode_ != nullptr)
        obs::emitEnd(tl_decode_);
    noteStage(SessionStage::kDecode, t1 - t0);
    {
        std::lock_guard<std::mutex> lock(mu_);
        payload_bytes_ += before - in.size();
    }
    if (!s.ok()) {
        abort(s.message());
        return s;
    }
    s = foldPending();
    noteStage(SessionStage::kFold, steadyNowNs() - t1);
    if (!s.ok())
        abort(s.message());
    return s;
}

Status
Session::finishInput(net::ByteQueue &in)
{
    // A CSV file whose last record line has no trailing newline is
    // legal from disk (getline delivers it), so it must be legal
    // over the wire too: complete the line and drain it.
    if (format_ == net::StreamFormat::kCsv && !in.empty()) {
        in.append("\n", 1);
        Status s = consume(in);
        if (!s.ok())
            return s;
    }
    Status s = decoder_.endOfInput();
    if (!s.ok()) {
        abort(s.message());
        return s;
    }
    s = foldPending();
    if (!s.ok()) {
        abort(s.message());
        return s;
    }
    // A header-only stream is valid (an empty trace characterizes to
    // an empty report), but no header at all cannot reach here: the
    // decoder fails endOfInput() first.
    std::lock_guard<std::mutex> lock(mu_);
    if (live_ == nullptr) {
        live_ = std::make_unique<core::LiveCharacterization>(
            decoder_.header());
    }
    return Status();
}

void
Session::abort(const std::string &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == SessionState::kStreaming) {
        state_ = SessionState::kAborted;
        error_ = why;
    }
}

std::string
Session::finalReportText()
{
    const std::uint64_t t0 = steadyNowNs();
    std::string text;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!final_text_.empty())
            return final_text_; // restored (or refolded) done session
        const core::DriveCharacterization c = live_->finish();
        if (state_ == SessionState::kStreaming)
            state_ = SessionState::kDone;
        // Cache everything a restart needs to keep serving this
        // session: finish() consumed the accumulators, so this is
        // the last moment the result can be rendered.
        final_records_ = live_->requests();
        final_char_json_ = core::renderCharacterizationJson(c);
        final_text_ = c.render();
        final_duration_ms_ = (steadyNowNs() - started_ns_) / 1000000;
        if (final_duration_ms_ == 0)
            final_duration_ms_ = 1; // sub-ms sessions still rank
        text = final_text_;
    }
    noteStage(SessionStage::kMerge, steadyNowNs() - t0);
    return text;
}

std::string
Session::reportJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    writeSummaryLocked(w, true);
    w.key("stages").beginObject();
    for (std::size_t i = 0; i < kSessionStageCount; ++i) {
        const StageStats &st = stages_[i];
        if (st.count == 0)
            continue;
        w.key(sessionStageName(static_cast<SessionStage>(i)))
            .beginObject()
            .key("count").num(st.count)
            .key("mean_us").fixed(static_cast<double>(st.total_ns) /
                                  static_cast<double>(st.count) /
                                  1000.0, 3)
            .key("max_us").fixed(static_cast<double>(st.max_ns) /
                                 1000.0, 3)
            .key("p50_us").fixed(st.quantileNs(0.50) / 1000.0, 3)
            .key("p95_us").fixed(st.quantileNs(0.95) / 1000.0, 3)
            .key("p99_us").fixed(st.quantileNs(0.99) / 1000.0, 3)
            .endObject();
    }
    w.endObject().key("records").num(recordsLocked());
    if (live_ != nullptr) {
        w.key("characterization")
            .raw(core::renderCharacterizationJson(live_->snapshot()));
    } else if (!final_char_json_.empty()) {
        // Restored after a restart: the live accumulators are gone,
        // but the fold's rendered result survives in the checkpoint.
        w.key("characterization").raw(final_char_json_);
    }
    w.endObject();
    out += '\n';
    return out;
}

SessionState
Session::state() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

std::uint64_t
Session::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recordsLocked();
}

bool
Session::settleOnce()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (settled_)
        return false;
    settled_ = true;
    return true;
}

std::uint64_t
Session::payloadBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return payload_bytes_;
}

void
Session::saveState(BinEnc &enc) const
{
    std::lock_guard<std::mutex> lock(mu_);
    enc.str(id_);
    enc.str(tenant_);
    enc.u8(static_cast<std::uint8_t>(tag_.klass));
    enc.u8(format_ == net::StreamFormat::kBin ? 1 : 0);
    enc.u8(static_cast<std::uint8_t>(state_));
    enc.str(error_);
    enc.u8(settled_ ? 1 : 0);
    enc.u64(payload_bytes_);
    const bool has_final = !final_text_.empty();
    enc.u8(has_final ? 1 : 0);
    if (has_final) {
        enc.str(final_text_);
        enc.str(final_char_json_);
        enc.u64(final_records_);
    }
    decoder_.saveState(enc);
    // Post-finish accumulators are consumed; the final blob above
    // carries everything a done session still serves.
    const bool has_live = live_ != nullptr && !has_final;
    enc.u8(has_live ? 1 : 0);
    if (has_live)
        live_->saveState(enc);
    // v4: trace identity and latency attribution ride at the tail so
    // every earlier field keeps its v3 offset.
    enc.str(trace_id_);
    enc.u64(started_at_ms_);
    enc.u64(final_duration_ms_);
    for (const StageStats &st : stages_) {
        enc.u64(st.count);
        enc.u64(st.total_ns);
        enc.u64(st.max_ns);
        for (std::uint32_t b : st.buckets)
            enc.u32(b);
    }
}

std::shared_ptr<Session>
Session::restore(BinDec &dec)
{
    const std::string id = dec.str();
    const std::string tenant = dec.str();
    const std::uint8_t klass = dec.u8();
    const std::uint8_t format = dec.u8();
    const std::uint8_t state = dec.u8();
    if (!dec.ok() || !net::isIdToken(id, kMaxSessionIdBytes) ||
        !net::isIdToken(tenant) || klass >= qos::kWorkClassCount ||
        format > 1 ||
        state > static_cast<std::uint8_t>(SessionState::kAborted))
        return nullptr;
    auto s = std::make_shared<Session>(
        id, tenant,
        format ? net::StreamFormat::kBin : net::StreamFormat::kCsv,
        static_cast<qos::WorkClass>(klass));
    s->state_ = static_cast<SessionState>(state);
    s->error_ = dec.str();
    s->settled_ = dec.u8() != 0;
    s->payload_bytes_ = dec.u64();
    if (dec.u8() != 0) {
        s->final_text_ = dec.str();
        s->final_char_json_ = dec.str();
        s->final_records_ = dec.u64();
    }
    if (!s->decoder_.loadState(dec))
        return nullptr;
    if (dec.u8() != 0) {
        s->live_ = core::LiveCharacterization::restore(dec);
        if (s->live_ == nullptr)
            return nullptr;
    }
    s->trace_id_ = dec.str();
    if (!s->trace_id_.empty() && !net::isIdToken(s->trace_id_))
        return nullptr;
    s->internTraceNames();
    s->started_at_ms_ = dec.u64();
    s->final_duration_ms_ = dec.u64();
    for (StageStats &st : s->stages_) {
        st.count = dec.u64();
        st.total_ns = dec.u64();
        st.max_ns = dec.u64();
        for (std::uint32_t &b : st.buckets)
            b = dec.u32();
    }
    if (!dec.ok())
        return nullptr;
    return s;
}

Status
Session::foldPending()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (live_ == nullptr) {
        if (!decoder_.headerReady())
            return Status();
        live_ = std::make_unique<core::LiveCharacterization>(
            decoder_.header());
    }
    while (decoder_.take(batch_)) {
        Status s = live_->observe(batch_);
        if (!s.ok())
            return s;
    }
    return Status();
}

} // namespace daemon
} // namespace dlw
