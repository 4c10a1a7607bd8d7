#include "core/live.hh"

#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "obs/span.hh"

namespace dlw
{
namespace core
{

namespace
{

/**
 * Metadata-only RequestSource: exists so the accumulators' begin()
 * hook sees the stream header exactly as a pulled pass would show
 * it.  next() is never called.
 */
class MetaSource final : public trace::RequestSource
{
  public:
    explicit MetaSource(const trace::MsStreamHeader &m) : m_(m) {}

    const std::string &driveId() const override { return m_.drive_id; }

    Tick start() const override { return m_.start; }

    Tick duration() const override { return m_.duration; }

    bool next(trace::RequestBatch &) override { return false; }

  private:
    trace::MsStreamHeader m_;
};

/**
 * observe()'s wording of the readiness failure `v` in `batch`, after
 * `n` requests were folded and with `prev` the last accepted arrival.
 */
Status
refusal(const trace::RequestBatch &batch, const trace::ReadyVerdict &v,
        std::uint64_t n, Tick prev)
{
    const std::uint64_t offset = n + v.index;
    std::ostringstream os;
    if (v.fault == trace::ReadyFault::kZeroBlocks) {
        os << "zero-length request at stream offset " << offset;
    } else if (v.fault == trace::ReadyFault::kOutOfOrder) {
        os << "out-of-order arrival at stream offset " << offset << " ("
           << batch.arrival(v.index) << " after " << prev << ")";
    } else {
        os << "arrival outside the observation window at stream"
              " offset "
           << offset;
    }
    return Status::invalidArgument(os.str());
}

} // anonymous namespace

LiveCharacterization::LiveCharacterization(trace::MsStreamHeader meta)
    : meta_(std::move(meta)),
      ready_(meta_.start, meta_.start + meta_.duration)
{
    pass_.add(burstiness_);
    pass_.add(rwmix_);
    pass_.add(totals_);
    pass_.begin(MetaSource(meta_));
}

Status
LiveCharacterization::observe(const trace::RequestBatch &batch)
{
    const trace::ReadyVerdict v = ready_.check(batch);
    if (!v.ok())
        return refusal(batch, v, n_, ready_.prev());
    pass_.observe(batch);
    n_ += batch.size();
    return Status();
}

DriveCharacterization
LiveCharacterization::assemble(const BurstinessAccumulator &b,
                               const RwMixAccumulator &rw,
                               const TraceTotalsAccumulator &t) const
{
    DriveCharacterization c;
    c.drive_id = meta_.drive_id;
    c.ms_burstiness = b.report();
    c.ms_rw = rw.report();
    c.arrival_rate = t.arrivalRate();
    c.read_fraction = t.readFraction();
    return c;
}

DriveCharacterization
LiveCharacterization::snapshot() const
{
    // Copies absorb the finish(); the live accumulators never see it.
    BurstinessAccumulator b = burstiness_;
    RwMixAccumulator rw = rwmix_;
    TraceTotalsAccumulator t = totals_;
    b.finish();
    rw.finish();
    t.finish();
    return assemble(b, rw, t);
}

void
LiveCharacterization::saveState(BinEnc &enc) const
{
    enc.str(meta_.drive_id);
    enc.i64(meta_.start);
    enc.i64(meta_.duration);
    burstiness_.saveState(enc);
    rwmix_.saveState(enc);
    totals_.saveState(enc);
    enc.u64(n_);
    enc.i64(ready_.prev());
}

std::unique_ptr<LiveCharacterization>
LiveCharacterization::restore(BinDec &dec)
{
    trace::MsStreamHeader meta;
    meta.drive_id = dec.str();
    meta.start = dec.i64();
    meta.duration = dec.i64();
    if (!dec.ok())
        return nullptr;
    auto live = std::make_unique<LiveCharacterization>(meta);
    if (!live->burstiness_.loadState(dec) ||
        !live->rwmix_.loadState(dec) || !live->totals_.loadState(dec))
        return nullptr;
    live->n_ = dec.u64();
    live->ready_.setPrev(dec.i64());
    if (!dec.ok())
        return nullptr;
    return live;
}

DriveCharacterization
LiveCharacterization::finish()
{
    if (!finished_) {
        finished_ = true;
        pass_.finish();
    }
    return assemble(burstiness_, rwmix_, totals_);
}

StatusOr<DriveCharacterization>
foldTrace(trace::RequestSource &src, std::size_t batch_requests)
{
    obs::ScopedSpan span("trace-pass");
    LiveCharacterization live(
        trace::MsStreamHeader{src.driveId(), src.start(), src.duration()});
    trace::RequestBatch batch(batch_requests);
    while (src.next(batch)) {
        Status s = live.observe(batch);
        if (!s.ok())
            return s;
    }
    if (!src.status().ok())
        return src.status();
    return live.finish();
}

std::string
renderCharacterizationJson(const DriveCharacterization &c)
{
    std::string out;
    JsonWriter w(out);
    // Non-finite figures (a fit on too few points) render as null.
    const auto field = [&w](const char *key, double v) {
        w.key(key);
        if (std::isfinite(v))
            w.num(v);
        else
            w.null();
    };
    w.beginObject().key("drive").str(c.drive_id);
    if (c.arrival_rate)
        field("arrival_rate", *c.arrival_rate);
    if (c.read_fraction)
        field("read_fraction", *c.read_fraction);
    if (c.mean_response_ms)
        field("mean_response_ms", *c.mean_response_ms);
    if (c.idle_fraction)
        field("idle_fraction", *c.idle_fraction);
    if (c.ms_burstiness) {
        const BurstinessReport &b = *c.ms_burstiness;
        field("interarrival_cv", b.interarrival_cv);
        field("peak_to_mean", b.peak_to_mean);
        field("hurst_var", b.hurst_var.h);
        field("hurst_rs", b.hurst_rs.h);
        if (!b.idc.empty()) {
            field("idc_finest", b.idc.front().idc);
            field("idc_coarsest", b.idc.back().idc);
        }
        w.key("decorrelation_lag").num(b.decorrelation_lag);
    }
    if (c.ms_rw) {
        const RwDynamics &d = *c.ms_rw;
        field("mean_run_length", d.mean_run_length);
        field("write_dominated_fraction", d.write_dominated_fraction);
        w.key("longest_write_run").num(d.longest_write_run);
        w.key("write_bursts").num(d.write_bursts);
    }
    w.endObject();
    return out;
}

} // namespace core
} // namespace dlw
