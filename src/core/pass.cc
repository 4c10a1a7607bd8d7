#include "core/pass.hh"

#include "common/binenc.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "stats/simd/simd.hh"

namespace dlw
{
namespace core
{

namespace
{

/** Fusion bookkeeping for the streaming characterization pass. */
struct PassMetrics
{
    obs::Counter &runs = obs::counter("core.pass.runs",
        "passes", "core",
        "fused characterization passes over a request stream");
    obs::Counter &batches = obs::counter("core.pass.batches",
        "batches", "core",
        "request batches fanned out to accumulators by passes");
    obs::Counter &fused = obs::counter("core.pass.accumulators",
        "accumulators", "core",
        "accumulators fed by passes (divide by core.pass.runs "
        "for the mean fusion width)");
    obs::Gauge &kernel_isa = obs::gauge("core.kernel.isa",
        "isa", "core",
        "active SIMD kernel table (0 scalar, 2 avx2); "
        "set at the start of every pass");
    obs::Counter &kernel_slow = obs::counter("core.kernel.slow",
        "elements", "core",
        "batch-kernel elements that fell back to the per-element "
        "reference path (series growth, early-stop)");
};

PassMetrics &
passMetrics()
{
    static PassMetrics *m = new PassMetrics();
    return *m;
}

} // anonymous namespace

void
registerPassMetrics()
{
    passMetrics();
}

void
noteKernelSlowPath(std::size_t elems)
{
    if (elems == 0 || !obs::enabled())
        return;
    passMetrics().kernel_slow.add(
        static_cast<std::uint64_t>(elems));
}

void
TraceTotalsAccumulator::begin(const trace::RequestSource &src)
{
    duration_ = src.duration();
}

void
TraceTotalsAccumulator::observe(const trace::RequestBatch &batch)
{
    const std::size_t sz = batch.size();
    if (sz == 0)
        return;
    const stats::simd::KernelOps &k = stats::simd::ops();
    n_ += sz;
    reads_ += static_cast<std::size_t>(k.count_eq_u8(
        reinterpret_cast<const std::uint8_t *>(batch.opsData()), sz,
        static_cast<std::uint8_t>(trace::Op::Read)));
    // Integer sums are associative mod 2^64, so the vector
    // reassociation is exact.
    const std::uint64_t blocks = k.sum_u32(batch.blocksData(), sz);
    blocks_ += blocks;
    bytes_ += blocks * kBlockBytes;
}

double
TraceTotalsAccumulator::readFraction() const
{
    if (n_ == 0)
        return 0.0;
    return static_cast<double>(reads_) / static_cast<double>(n_);
}

double
TraceTotalsAccumulator::arrivalRate() const
{
    if (n_ == 0 || duration_ <= 0)
        return 0.0;
    return static_cast<double>(n_) / ticksToSeconds(duration_);
}

double
TraceTotalsAccumulator::meanRequestBlocks() const
{
    if (n_ == 0)
        return 0.0;
    return static_cast<double>(blocks_) / static_cast<double>(n_);
}

void
TraceTotalsAccumulator::saveState(BinEnc &enc) const
{
    enc.u64(n_);
    enc.u64(reads_);
    enc.u64(bytes_);
    enc.u64(blocks_);
    enc.i64(duration_);
}

bool
TraceTotalsAccumulator::loadState(BinDec &dec)
{
    n_ = static_cast<std::size_t>(dec.u64());
    reads_ = static_cast<std::size_t>(dec.u64());
    bytes_ = dec.u64();
    blocks_ = dec.u64();
    duration_ = dec.i64();
    return dec.ok();
}

void
CharacterizationPass::begin(const trace::RequestSource &src)
{
    if (obs::enabled()) {
        PassMetrics &m = passMetrics();
        m.runs.add(1);
        m.fused.add(accs_.size());
        m.kernel_isa.set(
            static_cast<std::int64_t>(stats::simd::activeIsa()));
    }
    for (TraceAccumulator *acc : accs_)
        acc->begin(src);
}

void
CharacterizationPass::observe(const trace::RequestBatch &batch)
{
    if (obs::enabled())
        passMetrics().batches.add(1);
    for (TraceAccumulator *acc : accs_)
        acc->observe(batch);
}

void
CharacterizationPass::finish()
{
    for (TraceAccumulator *acc : accs_)
        acc->finish();
}

Status
CharacterizationPass::run(trace::RequestSource &src,
                          std::size_t batch_requests)
{
    obs::ScopedSpan span("core.pass");
    begin(src);
    trace::RequestBatch batch(batch_requests);
    while (src.next(batch))
        observe(batch);
    Status s = src.status();
    if (s.ok())
        finish();
    return s;
}

} // namespace core
} // namespace dlw
