/**
 * @file
 * Kernel-table dispatch and the SummaryLanes fold.
 *
 * The active table is published through one atomic pointer: hot
 * paths pay a single acquire load per batch, and tests (or the
 * DLW_SIMD override) can repoint it at any table because every
 * table computes identical bits — swapping mid-stream is safe by
 * the bit-identity contract.
 */

#include "stats/simd/simd.hh"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "common/binenc.hh"
#include "common/logging.hh"
#include "stats/simd/kernels.hh"
#include "stats/summary.hh"

namespace dlw
{
namespace stats
{
namespace simd
{

namespace
{

std::atomic<const KernelOps *> g_ops{nullptr};
std::atomic<int> g_isa{static_cast<int>(Isa::kScalar)};
std::once_flag g_env_once;

const KernelOps *
tableFor(Isa isa)
{
    switch (isa) {
      case Isa::kScalar:
        return &detail::kScalarOps;
      case Isa::kAvx2:
#if defined(DLW_SIMD_HAVE_AVX2)
        return &detail::kAvx2Ops;
#else
        return &detail::kScalarOps;
#endif
    }
    return &detail::kScalarOps;
}

} // anonymous namespace

bool
supported(Isa isa)
{
    switch (isa) {
      case Isa::kScalar:
        return true;
      case Isa::kAvx2:
#if defined(DLW_SIMD_HAVE_AVX2)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

Isa
bestSupported()
{
    return supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

Isa
activeIsa()
{
    ops(); // ensure the table has been selected
    return static_cast<Isa>(g_isa.load(std::memory_order_relaxed));
}

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::kScalar:
        return "scalar";
      case Isa::kAvx2:
        return "avx2";
    }
    return "unknown";
}

bool
parseChoice(std::string_view s, Isa &out, bool &is_auto)
{
    is_auto = false;
    if (s == "auto") {
        is_auto = true;
        return true;
    }
    if (s == "scalar") {
        out = Isa::kScalar;
        return true;
    }
    if (s == "avx2") {
        out = Isa::kAvx2;
        return true;
    }
    return false;
}

void
force(Isa isa)
{
    if (!supported(isa)) {
        const Isa best = bestSupported();
        dlw_warn("DLW_SIMD: ", isaName(isa),
                 " is not available on this build/CPU; using ",
                 isaName(best));
        isa = best;
    }
    g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
    g_ops.store(tableFor(isa), std::memory_order_release);
}

void
configureFromEnv()
{
    const char *env = std::getenv("DLW_SIMD");
    Isa choice = bestSupported();
    if (env != nullptr && *env != '\0') {
        Isa parsed = Isa::kScalar;
        bool is_auto = false;
        if (!parseChoice(env, parsed, is_auto)) {
            dlw_warn("DLW_SIMD: unknown value '", env,
                     "' (want scalar|avx2|auto); using auto");
        } else if (!is_auto) {
            choice = parsed;
        }
    }
    force(choice);
}

const KernelOps &
ops()
{
    const KernelOps *t = g_ops.load(std::memory_order_acquire);
    if (t != nullptr)
        return *t;
    std::call_once(g_env_once, configureFromEnv);
    return *g_ops.load(std::memory_order_acquire);
}

void
SummaryLanes::clear()
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        n[i] = 0.0;
        mean[i] = 0.0;
        m2[i] = 0.0;
        m3[i] = 0.0;
        m4[i] = 0.0;
        mn[i] = std::numeric_limits<double>::infinity();
        mx[i] = -std::numeric_limits<double>::infinity();
    }
    next = 0;
}

void
SummaryLanes::add(double x)
{
    detail::welfordOne(*this, next, x);
    next = (next + 1) % kSummaryLanes;
}

void
SummaryLanes::addBatch(const double *x, std::size_t n_obs)
{
    ops().welford_add(*this, x, n_obs);
}

std::uint64_t
SummaryLanes::count() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < kSummaryLanes; ++i)
        total += n[i];
    return static_cast<std::uint64_t>(total);
}

Summary
SummaryLanes::combined() const
{
    Summary out;
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        if (n[i] == 0.0)
            continue;
        out.merge(Summary::fromRaw(static_cast<std::uint64_t>(n[i]),
                                   mean[i], m2[i], m3[i], m4[i],
                                   mn[i], mx[i]));
    }
    return out;
}

void
SummaryLanes::saveState(BinEnc &enc) const
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        enc.f64(n[i]);
        enc.f64(mean[i]);
        enc.f64(m2[i]);
        enc.f64(m3[i]);
        enc.f64(m4[i]);
        enc.f64(mn[i]);
        enc.f64(mx[i]);
    }
    enc.u8(static_cast<std::uint8_t>(next));
}

bool
SummaryLanes::loadState(BinDec &dec)
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        n[i] = dec.f64();
        mean[i] = dec.f64();
        m2[i] = dec.f64();
        m3[i] = dec.f64();
        m4[i] = dec.f64();
        mn[i] = dec.f64();
        mx[i] = dec.f64();
    }
    const std::uint8_t cursor = dec.u8();
    if (!dec.ok() || cursor >= kSummaryLanes)
        return false;
    next = cursor;
    return true;
}

} // namespace simd
} // namespace stats
} // namespace dlw
