/**
 * @file
 * Internal kernel plumbing shared by the per-ISA translation units.
 *
 * The inline helpers here ARE the bit-identity contract: every
 * per-element expression tree a vector kernel reproduces lives in
 * exactly one place, and the vector code mirrors it operation for
 * operation (no FMA contraction — the kernel sources never enable
 * -mfma — and no reassociation).  The AVX2 kernels call these
 * same helpers for heads, tails and slow lanes, so a "vector" result
 * is always a mix of the one scalar definition and its element-wise
 * IEEE equivalents.
 */

#ifndef DLW_STATS_SIMD_KERNELS_HH
#define DLW_STATS_SIMD_KERNELS_HH

#include <cmath>

#include "stats/simd/simd.hh"

namespace dlw
{
namespace stats
{
namespace simd
{
namespace detail
{

/**
 * One linear-histogram classification, the reference tree.
 *
 * The bin map multiplies by a precomputed reciprocal width instead
 * of dividing: a divide-based map is divider-throughput-bound on
 * both the scalar and the vector side, which caps the achievable
 * vector speedup at the ratio of the two divider throughputs (about
 * 2x on current x86 cores).  The multiply form is still one
 * correctly-rounded IEEE operation per element, so the vector
 * kernels remain bit-identical to this tree.
 */
inline std::int32_t
binLinearOne(double x, double lo, double hi, double inv_width,
             std::int32_t bins)
{
    if (x < lo)
        return kBinUnderflow;
    if (x >= hi)
        return kBinOverflow;
    auto idx = static_cast<std::int32_t>((x - lo) * inv_width);
    if (idx >= bins)
        idx = bins - 1; // guard FP edge effects, like the histogram
    return idx;
}

/** One log-histogram classification, the reference tree. */
inline std::int32_t
binLogOne(double x, double lo, double hi, double log_lo,
          double inv_log_width, std::int32_t bins)
{
    if (!(x >= lo)) // also catches NaN and non-positive values
        return kBinUnderflow;
    if (x >= hi)
        return kBinOverflow;
    auto idx = static_cast<std::int32_t>(
        (std::log10(x) - log_lo) * inv_log_width);
    if (idx >= bins)
        idx = bins - 1;
    return idx;
}

/**
 * One Welford update of lane `lane`, the reference tree.  Mirrors
 * Summary::add exactly, with the lane count carried as a double.
 * min/max use the (a < b ? a : b) form so the vector min/max
 * instructions (which have exactly that non-NaN semantics) match.
 */
inline void
welfordOne(SummaryLanes &s, std::uint32_t lane, double x)
{
    const double n1 = s.n[lane];
    const double nn = n1 + 1.0;
    s.n[lane] = nn;
    const double delta = x - s.mean[lane];
    const double delta_n = delta / nn;
    const double delta_n2 = delta_n * delta_n;
    const double term1 = delta * delta_n * n1;

    s.mean[lane] += delta_n;
    s.m4[lane] += term1 * delta_n2 * (nn * nn - 3.0 * nn + 3.0) +
                  6.0 * delta_n2 * s.m2[lane] -
                  4.0 * delta_n * s.m3[lane];
    s.m3[lane] += term1 * delta_n * (nn - 2.0) -
                  3.0 * delta_n * s.m2[lane];
    s.m2[lane] += term1;

    s.mn[lane] = x < s.mn[lane] ? x : s.mn[lane];
    s.mx[lane] = x > s.mx[lane] ? x : s.mx[lane];
}

/** The scalar reference table (always built, ground truth). */
extern const KernelOps kScalarOps;

#if defined(DLW_SIMD_HAVE_AVX2)
/** AVX2 table (built when the toolchain takes -mavx2 and the build
 *  did not pass -DDLW_DISABLE_AVX2=ON; dispatched only when the CPU
 *  reports AVX2). */
extern const KernelOps kAvx2Ops;
#endif

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw

#endif // DLW_STATS_SIMD_KERNELS_HH
