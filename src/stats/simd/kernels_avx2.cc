/**
 * @file
 * AVX2 kernels (4 doubles / 4 ticks per vector).
 *
 * Compiled with -mavx2 for this translation unit only (never -mfma,
 * so no contraction can perturb the scalar expression trees) and
 * dispatched only when the CPU reports AVX2.
 *
 * Every loop mirrors the scalar reference tree from kernels.hh with
 * element-wise IEEE operations (sub/mul/div/min/max/truncate are all
 * correctly rounded per lane), so the results are bit-identical to
 * kScalarOps by construction.  Tick comparisons ride on the sign bit
 * of a 64-bit subtraction (valid while ticks stay well inside the
 * int64 range, which nanosecond timestamps do), and the int64 ->
 * double conversion uses the exact split identity
 * x == (hi(x) * 2^32 - 2^52) + (2^52 + lo(x)) with one final
 * rounding — the same single rounding static_cast performs.
 */

#include "stats/simd/kernels.hh"

#if defined(DLW_SIMD_HAVE_AVX2)

#include <immintrin.h>

namespace dlw
{
namespace stats
{
namespace simd
{
namespace detail
{
namespace
{

/** Exact int64 -> double conversion, 4 lanes. */
inline __m256d
cvtI64F64(__m256i v)
{
    const __m256i magic_lo =
        _mm256_set1_epi64x(0x4330000000000000LL); // 2^52
    const __m256i magic_hi =
        _mm256_set1_epi64x(0x4530000080000000LL); // 2^84 + 2^63 bias
    const __m256d magic_all = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x4530000080100000LL)); // 2^84+2^63+2^52
    const __m256i low_mask = _mm256_set1_epi64x(0x00000000FFFFFFFFLL);

    __m256i v_lo =
        _mm256_or_si256(_mm256_and_si256(v, low_mask), magic_lo);
    __m256i v_hi =
        _mm256_xor_si256(_mm256_srli_epi64(v, 32), magic_hi);
    __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), magic_all);
    return _mm256_add_pd(hi_d, _mm256_castsi256_pd(v_lo));
}

/** Bit k set when 64-bit lane k of (a - b) is negative, i.e. a < b. */
inline int
ltMask64(__m256i a, __m256i b)
{
    return _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_sub_epi64(a, b)));
}

/** Narrow a 4x64-bit compare mask to a 4x32-bit one. */
inline __m128i
narrowMask64(__m256d mask)
{
    const __m256i pick =
        _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(mask), pick));
}

void
binLinearAvx2(const double *x, std::size_t n, double lo, double hi,
              double inv_width, std::int32_t bins, std::int32_t *idx)
{
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    const __m256d vw = _mm256_set1_pd(inv_width);
    // The sentinels ride along as the doubles -1.0 / -2.0: they are
    // exact under the truncating convert, they survive the trailing
    // integer clamp (both < bins - 1), and blending them in the FP
    // domain keeps all selection work off the shuffle port.  Under
    // and over are disjoint, so the blend order does not matter.
    const __m256d vuf =
        _mm256_set1_pd(static_cast<double>(kBinUnderflow));
    const __m256d vof =
        _mm256_set1_pd(static_cast<double>(kBinOverflow));
    const __m128i vbm1 = _mm_set1_epi32(bins - 1);

    std::size_t i = 0;
    // Two independent 4-lane streams per iteration to keep every
    // port busy back to back.
    for (; i + 8 <= n; i += 8) {
        const __m256d x0 = _mm256_loadu_pd(x + i);
        const __m256d x1 = _mm256_loadu_pd(x + i + 4);
        __m256d q0 = _mm256_mul_pd(_mm256_sub_pd(x0, vlo), vw);
        __m256d q1 = _mm256_mul_pd(_mm256_sub_pd(x1, vlo), vw);
        q0 = _mm256_blendv_pd(q0, vuf,
                              _mm256_cmp_pd(x0, vlo, _CMP_LT_OQ));
        q0 = _mm256_blendv_pd(q0, vof,
                              _mm256_cmp_pd(x0, vhi, _CMP_GE_OQ));
        q1 = _mm256_blendv_pd(q1, vuf,
                              _mm256_cmp_pd(x1, vlo, _CMP_LT_OQ));
        q1 = _mm256_blendv_pd(q1, vof,
                              _mm256_cmp_pd(x1, vhi, _CMP_GE_OQ));
        __m128i b0 = _mm256_cvttpd_epi32(q0);
        __m128i b1 = _mm256_cvttpd_epi32(q1);
        // Same trailing clamp as the scalar tree (this also preserves
        // its INT_MIN result for quotients past the int32 range).
        b0 = _mm_min_epi32(b0, vbm1);
        b1 = _mm_min_epi32(b1, vbm1);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(idx + i), b0);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(idx + i + 4),
                         b1);
    }
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        __m256d q = _mm256_mul_pd(_mm256_sub_pd(vx, vlo), vw);
        q = _mm256_blendv_pd(q, vuf,
                             _mm256_cmp_pd(vx, vlo, _CMP_LT_OQ));
        q = _mm256_blendv_pd(q, vof,
                             _mm256_cmp_pd(vx, vhi, _CMP_GE_OQ));
        __m128i bi = _mm256_cvttpd_epi32(q);
        bi = _mm_min_epi32(bi, vbm1);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(idx + i), bi);
    }
    for (; i < n; ++i)
        idx[i] = binLinearOne(x[i], lo, hi, inv_width, bins);
}

void
binLogAvx2(const double *x, std::size_t n, double lo, double hi,
           double log_lo, double inv_log_width, std::int32_t bins,
           std::int32_t *idx)
{
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    const __m256d vllo = _mm256_set1_pd(log_lo);
    const __m256d vlw = _mm256_set1_pd(inv_log_width);
    const __m128i vbm1 = _mm_set1_epi32(bins - 1);
    const __m128i vuf = _mm_set1_epi32(kBinUnderflow);
    const __m128i vof = _mm_set1_epi32(kBinOverflow);

    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vx = _mm256_loadu_pd(x + i);
        // !(x >= lo), unordered so NaN lands in underflow.
        const __m256d under = _mm256_cmp_pd(vx, vlo, _CMP_NGE_UQ);
        const __m256d over = _mm256_cmp_pd(vx, vhi, _CMP_GE_OQ);
        const int in_range =
            ~(_mm256_movemask_pd(under) | _mm256_movemask_pd(over)) &
            0xf;
        // log10 stays scalar libm in every ISA (vector approximations
        // are not bit-reproducible); only classify and bin map
        // vectorize.
        alignas(32) double lg[4];
        for (int k = 0; k < 4; ++k)
            lg[k] = (in_range & (1 << k)) ? std::log10(x[i + k]) : 0.0;
        const __m256d q = _mm256_mul_pd(
            _mm256_sub_pd(_mm256_load_pd(lg), vllo), vlw);
        __m128i bi = _mm256_cvttpd_epi32(q);
        bi = _mm_min_epi32(bi, vbm1);
        bi = _mm_blendv_epi8(bi, vuf, narrowMask64(under));
        bi = _mm_blendv_epi8(bi, vof, narrowMask64(over));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(idx + i), bi);
    }
    for (; i < n; ++i)
        idx[i] = binLogOne(x[i], lo, hi, log_lo, inv_log_width, bins);
}

/**
 * Shared gallop: one past the end of the run starting at t[i] whose
 * ticks all fall inside [bin_lo, bin_hi).
 */
inline std::size_t
runEnd(const Tick *t, std::size_t i, std::size_t n, Tick bin_lo,
       Tick bin_hi)
{
    const __m256i vlo = _mm256_set1_epi64x(bin_lo);
    const __m256i vhi = _mm256_set1_epi64x(bin_hi);
    std::size_t j = i + 1;
    for (; j + 4 <= n; j += 4) {
        const __m256i vt = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(t + j));
        const int below = ltMask64(vt, vlo);
        const int in_run = ~below & ltMask64(vt, vhi) & 0xf;
        if (in_run != 0xf)
            return j + static_cast<std::size_t>(
                           __builtin_ctz(~in_run & 0xf));
    }
    for (; j < n; ++j) {
        if (t[j] < bin_lo || t[j] >= bin_hi)
            break;
    }
    return j;
}

std::size_t
countSortedAvx2(const Tick *t, std::size_t n, Tick start, Tick width,
                double *bins, std::size_t nbins)
{
    std::size_t i = 0;
    while (i < n) {
        if (t[i] < start)
            return i;
        const auto idx =
            static_cast<std::size_t>((t[i] - start) / width);
        if (idx >= nbins)
            return i;
        const Tick bin_lo = start + static_cast<Tick>(idx) * width;
        const std::size_t j = runEnd(t, i, n, bin_lo, bin_lo + width);
        bins[idx] += static_cast<double>(j - i);
        i = j;
    }
    return n;
}

/** Matching flags in [i, j), 32 bytes at a time. */
inline std::uint64_t
countEqRange(const std::uint8_t *flags, std::size_t i, std::size_t j,
             __m256i vwant, std::uint8_t want)
{
    std::uint64_t c = 0;
    for (; i + 32 <= j; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(flags + i));
        c += static_cast<unsigned>(__builtin_popcount(
            static_cast<unsigned>(_mm256_movemask_epi8(
                _mm256_cmpeq_epi8(v, vwant)))));
    }
    for (; i < j; ++i)
        c += flags[i] == want ? 1 : 0;
    return c;
}

std::size_t
countSortedIfAvx2(const Tick *t, const std::uint8_t *flags,
                  std::uint8_t want, std::size_t n, Tick start,
                  Tick width, double *bins, std::size_t nbins)
{
    const __m256i vwant = _mm256_set1_epi8(static_cast<char>(want));
    std::size_t i = 0;
    while (i < n) {
        if (t[i] < start)
            return i;
        const auto idx =
            static_cast<std::size_t>((t[i] - start) / width);
        if (idx >= nbins)
            return i;
        const Tick bin_lo = start + static_cast<Tick>(idx) * width;
        const std::size_t j = runEnd(t, i, n, bin_lo, bin_lo + width);
        const std::uint64_t c = countEqRange(flags, i, j, vwant, want);
        if (c)
            bins[idx] += static_cast<double>(c);
        i = j;
    }
    return n;
}

void
gapsI64Avx2(const Tick *t, std::size_t n, Tick prev, double *out)
{
    if (n == 0)
        return;
    out[0] = static_cast<double>(t[0] - prev);
    std::size_t i = 1;
    for (; i + 4 <= n; i += 4) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(t + i));
        const __m256i prv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(t + i - 1));
        _mm256_storeu_pd(out + i,
                         cvtI64F64(_mm256_sub_epi64(cur, prv)));
    }
    for (; i < n; ++i)
        out[i] = static_cast<double>(t[i] - t[i - 1]);
}

void
welfordAddAvx2(SummaryLanes &s, const double *x, std::size_t n)
{
    std::size_t i = 0;
    std::uint32_t lane = s.next;
    // Peel until the cursor sits on lane 0, so vector iterations map
    // elements i..i+3 onto lanes 0..3 exactly.
    while (lane != 0 && i < n) {
        welfordOne(s, lane, x[i]);
        lane = (lane + 1) % kSummaryLanes;
        ++i;
    }

    if (i + kSummaryLanes <= n) {
        const __m256d one = _mm256_set1_pd(1.0);
        const __m256d two = _mm256_set1_pd(2.0);
        const __m256d three = _mm256_set1_pd(3.0);
        const __m256d four = _mm256_set1_pd(4.0);
        const __m256d six = _mm256_set1_pd(6.0);

        __m256d vn = _mm256_load_pd(s.n);
        __m256d mean = _mm256_load_pd(s.mean);
        __m256d m2 = _mm256_load_pd(s.m2);
        __m256d m3 = _mm256_load_pd(s.m3);
        __m256d m4 = _mm256_load_pd(s.m4);
        __m256d mn = _mm256_load_pd(s.mn);
        __m256d mx = _mm256_load_pd(s.mx);

        for (; i + kSummaryLanes <= n; i += kSummaryLanes) {
            const __m256d vx = _mm256_loadu_pd(x + i);
            const __m256d n1 = vn;
            const __m256d nn = _mm256_add_pd(n1, one);

            const __m256d delta = _mm256_sub_pd(vx, mean);
            const __m256d delta_n = _mm256_div_pd(delta, nn);
            const __m256d delta_n2 = _mm256_mul_pd(delta_n, delta_n);
            const __m256d term1 =
                _mm256_mul_pd(_mm256_mul_pd(delta, delta_n), n1);

            mean = _mm256_add_pd(mean, delta_n);
            // K = nn*nn - 3*nn + 3, associated like the scalar tree.
            const __m256d k4 = _mm256_add_pd(
                _mm256_sub_pd(_mm256_mul_pd(nn, nn),
                              _mm256_mul_pd(three, nn)),
                three);
            const __m256d a4 =
                _mm256_mul_pd(_mm256_mul_pd(term1, delta_n2), k4);
            const __m256d b4 =
                _mm256_mul_pd(_mm256_mul_pd(six, delta_n2), m2);
            const __m256d c4 =
                _mm256_mul_pd(_mm256_mul_pd(four, delta_n), m3);
            m4 = _mm256_add_pd(
                m4, _mm256_sub_pd(_mm256_add_pd(a4, b4), c4));
            const __m256d a3 =
                _mm256_mul_pd(_mm256_mul_pd(term1, delta_n),
                              _mm256_sub_pd(nn, two));
            const __m256d c3 =
                _mm256_mul_pd(_mm256_mul_pd(three, delta_n), m2);
            m3 = _mm256_add_pd(m3, _mm256_sub_pd(a3, c3));
            m2 = _mm256_add_pd(m2, term1);

            vn = nn;
            mn = _mm256_min_pd(vx, mn);
            mx = _mm256_max_pd(vx, mx);
        }

        _mm256_store_pd(s.n, vn);
        _mm256_store_pd(s.mean, mean);
        _mm256_store_pd(s.m2, m2);
        _mm256_store_pd(s.m3, m3);
        _mm256_store_pd(s.m4, m4);
        _mm256_store_pd(s.mn, mn);
        _mm256_store_pd(s.mx, mx);
    }

    for (; i < n; ++i) {
        welfordOne(s, lane, x[i]);
        lane = (lane + 1) % kSummaryLanes;
    }
    s.next = lane;
}

std::uint64_t
countEqU8Avx2(const std::uint8_t *v, std::size_t n, std::uint8_t want)
{
    return countEqRange(v, 0, n,
                        _mm256_set1_epi8(static_cast<char>(want)),
                        want);
}

std::uint64_t
sumU32Avx2(const std::uint32_t *v, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i q = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        acc = _mm256_add_epi64(acc, _mm256_cvtepu32_epi64(q));
    }
    alignas(32) std::uint64_t parts[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(parts), acc);
    std::uint64_t s = parts[0] + parts[1] + parts[2] + parts[3];
    for (; i < n; ++i)
        s += v[i];
    return s;
}

} // anonymous namespace

const KernelOps kAvx2Ops = {
    binLinearAvx2,    binLogAvx2,  countSortedAvx2,
    countSortedIfAvx2, gapsI64Avx2, welfordAddAvx2,
    countEqU8Avx2,    sumU32Avx2,
};

} // namespace detail
} // namespace simd
} // namespace stats
} // namespace dlw

#endif // defined(DLW_SIMD_HAVE_AVX2)
