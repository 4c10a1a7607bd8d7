/**
 * @file
 * Bit-identity of the SIMD characterization kernels.
 *
 * Every test runs the same input through the scalar reference table
 * and every other table this build + CPU supports, and demands the
 * results be identical to the last bit — that is the contract that
 * makes DLW_SIMD a pure tuning knob.  Inputs are chosen to be
 * adversarial: denormals, exact bin edges, tail batches of every
 * length below two vector widths, empty batches, duplicate ticks,
 * and unsorted arrivals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/binenc.hh"
#include "core/burstiness.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "stats/histogram.hh"
#include "stats/simd/kernels.hh"
#include "stats/simd/simd.hh"
#include "stats/summary.hh"
#include "stats/timeseries.hh"
#include "trace/mstrace.hh"
#include "trace/source.hh"

namespace dlw
{
namespace stats
{
namespace simd
{
namespace
{

/** Every ISA this build + CPU can actually dispatch. */
std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
        if (supported(isa))
            out.push_back(isa);
    }
    return out;
}

/** Restore auto dispatch when a test body returns. */
struct IsaGuard
{
    ~IsaGuard() { force(bestSupported()); }
};

/** Deterministic xorshift — tests must not depend on libc rand. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed ? seed : 1) {}
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    double
    uniform(double lo, double hi)
    {
        const double u = static_cast<double>(next() >> 11) *
                         0x1.0p-53;
        return lo + u * (hi - lo);
    }
};

/** Adversarial sample set for the binning kernels. */
std::vector<double>
binningSamples()
{
    std::vector<double> xs = {
        // exact edges and off-by-one-ulp neighbours
        0.0, 1.0, std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0),
        10.0, std::nextafter(10.0, 0.0), 100.0,
        // denormals and extremes
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        // out of range both ways
        -5.0, -1e300, 1e300, 0.5, 99.999999,
    };
    Rng rng(0xb1bb1e5);
    for (int i = 0; i < 400; ++i)
        xs.push_back(rng.uniform(-2.0, 120.0));
    return xs;
}

TEST(BinLinearKernel, MatchesScalarOnAllIsas)
{
    const std::vector<double> xs = binningSamples();
    // Deliberately non-exact reciprocal, like most real bin layouts.
    constexpr double lo = 1.0, hi = 100.0;
    constexpr double inv_width = 33 / (100.0 - 1.0);
    constexpr std::int32_t bins = 33;

    // Every batch length up to two AVX2 widths exercises all tails.
    for (std::size_t n = 0; n <= 16 && n <= xs.size(); ++n) {
        for (std::size_t off = 0; off + n <= xs.size();
             off += (n == 0 ? xs.size() + 1 : 7)) {
            std::vector<std::int32_t> ref(n + 1, 42);
            detail::kScalarOps.bin_linear(xs.data() + off, n, lo, hi,
                                          inv_width, bins,
                                          ref.data());
            for (Isa isa : supportedIsas()) {
                IsaGuard guard;
                force(isa);
                std::vector<std::int32_t> got(n + 1, 42);
                ops().bin_linear(xs.data() + off, n, lo, hi,
                                 inv_width, bins, got.data());
                ASSERT_EQ(ref, got)
                    << "isa=" << isaName(isa) << " n=" << n
                    << " off=" << off;
            }
        }
    }
}

TEST(BinLogKernel, MatchesScalarOnAllIsas)
{
    std::vector<double> xs = binningSamples();
    xs.push_back(std::numeric_limits<double>::quiet_NaN());
    xs.push_back(-0.0); // !(x >= lo) => underflow, like LogHistogram
    constexpr double lo = 1e-3, hi = 1e4;
    const double log_lo = std::log10(lo);
    const double inv_log_width = 8.0; // bins per decade
    constexpr std::int32_t bins = 56;

    for (std::size_t n = 0; n <= 16 && n <= xs.size(); ++n) {
        for (std::size_t off = 0; off + n <= xs.size();
             off += (n == 0 ? xs.size() + 1 : 7)) {
            std::vector<std::int32_t> ref(n + 1, 42);
            detail::kScalarOps.bin_log(xs.data() + off, n, lo, hi,
                                       log_lo, inv_log_width, bins,
                                       ref.data());
            for (Isa isa : supportedIsas()) {
                IsaGuard guard;
                force(isa);
                std::vector<std::int32_t> got(n + 1, 42);
                ops().bin_log(xs.data() + off, n, lo, hi, log_lo,
                              inv_log_width, bins, got.data());
                ASSERT_EQ(ref, got)
                    << "isa=" << isaName(isa) << " n=" << n
                    << " off=" << off;
            }
        }
    }
}

/** Bursty sorted arrivals with duplicate ticks and long runs. */
std::vector<Tick>
burstyArrivals(std::size_t n, Tick start)
{
    std::vector<Tick> t;
    t.reserve(n);
    Rng rng(0xdeadbeef);
    Tick now = start;
    while (t.size() < n) {
        // A burst: many requests in one or two bins.
        const std::size_t burst = 1 + rng.next() % 37;
        for (std::size_t i = 0; i < burst && t.size() < n; ++i) {
            t.push_back(now);
            if (rng.next() % 4 == 0)
                now += static_cast<Tick>(rng.next() % 3);
        }
        now += static_cast<Tick>(rng.next() % (20 * kMsec));
    }
    return t;
}

TEST(CountSortedKernel, MatchesPerElementLoop)
{
    const Tick start = 1000;
    const Tick width = 10 * kMsec;
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          std::size_t{5}, std::size_t{15},
                          std::size_t{64}, std::size_t{1000}}) {
        std::vector<Tick> t = burstyArrivals(n, start);
        BinnedSeries ref(start, width);
        for (Tick x : t)
            ref.accumulateAt(x, 1.0); // exercises the growth path too
        for (Isa isa : supportedIsas()) {
            IsaGuard guard;
            force(isa);
            BinnedSeries got(start, width);
            got.countSorted(t.data(), t.size());
            ASSERT_EQ(ref.values(), got.values())
                << "isa=" << isaName(isa) << " n=" << n;
        }
    }
}

TEST(CountSortedKernel, UnsortedInputStillCorrect)
{
    // Correctness must not depend on sort order: an out-of-run
    // element just opens a new run (or takes the growth path).
    std::vector<Tick> t = burstyArrivals(300, 5000);
    // Scramble deterministically.
    Rng rng(7);
    for (std::size_t i = t.size(); i > 1; --i)
        std::swap(t[i - 1], t[rng.next() % i]);
    const Tick width = 10 * kMsec;
    BinnedSeries ref(5000, width);
    for (Tick x : t)
        ref.accumulateAt(x, 1.0);
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        BinnedSeries got(5000, width);
        got.countSorted(t.data(), t.size());
        ASSERT_EQ(ref.values(), got.values()) << "isa=" << isaName(isa);
    }
}

TEST(CountSortedIfKernel, MatchesFilteredPerElementLoop)
{
    const Tick start = 0;
    const Tick width = 10 * kMsec;
    std::vector<Tick> t = burstyArrivals(777, start);
    std::vector<std::uint8_t> flags(t.size());
    Rng rng(99);
    for (auto &f : flags)
        f = static_cast<std::uint8_t>(rng.next() % 2);

    BinnedSeries ref(start, width);
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (flags[i] == 1)
            ref.accumulateAt(t[i], 1.0);
    }
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        BinnedSeries got(start, width);
        got.countSortedIf(t.data(), flags.data(), 1, t.size());
        ASSERT_EQ(ref.values(), got.values()) << "isa=" << isaName(isa);
    }
}

TEST(GapsKernel, ExactInt64Conversion)
{
    // Ticks chosen so the difference exercises > 2^52 magnitudes,
    // where int64 -> double conversion actually rounds.
    std::vector<Tick> t = {
        0, 1, 2, 4503599627370497LL, 4503599627370499LL,
        9007199254740993LL, 9007199254741995LL, 9007199254741997LL,
        123456789012345678LL, 123456789012345679LL,
        223456789012345678LL,
    };
    for (std::size_t n = 0; n <= t.size(); ++n) {
        std::vector<double> ref(n + 1, -1.0), got(n + 1, -1.0);
        detail::kScalarOps.gaps_i64(t.data(), n, -17, ref.data());
        for (std::size_t i = 0; i < n; ++i) {
            const Tick prev = i == 0 ? -17 : t[i - 1];
            ASSERT_EQ(ref[i], static_cast<double>(t[i] - prev));
        }
        for (Isa isa : supportedIsas()) {
            IsaGuard guard;
            force(isa);
            ops().gaps_i64(t.data(), n, -17, got.data());
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(ref[i], got[i])
                    << "isa=" << isaName(isa) << " i=" << i;
        }
    }
}

/** Gap-like positive samples, including denormals. */
std::vector<double>
welfordSamples(std::size_t n)
{
    Rng rng(0xfeed);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double v = rng.uniform(0.0, 1e9);
        if (i % 97 == 0)
            v = std::numeric_limits<double>::denorm_min();
        if (i % 131 == 0)
            v = 0.0;
        xs.push_back(v);
    }
    return xs;
}

bool
lanesBitEqual(const SummaryLanes &a, const SummaryLanes &b)
{
    for (std::size_t i = 0; i < kSummaryLanes; ++i) {
        if (std::memcmp(&a.n[i], &b.n[i], sizeof(double)) != 0 ||
            std::memcmp(&a.mean[i], &b.mean[i], sizeof(double)) != 0 ||
            std::memcmp(&a.m2[i], &b.m2[i], sizeof(double)) != 0 ||
            std::memcmp(&a.m3[i], &b.m3[i], sizeof(double)) != 0 ||
            std::memcmp(&a.m4[i], &b.m4[i], sizeof(double)) != 0 ||
            std::memcmp(&a.mn[i], &b.mn[i], sizeof(double)) != 0 ||
            std::memcmp(&a.mx[i], &b.mx[i], sizeof(double)) != 0)
            return false;
    }
    return a.next == b.next;
}

TEST(WelfordKernel, BitIdenticalAcrossIsasAndTails)
{
    const std::vector<double> xs = welfordSamples(1000);
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8},
                          std::size_t{15}, std::size_t{1000}}) {
        // Start from a non-trivial cursor to exercise the peel.
        for (std::uint32_t cursor = 0; cursor < kSummaryLanes;
             ++cursor) {
            SummaryLanes ref;
            for (std::uint32_t c = 0; c < cursor; ++c)
                ref.add(3.5); // advance the cursor the slow way
            SummaryLanes seed = ref;
            detail::kScalarOps.welford_add(ref, xs.data(), n);
            for (Isa isa : supportedIsas()) {
                IsaGuard guard;
                force(isa);
                SummaryLanes got = seed;
                ops().welford_add(got, xs.data(), n);
                ASSERT_TRUE(lanesBitEqual(ref, got))
                    << "isa=" << isaName(isa) << " n=" << n
                    << " cursor=" << cursor;
            }
        }
    }
}

TEST(WelfordKernel, BatchSplitInvariant)
{
    // Chunking must not change a single bit: lane membership follows
    // the global element index, not the batch shape.
    const std::vector<double> xs = welfordSamples(613);
    SummaryLanes whole;
    whole.addBatch(xs.data(), xs.size());
    for (std::size_t cut : {std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{100},
                            std::size_t{612}}) {
        SummaryLanes split;
        split.addBatch(xs.data(), cut);
        split.addBatch(xs.data() + cut, xs.size() - cut);
        ASSERT_TRUE(lanesBitEqual(whole, split)) << "cut=" << cut;
    }
    // And the one-element path is the same tree again.
    SummaryLanes ones;
    for (double x : xs)
        ones.add(x);
    ASSERT_TRUE(lanesBitEqual(whole, ones));
}

TEST(SummaryLanesState, SaveLoadRoundTrip)
{
    const std::vector<double> xs = welfordSamples(41);
    SummaryLanes a;
    a.addBatch(xs.data(), xs.size());
    std::string blob;
    BinEnc enc(blob);
    a.saveState(enc);
    BinDec dec(blob.data(), blob.size());
    SummaryLanes b;
    ASSERT_TRUE(b.loadState(dec));
    ASSERT_TRUE(lanesBitEqual(a, b));
    ASSERT_EQ(a.count(), b.count());

    // Truncated blob fails cleanly.
    BinDec short_dec(blob.data(), blob.size() - 1);
    SummaryLanes c;
    ASSERT_FALSE(c.loadState(short_dec));
}

TEST(CountEqAndSumKernels, MatchScalar)
{
    Rng rng(0x515151);
    std::vector<std::uint8_t> flags(517);
    std::vector<std::uint32_t> vals(517);
    for (std::size_t i = 0; i < flags.size(); ++i) {
        flags[i] = static_cast<std::uint8_t>(rng.next() % 3);
        vals[i] = static_cast<std::uint32_t>(rng.next());
    }
    for (std::size_t n = 0; n <= flags.size();
         n += (n < 70 ? 1 : 37)) {
        const std::uint64_t ref_cnt =
            detail::kScalarOps.count_eq_u8(flags.data(), n, 1);
        const std::uint64_t ref_sum =
            detail::kScalarOps.sum_u32(vals.data(), n);
        std::uint64_t expect_cnt = 0, expect_sum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            expect_cnt += flags[i] == 1 ? 1 : 0;
            expect_sum += vals[i];
        }
        ASSERT_EQ(ref_cnt, expect_cnt);
        ASSERT_EQ(ref_sum, expect_sum);
        for (Isa isa : supportedIsas()) {
            IsaGuard guard;
            force(isa);
            ASSERT_EQ(ops().count_eq_u8(flags.data(), n, 1), ref_cnt)
                << "isa=" << isaName(isa) << " n=" << n;
            ASSERT_EQ(ops().sum_u32(vals.data(), n), ref_sum)
                << "isa=" << isaName(isa) << " n=" << n;
        }
    }
}

TEST(HistogramBatch, IdenticalToSequentialAdds)
{
    const std::vector<double> xs = binningSamples();
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);

        LinearHistogram lin_ref(1.0, 100.0, 33);
        for (double x : xs)
            lin_ref.add(x);
        LinearHistogram lin_got(1.0, 100.0, 33);
        lin_got.addBatch(xs.data(), xs.size());
        ASSERT_EQ(lin_ref.total(), lin_got.total());
        ASSERT_EQ(lin_ref.underflow(), lin_got.underflow());
        ASSERT_EQ(lin_ref.overflow(), lin_got.overflow());
        for (std::size_t i = 0; i < lin_ref.binCount(); ++i)
            ASSERT_EQ(lin_ref.binWeight(i), lin_got.binWeight(i))
                << "isa=" << isaName(isa) << " bin=" << i;

        LogHistogram log_ref(1e-3, 1e4, 8);
        for (double x : xs)
            log_ref.add(x);
        LogHistogram log_got(1e-3, 1e4, 8);
        log_got.addBatch(xs.data(), xs.size());
        ASSERT_EQ(log_ref.total(), log_got.total());
        ASSERT_EQ(log_ref.underflow(), log_got.underflow());
        ASSERT_EQ(log_ref.overflow(), log_got.overflow());
        for (std::size_t i = 0; i < log_ref.binCount(); ++i)
            ASSERT_EQ(log_ref.binWeight(i), log_got.binWeight(i))
                << "isa=" << isaName(isa) << " bin=" << i;
    }
}

TEST(Dispatch, EnvOverrideSelectsScalar)
{
    IsaGuard guard;
    ASSERT_EQ(setenv("DLW_SIMD", "scalar", 1), 0);
    configureFromEnv();
    EXPECT_EQ(activeIsa(), Isa::kScalar);
    EXPECT_EQ(&ops(), &detail::kScalarOps);

    ASSERT_EQ(setenv("DLW_SIMD", "auto", 1), 0);
    configureFromEnv();
    EXPECT_EQ(activeIsa(), bestSupported());

    // Unknown values, the retired "sse2" among them, warn and fall
    // back to auto.
    for (const char *value : {"bogus", "sse2"}) {
        ASSERT_EQ(setenv("DLW_SIMD", value, 1), 0);
        configureFromEnv();
        EXPECT_EQ(activeIsa(), bestSupported()) << value;
    }
    ASSERT_EQ(unsetenv("DLW_SIMD"), 0);
}

TEST(Dispatch, ForceClampsUnsupported)
{
    IsaGuard guard;
    for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
        force(isa);
        if (supported(isa))
            EXPECT_EQ(activeIsa(), isa);
        else
            EXPECT_EQ(activeIsa(), bestSupported());
    }
    EXPECT_EQ(isaName(Isa::kScalar), std::string("scalar"));
    EXPECT_EQ(isaName(Isa::kAvx2), std::string("avx2"));
}

/** Synthesize a bursty trace for the accumulator-level checks. */
trace::MsTrace
syntheticTrace(std::size_t n)
{
    std::vector<Tick> arrivals = burstyArrivals(n, 0);
    trace::MsTrace tr;
    Rng rng(0xabcdef);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        trace::Request r;
        r.arrival = arrivals[i];
        r.lba = rng.next() % (1u << 24);
        r.blocks = 1 + static_cast<BlockCount>(rng.next() % 256);
        r.op = rng.next() % 3 ? trace::Op::Write : trace::Op::Read;
        tr.appendExtending(r);
    }
    return tr;
}

TEST(AccumulatorIdentity, FullReportsMatchAcrossIsas)
{
    const trace::MsTrace tr = syntheticTrace(6000);

    struct Result
    {
        core::BurstinessReport burst;
        core::RwDynamics rw;
        std::size_t totals_n = 0;
        std::uint64_t totals_bytes = 0;
    };
    std::vector<Result> results;
    for (Isa isa : supportedIsas()) {
        IsaGuard guard;
        force(isa);
        core::BurstinessAccumulator burst;
        core::RwMixAccumulator rw;
        core::TraceTotalsAccumulator totals;
        trace::MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(burst);
        pass.add(rw);
        pass.add(totals);
        ASSERT_TRUE(pass.run(src).ok());
        Result r;
        r.burst = burst.report();
        r.rw = rw.report();
        r.totals_n = totals.count();
        r.totals_bytes = totals.totalBytes();
        results.push_back(std::move(r));
    }
    ASSERT_FALSE(results.empty());
    const Result &ref = results.front();
    for (std::size_t i = 1; i < results.size(); ++i) {
        const Result &got = results[i];
        // Byte-identity: every derived figure must match exactly.
        EXPECT_EQ(ref.burst.interarrival_cv, got.burst.interarrival_cv);
        EXPECT_EQ(ref.burst.peak_to_mean, got.burst.peak_to_mean);
        ASSERT_EQ(ref.burst.idc.size(), got.burst.idc.size());
        for (std::size_t j = 0; j < ref.burst.idc.size(); ++j)
            EXPECT_EQ(ref.burst.idc[j].idc, got.burst.idc[j].idc);
        EXPECT_EQ(ref.rw.read_fraction, got.rw.read_fraction);
        EXPECT_EQ(ref.rw.mean_run_length, got.rw.mean_run_length);
        EXPECT_EQ(ref.rw.longest_write_run, got.rw.longest_write_run);
        EXPECT_EQ(ref.rw.write_bursts, got.rw.write_bursts);
        EXPECT_EQ(ref.rw.read_fraction_series,
                  got.rw.read_fraction_series);
        EXPECT_EQ(ref.totals_n, got.totals_n);
        EXPECT_EQ(ref.totals_bytes, got.totals_bytes);
    }
}

TEST(AccumulatorIdentity, BatchSizeDoesNotChangeBurstiness)
{
    const trace::MsTrace tr = syntheticTrace(5000);
    std::vector<double> cvs;
    for (std::size_t batch : {std::size_t{1}, std::size_t{3},
                              std::size_t{64}, std::size_t{4096}}) {
        core::BurstinessAccumulator acc;
        trace::MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(acc);
        ASSERT_TRUE(pass.run(src, batch).ok());
        cvs.push_back(acc.report().interarrival_cv);
    }
    for (std::size_t i = 1; i < cvs.size(); ++i)
        EXPECT_EQ(cvs[0], cvs[i]);
}

} // anonymous namespace
} // namespace simd
} // namespace stats
} // namespace dlw
