/**
 * @file
 * Unit tests for stats/acf.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "naive_acf.hh"
#include "stats/acf.hh"
#include "synth/bmodel.hh"
#include "synth/diurnal.hh"

namespace dlw
{
namespace stats
{
namespace
{

TEST(Acf, LagZeroIsOne)
{
    std::vector<double> xs = {1.0, 3.0, 2.0, 5.0, 4.0};
    auto acf = autocorrelation(xs, 2);
    ASSERT_EQ(acf.size(), 3u);
    EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(Acf, IidIsNearZero)
{
    Rng rng(1);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(rng.normal(0.0, 1.0));
    auto acf = autocorrelation(xs, 10);
    for (std::size_t k = 1; k <= 10; ++k)
        EXPECT_NEAR(acf[k], 0.0, 0.02) << "lag " << k;
}

TEST(Acf, Ar1HasGeometricDecay)
{
    // x_t = 0.8 x_{t-1} + e_t has acf(k) ~ 0.8^k.
    Rng rng(2);
    std::vector<double> xs;
    double x = 0.0;
    for (int i = 0; i < 100000; ++i) {
        x = 0.8 * x + rng.normal(0.0, 1.0);
        xs.push_back(x);
    }
    auto acf = autocorrelation(xs, 5);
    EXPECT_NEAR(acf[1], 0.8, 0.03);
    EXPECT_NEAR(acf[2], 0.64, 0.04);
    EXPECT_NEAR(acf[3], 0.512, 0.05);
}

TEST(Acf, AlternatingSeriesIsNegative)
{
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i)
        xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
    auto acf = autocorrelation(xs, 2);
    EXPECT_NEAR(acf[1], -1.0, 0.01);
    EXPECT_NEAR(acf[2], 1.0, 0.01);
}

TEST(Acf, ConstantSeriesIsAllZero)
{
    std::vector<double> xs(100, 5.0);
    auto acf = autocorrelation(xs, 5);
    for (double v : acf)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Acf, MaxLagClamped)
{
    std::vector<double> xs = {1.0, 2.0, 3.0};
    auto acf = autocorrelation(xs, 100);
    EXPECT_EQ(acf.size(), 3u); // lags 0..2
}

TEST(DecorrelationLag, FindsFirstDrop)
{
    std::vector<double> acf = {1.0, 0.8, 0.5, 0.05, 0.2};
    EXPECT_EQ(decorrelationLag(acf, 0.1), 3u);
}

TEST(DecorrelationLag, NeverDropsReturnsSize)
{
    std::vector<double> acf = {1.0, 0.9, 0.8};
    EXPECT_EQ(decorrelationLag(acf, 0.1), 3u);
}

TEST(AcfDeathTest, TooFewSamples)
{
    std::vector<double> xs = {1.0};
    EXPECT_DEATH(autocorrelation(xs, 1), ">= 2");
}

TEST(DominantPeriod, RecoversSinusoidPeriod)
{
    Rng rng(7);
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        xs.push_back(10.0 + 5.0 * std::sin(2.0 * M_PI * i / 24.0) +
                     rng.normal(0.0, 1.0));
    }
    auto p = dominantPeriod(xs, 2, 100);
    EXPECT_EQ(p.period, 24u);
    EXPECT_GT(p.strength, 0.5);
}

TEST(DominantPeriod, WeeklyCycleAtLongerLags)
{
    Rng rng(8);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i) {
        double v = 10.0 + 4.0 * std::sin(2.0 * M_PI * i / 24.0);
        if ((i / 24) % 7 >= 5)
            v *= 0.3; // weekend damping
        xs.push_back(v + rng.normal(0.0, 0.5));
    }
    // Restricting the search beyond a day finds the weekly beat.
    auto p = dominantPeriod(xs, 48, 400);
    EXPECT_EQ(p.period % 168, 0u);
}

TEST(DominantPeriod, NoiseHasNoStrongPeak)
{
    Rng rng(9);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i)
        xs.push_back(rng.normal(0.0, 1.0));
    auto p = dominantPeriod(xs, 2, 200);
    EXPECT_LT(p.strength, 0.1);
}

TEST(DominantPeriodDeathTest, BadRanges)
{
    std::vector<double> xs(100, 1.0);
    EXPECT_DEATH(dominantPeriod(xs, 1, 10), ">= 2");
    EXPECT_DEATH(dominantPeriod(xs, 10, 5), "inverted");
    EXPECT_DEATH(dominantPeriod(xs, 2, 60), "too short");
}

/** Same length and the same bits in every entry. */
void
expectBitIdentical(const std::vector<double> &got,
                   const std::vector<double> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(want[k]))
            << "lag " << k << ": " << got[k] << " vs " << want[k];
    }
}

void
expectAcfMatchesOracle(const std::vector<double> &xs, std::size_t max_lag)
{
    SCOPED_TRACE("n " + std::to_string(xs.size()) + " max_lag " +
                 std::to_string(max_lag));
    expectBitIdentical(autocorrelation(xs, max_lag),
                       naive::autocorrelation(xs, max_lag));
}

TEST(AcfOracle, EveryLengthAndLagCount)
{
    // Lengths 2..300 and lag counts on both sides of every block
    // boundary, including clamped ones past the series.
    Rng rng(31);
    for (std::size_t n = 2; n <= 300; ++n) {
        std::vector<double> xs;
        double ar = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            ar = 0.7 * ar + rng.normal(0.0, 1.0);
            xs.push_back(100.0 + ar + (i % 7 == 0 ? 5.0 : 0.0));
        }
        for (std::size_t lag : {std::size_t{0}, std::size_t{1}, n / 4,
                                std::size_t{31}, std::size_t{32},
                                std::size_t{33}, std::size_t{64},
                                std::size_t{65}, std::size_t{200}, n - 1,
                                n, n + 40}) {
            expectAcfMatchesOracle(xs, lag);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(AcfOracle, ConstantAndTwoValueSeries)
{
    expectAcfMatchesOracle(std::vector<double>(50, 3.25), 49);
    expectAcfMatchesOracle(std::vector<double>(2, 0.0), 5);
    expectAcfMatchesOracle({1.0, 2.0}, 1);
    std::vector<double> alt;
    for (int i = 0; i < 101; ++i)
        alt.push_back(i % 2 ? -1.0 : 1.0);
    expectAcfMatchesOracle(alt, 100);
}

TEST(AcfOracle, LongBModelCountSeries)
{
    // The shape burstiness analysis feeds it: ~96k 10 ms bins of
    // bursty counts, 200 lags.
    Rng rng(32);
    const synth::BModel bm(0.72, 17);
    const std::vector<std::uint64_t> counts = bm.counts(rng, 2000000);
    const std::vector<double> xs(counts.begin(), counts.begin() + 96000);
    expectAcfMatchesOracle(xs, 200);
    expectAcfMatchesOracle(xs, 97);
}

TEST(AcfOracle, DominantPeriodOnDiurnalFixtures)
{
    // Hourly rates of the enterprise diurnal/weekly shape over eight
    // weeks, plain and with noise, and the sinusoid fixtures above.
    const synth::RateFunction rate = synth::DiurnalShape{}.build();
    Rng rng(33);
    std::vector<double> clean;
    std::vector<double> noisy;
    for (int h = 0; h < 8 * 168; ++h) {
        const double r = synth::meanRateOver(rate, h * kHour, kHour);
        clean.push_back(r);
        noisy.push_back(r + rng.normal(0.0, 0.05));
    }
    std::vector<double> sine;
    for (int i = 0; i < 1000; ++i) {
        sine.push_back(10.0 + 5.0 * std::sin(2.0 * M_PI * i / 24.0) +
                       rng.normal(0.0, 1.0));
    }
    struct Case
    {
        const std::vector<double> *xs;
        std::size_t min_lag;
        std::size_t max_lag;
    };
    for (const Case &c : {Case{&clean, 2, 100}, Case{&clean, 48, 400},
                          Case{&noisy, 2, 100}, Case{&noisy, 48, 400},
                          Case{&sine, 2, 100}}) {
        const Periodicity got = dominantPeriod(*c.xs, c.min_lag, c.max_lag);
        const Periodicity want =
            naive::dominantPeriod(*c.xs, c.min_lag, c.max_lag);
        EXPECT_EQ(got.period, want.period);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.strength),
                  std::bit_cast<std::uint64_t>(want.strength));
    }
    EXPECT_EQ(dominantPeriod(clean, 2, 100).period, 24u);
    EXPECT_EQ(dominantPeriod(clean, 48, 400).period, 168u);
}

} // anonymous namespace
} // namespace stats
} // namespace dlw
