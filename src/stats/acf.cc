#include "stats/acf.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

namespace
{

/** Lags computed together by autocorrelation(). */
constexpr std::size_t kLagBlock = 32;

} // anonymous namespace

std::vector<double>
autocorrelation(const std::vector<double> &xs, std::size_t max_lag)
{
    dlw_assert(xs.size() >= 2, "autocorrelation needs >= 2 samples");
    max_lag = std::min(max_lag, xs.size() - 1);

    const std::size_t len = xs.size();
    const double n = static_cast<double>(len);
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= n;

    // Centre once.  The zero tail lets a partial last block of lags
    // read past the series; the products it feeds are discarded.
    std::vector<double> d(len + kLagBlock - 1, 0.0);
    double c0 = 0.0;
    for (std::size_t t = 0; t < len; ++t) {
        d[t] = xs[t] - mean;
        c0 += d[t] * d[t];
    }
    c0 /= n;

    std::vector<double> out(max_lag + 1, 0.0);
    if (c0 == 0.0)
        return out; // constant series: no correlation structure

    out[0] = 1.0;
    // A block of lags at a time, one accumulator per lag, so the inner
    // loop runs across lags and vectorizes.  Each lag still adds its
    // products d[t] * d[t + k] in ascending t, the order of a serial
    // sum, so every value is bit-identical to one.
    for (std::size_t k0 = 1; k0 <= max_lag; k0 += kLagBlock) {
        const std::size_t lags = std::min(kLagBlock, max_lag + 1 - k0);
        double acc[kLagBlock] = {};
        // Up to `full`, every lag of the block has a partner.
        const std::size_t full = len - (k0 + lags - 1);
        for (std::size_t t = 0; t < full; ++t) {
            const double dt = d[t];
            const double *dk = &d[t + k0];
            for (std::size_t j = 0; j < kLagBlock; ++j)
                acc[j] += dt * dk[j];
        }
        // Past it, the shorter lags run on alone.
        for (std::size_t j = 0; j < lags; ++j) {
            for (std::size_t t = full; t + k0 + j < len; ++t)
                acc[j] += d[t] * d[t + k0 + j];
            out[k0 + j] = acc[j] / n / c0;
        }
    }
    return out;
}

std::size_t
decorrelationLag(const std::vector<double> &acf, double threshold)
{
    for (std::size_t k = 1; k < acf.size(); ++k) {
        if (acf[k] < threshold)
            return k;
    }
    return acf.size();
}

Periodicity
dominantPeriod(const std::vector<double> &xs, std::size_t min_lag,
               std::size_t max_lag)
{
    dlw_assert(min_lag >= 2, "minimum period must be >= 2");
    dlw_assert(max_lag > min_lag, "period range inverted");
    dlw_assert(xs.size() > 2 * max_lag,
               "series too short for the requested period range");

    const std::vector<double> acf = autocorrelation(xs, max_lag);

    Periodicity best;
    for (std::size_t k = min_lag; k < max_lag; ++k) {
        // A local peak that beats everything found so far.
        if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
            acf[k] > best.strength) {
            best.period = k;
            best.strength = acf[k];
        }
    }
    return best;
}

} // namespace stats
} // namespace dlw
