/**
 * @file
 * The serial autocorrelation, verbatim apart from names, as a
 * test-only oracle (see naive_acf.hh).
 */

#include "naive_acf.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{
namespace naive
{

std::vector<double>
autocorrelation(const std::vector<double> &xs, std::size_t max_lag)
{
    dlw_assert(xs.size() >= 2, "autocorrelation needs >= 2 samples");
    max_lag = std::min(max_lag, xs.size() - 1);

    const double n = static_cast<double>(xs.size());
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= n;

    double c0 = 0.0;
    for (double x : xs)
        c0 += (x - mean) * (x - mean);
    c0 /= n;

    std::vector<double> out(max_lag + 1, 0.0);
    if (c0 == 0.0)
        return out;

    out[0] = 1.0;
    for (std::size_t k = 1; k <= max_lag; ++k) {
        double ck = 0.0;
        for (std::size_t t = 0; t + k < xs.size(); ++t)
            ck += (xs[t] - mean) * (xs[t + k] - mean);
        ck /= n;
        out[k] = ck / c0;
    }
    return out;
}

Periodicity
dominantPeriod(const std::vector<double> &xs, std::size_t min_lag,
               std::size_t max_lag)
{
    const std::vector<double> acf = autocorrelation(xs, max_lag);
    Periodicity best;
    for (std::size_t k = min_lag; k < max_lag; ++k) {
        if (acf[k] > acf[k - 1] && acf[k] >= acf[k + 1] &&
            acf[k] > best.strength) {
            best.period = k;
            best.strength = acf[k];
        }
    }
    return best;
}

} // namespace naive
} // namespace stats
} // namespace dlw
