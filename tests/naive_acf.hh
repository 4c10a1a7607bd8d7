/**
 * @file
 * The serial sample autocorrelation, kept as a test-only
 * differential oracle.
 *
 * This is stats::autocorrelation as it stood before lags were
 * computed in blocks: one serial sum per lag, centring each product
 * on the fly.  AcfOracle tests require the production function to
 * return the same doubles, bit for bit.  Do not optimize it.
 */

#ifndef DLW_TESTS_NAIVE_ACF_HH
#define DLW_TESTS_NAIVE_ACF_HH

#include <cstddef>
#include <vector>

#include "stats/acf.hh"

namespace dlw
{
namespace stats
{
namespace naive
{

/** The reference autocorrelation (same contract as the real one). */
std::vector<double> autocorrelation(const std::vector<double> &xs,
                                    std::size_t max_lag);

/** dominantPeriod over the reference autocorrelation. */
Periodicity dominantPeriod(const std::vector<double> &xs,
                           std::size_t min_lag, std::size_t max_lag);

} // namespace naive
} // namespace stats
} // namespace dlw

#endif // DLW_TESTS_NAIVE_ACF_HH
