/**
 * @file
 * Deterministic random-number generation for workload synthesis.
 *
 * Every stochastic component in dlw draws from an Rng handed to it by
 * its owner, so a whole experiment is reproducible from a single seed.
 * The class wraps std::mt19937_64 and adds the distributions the
 * synthetic-trace generators need (including heavy-tailed ones that
 * the standard library does not provide directly).
 */

#ifndef DLW_COMMON_RNG_HH
#define DLW_COMMON_RNG_HH

#include <cstdint>
#include <random>
#include <vector>

namespace dlw
{

/**
 * Seedable random source with the distribution menu used across dlw.
 */
class Rng
{
  public:
    /** Construct from an explicit seed (default gives a fixed seed). */
    explicit Rng(std::uint64_t seed = 0x5eedf00dULL);

    /** Re-seed the underlying engine. */
    void reseed(std::uint64_t seed);

    /**
     * Derive an independent child generator.
     *
     * Each call produces a different stream; used to give every drive
     * in a family its own reproducible source.
     *
     * @return A freshly seeded Rng decorrelated from this one.
     */
    Rng fork();

    /**
     * Derive the child generator for a named stream.
     *
     * Unlike fork(), this is keyed purely on (seed, stream): it does
     * not consume parent state, so the same (seed, stream) pair
     * always yields the same child no matter how much the parent has
     * been used or in what order streams are forked.  This is the
     * seeding contract the fleet engine relies on — drive k's stream
     * is fork(k) of the master seed, so shards may be generated on
     * any thread in any order and still reproduce bit-identically.
     *
     * @param stream Stream index (e.g. a drive index).
     * @return The child Rng for that stream.
     */
    Rng fork(std::uint64_t stream) const;

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Exponential variate with the given mean (mean > 0). */
    double exponential(double mean);

    /** Normal variate. */
    double normal(double mean, double stddev);

    /** Lognormal variate with the given log-space parameters. */
    double lognormal(double mu, double sigma);

    /**
     * Pareto (type I) variate.
     *
     * @param shape Tail index alpha (> 0); alpha <= 1 has no mean.
     * @param scale Minimum value x_m (> 0).
     * @return A sample from P(X > x) = (scale / x)^shape, x >= scale.
     */
    double pareto(double shape, double scale);

    /**
     * Bounded Pareto variate on [scale, bound].
     *
     * Heavy-tailed but with finite support, handy for request sizes
     * and idle periods that are physically capped.
     */
    double boundedPareto(double shape, double scale, double bound);

    /** Weibull variate with the given shape and scale. */
    double weibull(double shape, double scale);

    /** Poisson count with the given mean. */
    std::int64_t poisson(double mean);

    /** Geometric count (number of failures before first success). */
    std::int64_t geometric(double p);

    /**
     * Zipf-distributed integer in [0, n).
     *
     * Uses rejection-inversion sampling; exact for any exponent >= 0.
     *
     * @param n Population size.
     * @param s Skew exponent (0 = uniform; ~1 = classic Zipf).
     * @return A rank in [0, n) with P(k) proportional to 1/(k+1)^s.
     *
     * Sets up a ZipfSampler per call; hold one to draw repeatedly.
     */
    std::int64_t zipf(std::int64_t n, double s);

    /**
     * Sample an index according to the given non-negative weights.
     *
     * @param weights Relative weights; need not be normalized.
     * @return Index in [0, weights.size()).
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Access the raw engine for use with std:: distributions. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
    /** Seed the engine was last (re)seeded with; keys fork(stream). */
    std::uint64_t seed_;
};

/**
 * Zipf sampler for one (n, s): Rng::zipf with the rejection envelope's
 * constants computed once, not on every draw.  Draws are identical to
 * Rng::zipf(n, s) on the same Rng, double for double.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Population size (> 0, checked at each draw).
     * @param s Skew exponent (0 = uniform; ~1 = classic Zipf).
     */
    ZipfSampler(std::int64_t n, double s);

    /** A rank in [0, n) with P(k) proportional to 1/(k+1)^s. */
    std::int64_t draw(Rng &rng) const;

  private:
    std::int64_t n_;
    double s_;
    double h_x1_ = 0.0;
    double big_h_n_ = 0.0;
};

} // namespace dlw

#endif // DLW_COMMON_RNG_HH
