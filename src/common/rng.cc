#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace dlw
{

namespace
{

/** SplitMix64 finalizer: bijective avalanche over 64 bits. */
std::uint64_t
splitmix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
    : engine_(seed), seed_(seed)
{
}

void
Rng::reseed(std::uint64_t seed)
{
    engine_.seed(seed);
    seed_ = seed;
}

Rng
Rng::fork()
{
    // SplitMix-style scramble of a fresh draw keeps forked streams
    // decorrelated from both the parent and each other.
    return Rng(splitmix(engine_() + 0x9e3779b97f4a7c15ULL));
}

Rng
Rng::fork(std::uint64_t stream) const
{
    // Keyed on (seed, stream) only: a stateless counter-mode fork.
    // The golden-ratio stride separates consecutive streams before
    // the avalanche so neighbouring drive indices land far apart.
    return Rng(splitmix(seed_ + (stream + 1) * 0x9e3779b97f4a7c15ULL));
}

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
Rng::uniform(double lo, double hi)
{
    dlw_assert(lo <= hi, "uniform bounds inverted");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    dlw_assert(lo <= hi, "uniformInt bounds inverted");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return std::bernoulli_distribution(p)(engine_);
}

double
Rng::exponential(double mean)
{
    dlw_assert(mean > 0.0, "exponential mean must be positive");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    return std::normal_distribution<double>(mean, stddev)(engine_);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double
Rng::pareto(double shape, double scale)
{
    dlw_assert(shape > 0.0 && scale > 0.0, "pareto parameters invalid");
    double u = 1.0 - uniform(); // in (0, 1]
    return scale / std::pow(u, 1.0 / shape);
}

double
Rng::boundedPareto(double shape, double scale, double bound)
{
    dlw_assert(shape > 0.0 && scale > 0.0 && bound > scale,
               "boundedPareto parameters invalid");
    // Inverse-CDF of the truncated Pareto.
    double l_a = std::pow(scale, shape);
    double h_a = std::pow(bound, shape);
    double u = uniform();
    double x = -(u * h_a - u * l_a - h_a) / (h_a * l_a);
    return std::pow(x, -1.0 / shape);
}

double
Rng::weibull(double shape, double scale)
{
    dlw_assert(shape > 0.0 && scale > 0.0, "weibull parameters invalid");
    return std::weibull_distribution<double>(shape, scale)(engine_);
}

std::int64_t
Rng::poisson(double mean)
{
    dlw_assert(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

std::int64_t
Rng::geometric(double p)
{
    dlw_assert(p > 0.0 && p <= 1.0, "geometric probability invalid");
    return std::geometric_distribution<std::int64_t>(p)(engine_);
}

std::int64_t
Rng::zipf(std::int64_t n, double s)
{
    return ZipfSampler(n, s).draw(*this);
}

namespace
{

// Rejection-inversion (Hormann & Derflinger).  H(x) is an integrable
// upper envelope of the zipf pmf over ranks 1..n.

double
zipfH(double s, double x)
{
    return std::pow(x, -s);
}

double
zipfBigH(double s, double x)
{
    if (s == 1.0)
        return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
}

double
zipfBigHinv(double s, double y)
{
    if (s == 1.0)
        return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
}

} // anonymous namespace

ZipfSampler::ZipfSampler(std::int64_t n, double s) : n_(n), s_(s)
{
    if (n > 1 && s > 0.0) {
        h_x1_ = zipfBigH(s, 1.5) - zipfH(s, 1.0);
        big_h_n_ = zipfBigH(s, static_cast<double>(n) + 0.5);
    }
}

std::int64_t
ZipfSampler::draw(Rng &rng) const
{
    dlw_assert(n_ > 0, "zipf population must be positive");
    if (n_ == 1)
        return 0;
    if (s_ <= 0.0)
        return rng.uniformInt(0, n_ - 1);

    for (int attempt = 0; attempt < 10000; ++attempt) {
        double u = h_x1_ + rng.uniform() * (big_h_n_ - h_x1_);
        double x = zipfBigHinv(s_, u);
        std::int64_t k = static_cast<std::int64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        double kd = static_cast<double>(k);
        if (kd - x <= 0.5 || u >= zipfBigH(s_, kd + 0.5) - zipfH(s_, kd))
            return k - 1;
    }
    dlw_panic("zipf rejection sampling failed to converge");
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    dlw_assert(!weights.empty(), "discrete needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
        dlw_assert(w >= 0.0, "discrete weight must be non-negative");
        total += w;
    }
    dlw_assert(total > 0.0, "discrete weights sum to zero");
    double u = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (u < acc)
            return i;
    }
    return weights.size() - 1;
}

} // namespace dlw
