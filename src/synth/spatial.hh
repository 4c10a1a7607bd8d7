/**
 * @file
 * Spatial-locality models for LBA placement.
 *
 * Where requests land determines seek behaviour and therefore busy
 * time: uniform placement maximizes seeks, Zipf hotspots concentrate
 * them, and sequential runs eliminate them.  Each model produces the
 * starting LBA for a request of a given size.
 */

#ifndef DLW_SYNTH_SPATIAL_HH
#define DLW_SYNTH_SPATIAL_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace dlw
{
namespace synth
{

/**
 * Abstract LBA placement model.
 */
class SpatialModel
{
  public:
    virtual ~SpatialModel() = default;

    /**
     * Choose the starting LBA of the next request.
     *
     * @param rng    Random source.
     * @param blocks Size of the request (the returned LBA leaves the
     *               whole request inside the device).
     * @return Starting LBA.
     */
    virtual Lba nextLba(Rng &rng, BlockCount blocks) = 0;

    /** Device capacity this model places within. */
    virtual Lba capacity() const = 0;

    /** Reset run state. */
    virtual void reset() {}
};

/**
 * Uniformly random placement over the whole device.
 */
class UniformSpatial : public SpatialModel
{
  public:
    /** @param capacity Device capacity in blocks (> 0). */
    explicit UniformSpatial(Lba capacity);

    Lba nextLba(Rng &rng, BlockCount blocks) override;
    Lba capacity() const override { return capacity_; }

  private:
    Lba capacity_;
};

/**
 * Zipf-weighted hotspots: the device is divided into fixed-size
 * extents whose popularity follows a Zipf law over a random
 * permutation, modeling hot database tables and cold archives.
 */
class ZipfHotspot : public SpatialModel
{
  public:
    /**
     * @param capacity  Device capacity in blocks.
     * @param extents   Number of popularity extents (>= 2).
     * @param skew      Zipf exponent (0 = uniform).
     * @param perm_seed Seed of the popularity-to-location shuffle.
     */
    ZipfHotspot(Lba capacity, std::size_t extents, double skew,
                std::uint64_t perm_seed);

    Lba nextLba(Rng &rng, BlockCount blocks) override;
    Lba capacity() const override { return capacity_; }

  private:
    Lba capacity_;
    std::size_t extents_;
    ZipfSampler zipf_;
    std::vector<std::uint32_t> perm_;
};

/**
 * Sequential runs: each run continues the previous request's end
 * LBA; runs end with a fixed probability per request, whereupon a
 * new run starts at a uniformly random location.  Produces the
 * high sequential fractions of streaming and backup workloads.
 */
class SequentialRuns : public SpatialModel
{
  public:
    /**
     * @param capacity      Device capacity in blocks.
     * @param continue_prob Probability the run continues (in [0,1)).
     */
    SequentialRuns(Lba capacity, double continue_prob);

    Lba nextLba(Rng &rng, BlockCount blocks) override;
    Lba capacity() const override { return capacity_; }
    void reset() override;

  private:
    Lba capacity_;
    double continue_prob_;
    Lba next_ = 0;
    bool in_run_ = false;
};

/**
 * Mixture of two spatial models chosen per request.
 */
class MixedSpatial : public SpatialModel
{
  public:
    /**
     * @param a      First model (owned).
     * @param b      Second model (owned, same capacity).
     * @param a_prob Probability of drawing from the first model.
     */
    MixedSpatial(std::unique_ptr<SpatialModel> a,
                 std::unique_ptr<SpatialModel> b, double a_prob);

    Lba nextLba(Rng &rng, BlockCount blocks) override;
    Lba capacity() const override;
    void reset() override;

  private:
    std::unique_ptr<SpatialModel> a_;
    std::unique_ptr<SpatialModel> b_;
    double a_prob_;
};

} // namespace synth
} // namespace dlw

#endif // DLW_SYNTH_SPATIAL_HH
