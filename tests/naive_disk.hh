/**
 * @file
 * The drive cache and mechanical model before their scans became
 * branch-free, kept as test-only differential oracles.
 *
 * naive::DiskCache is the array-of-structs segment table with a
 * `valid` flag, scanned with early exits.  The geometry functions
 * walk the zone table once per query, and naive::DiskModel::access
 * looks the zone up three times (cylinder, angle, transfer) and
 * folds the platter phase with two modulos.  Their behaviour is the
 * reference: CacheOracle and ModelOracle require the production
 * classes to return the same values for the same calls, and the
 * naive drive engine (naive_drive.hh) runs on these, so DriveOracle
 * shares no cache or model code with the engine it checks.  Do not
 * optimize them.
 */

#ifndef DLW_TESTS_NAIVE_DISK_HH
#define DLW_TESTS_NAIVE_DISK_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "disk/cache.hh"
#include "disk/model.hh"

namespace dlw
{
namespace disk
{
namespace naive
{

/** The segmented read cache and write buffer, as DiskCache was. */
class DiskCache
{
  public:
    explicit DiskCache(const CacheConfig &config);

    bool readHit(Lba lba, BlockCount blocks);
    void installReadSegment(Lba lba, BlockCount blocks);
    bool canBuffer(BlockCount blocks) const;
    void bufferWrite(Lba lba, BlockCount blocks);
    bool dirty() const { return !dirty_.empty(); }
    BlockCount dirtyBlocks() const { return dirty_blocks_; }
    std::size_t dirtyExtents() const { return dirty_.size(); }
    DirtyExtent popDestage();
    void clear();

  private:
    struct Segment
    {
        Lba start = 0;
        Lba end = 0;
        std::uint64_t last_use = 0;
        bool valid = false;
    };

    void invalidateOverlapping(Lba lba, BlockCount blocks);

    CacheConfig config_;
    std::vector<Segment> segments_;
    std::deque<DirtyExtent> dirty_;
    BlockCount dirty_blocks_ = 0;
    std::uint64_t use_clock_ = 0;
};

/** Cylinder of an LBA by a walk over the zone table. */
std::uint64_t cylinderOf(const DiskGeometry &g, Lba lba);

/** Angular position of an LBA on its track, in [0, 1). */
double angleOf(const DiskGeometry &g, Lba lba);

/** Media transfer time, one zone lookup per zone crossed. */
Tick transferTime(const DiskGeometry &g, Lba lba, BlockCount blocks);

/** The mechanical model over the zone-walk queries. */
class DiskModel
{
  public:
    DiskModel(DiskGeometry geometry, SeekModel seek);

    const DiskGeometry &geometry() const { return geometry_; }
    double angleAt(Tick t) const;
    MechanicalTime access(Tick now, std::uint64_t from_cylinder,
                          Lba lba, BlockCount blocks) const;
    std::uint64_t endCylinder(Lba lba, BlockCount blocks) const;

  private:
    DiskGeometry geometry_;
    SeekModel seek_;
};

} // namespace naive
} // namespace disk
} // namespace dlw

#endif // DLW_TESTS_NAIVE_DISK_HH
