/**
 * @file
 * Zoned disk geometry.
 *
 * Maps logical block addresses onto a physical layout: zones of
 * constant sectors-per-track laid out from the (faster) outer
 * diameter inward, a cylinder index per LBA, and the angular position
 * of a block on its track.  The mechanical service-time model is
 * built on these three queries.
 */

#ifndef DLW_DISK_GEOMETRY_HH
#define DLW_DISK_GEOMETRY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dlw
{
namespace disk
{

/**
 * One recording zone: a contiguous LBA range with constant track
 * capacity.
 */
struct Zone
{
    /** First LBA of the zone. */
    Lba start = 0;
    /** One past the last LBA of the zone. */
    Lba end = 0;
    /** Blocks per track inside this zone. */
    std::uint32_t sectors_per_track = 0;

    /** Number of blocks in the zone. */
    Lba blocks() const { return end - start; }

    /** Number of whole-or-partial tracks in the zone. */
    std::uint64_t
    tracks() const
    {
        return (blocks() + sectors_per_track - 1) / sectors_per_track;
    }
};

/**
 * Complete drive geometry: zones plus spindle speed.
 */
class DiskGeometry
{
  public:
    /**
     * @param zones Zone table; must be contiguous from LBA 0.
     * @param rpm   Spindle speed in revolutions per minute.
     */
    DiskGeometry(std::vector<Zone> zones, std::uint32_t rpm);

    /**
     * A 2006-era enterprise drive: 15k RPM, outer tracks about 60%
     * denser than inner, sized to the requested capacity.
     *
     * @param capacity_gib Usable capacity in GiB (>= 1).
     * @return Geometry with four zones.
     */
    static DiskGeometry makeEnterprise(std::uint32_t capacity_gib = 146);

    /**
     * A 7200 RPM nearline drive with higher capacity and slower
     * spindle, for cross-drive-class comparisons.
     */
    static DiskGeometry makeNearline(std::uint32_t capacity_gib = 500);

    /** Spindle speed. */
    std::uint32_t rpm() const { return rpm_; }

    /** Time for one full revolution. */
    Tick rotationTime() const { return rotation_; }

    /** Total capacity in blocks. */
    Lba capacityBlocks() const { return capacity_; }

    /** Total cylinder count. */
    std::uint64_t cylinders() const { return cylinders_; }

    /** Zone table. */
    const std::vector<Zone> &zones() const { return zones_; }

    /**
     * Index in zones() of the zone containing an LBA (fatal when out
     * of range), found by counting the zone ends at or below it, with
     * no data-dependent branch.
     */
    std::size_t zoneIndex(Lba lba) const;

    /** Zone containing an LBA (fatal when out of range). */
    const Zone &zoneOf(Lba lba) const { return zones_[zoneIndex(lba)]; }

    /** First cylinder of zone i. */
    std::uint64_t zoneFirstCylinder(std::size_t i) const
    {
        return zone_first_cyl_[i];
    }

    /** Cylinder index of an LBA. */
    std::uint64_t cylinderOf(Lba lba) const;

    /** Angular position of an LBA on its track, in [0, 1). */
    double angleOf(Lba lba) const;

    /**
     * Media transfer time for a contiguous run of blocks starting at
     * the given LBA (includes track-to-track rotation but not seek
     * or initial rotational latency).
     */
    Tick transferTime(Lba lba, BlockCount blocks) const
    {
        return transferTime(zoneIndex(lba), lba, blocks);
    }

    /**
     * transferTime() for an LBA already known to lie in zone `zone`,
     * so a caller that has located it need not look the zone up
     * again.
     */
    Tick transferTime(std::size_t zone, Lba lba, BlockCount blocks) const;

    /**
     * Sustained sequential bandwidth at an LBA, in bytes/second.
     */
    double bandwidthAt(Lba lba) const;

    /** Peak sustained bandwidth (outermost zone), bytes/second. */
    double peakBandwidth() const;

  private:
    std::vector<Zone> zones_;
    std::uint32_t rpm_;
    Tick rotation_;
    Lba capacity_;
    std::uint64_t cylinders_;
    /** First cylinder index of each zone (parallel to zones_). */
    std::vector<std::uint64_t> zone_first_cyl_;
    /** End LBA of each zone (parallel to zones_), for zoneIndex. */
    std::vector<Lba> zone_end_;
};

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_GEOMETRY_HH
