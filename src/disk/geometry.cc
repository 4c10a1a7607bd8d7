#include "disk/geometry.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

DiskGeometry::DiskGeometry(std::vector<Zone> zones, std::uint32_t rpm)
    : zones_(std::move(zones)), rpm_(rpm)
{
    dlw_assert(!zones_.empty(), "geometry needs at least one zone");
    dlw_assert(rpm_ > 0, "rpm must be positive");
    rotation_ = static_cast<Tick>(60.0 * kSec / rpm_);

    Lba expect = 0;
    cylinders_ = 0;
    for (const Zone &z : zones_) {
        dlw_assert(z.start == expect, "zones not contiguous from LBA 0");
        dlw_assert(z.end > z.start, "empty zone");
        dlw_assert(z.sectors_per_track > 0, "zone with zero track size");
        zone_first_cyl_.push_back(cylinders_);
        zone_end_.push_back(z.end);
        cylinders_ += z.tracks();
        expect = z.end;
    }
    capacity_ = expect;
}

DiskGeometry
DiskGeometry::makeEnterprise(std::uint32_t capacity_gib)
{
    dlw_assert(capacity_gib >= 1, "capacity must be at least 1 GiB");
    const Lba total =
        static_cast<Lba>(capacity_gib) * (1ULL << 30) / kBlockBytes;

    // Four zones, outer-to-inner, with track capacities descending
    // roughly 1.6:1 as on real zoned drives.  A 15k enterprise drive
    // of this era sustains ~125 MB/s outer, ~78 MB/s inner.
    const std::uint32_t spt[4] = {1000, 880, 760, 630};
    const double share[4] = {0.30, 0.27, 0.23, 0.20};

    std::vector<Zone> zones;
    Lba at = 0;
    for (int i = 0; i < 4; ++i) {
        Zone z;
        z.start = at;
        Lba len = i == 3
            ? total - at
            : static_cast<Lba>(share[i] * static_cast<double>(total));
        z.end = at + len;
        z.sectors_per_track = spt[i];
        zones.push_back(z);
        at = z.end;
    }
    return DiskGeometry(std::move(zones), 15000);
}

DiskGeometry
DiskGeometry::makeNearline(std::uint32_t capacity_gib)
{
    dlw_assert(capacity_gib >= 1, "capacity must be at least 1 GiB");
    const Lba total =
        static_cast<Lba>(capacity_gib) * (1ULL << 30) / kBlockBytes;

    const std::uint32_t spt[4] = {1400, 1220, 1050, 900};
    const double share[4] = {0.30, 0.27, 0.23, 0.20};

    std::vector<Zone> zones;
    Lba at = 0;
    for (int i = 0; i < 4; ++i) {
        Zone z;
        z.start = at;
        Lba len = i == 3
            ? total - at
            : static_cast<Lba>(share[i] * static_cast<double>(total));
        z.end = at + len;
        z.sectors_per_track = spt[i];
        zones.push_back(z);
        at = z.end;
    }
    return DiskGeometry(std::move(zones), 7200);
}

std::size_t
DiskGeometry::zoneIndex(Lba lba) const
{
    // Zones are contiguous from LBA 0, so the zone holding lba is the
    // number of zones ending at or below it.
    std::size_t i = 0;
    for (const Lba end : zone_end_)
        i += lba >= end;
    if (i == zone_end_.size())
        dlw_fatal("LBA ", lba, " beyond drive capacity ", capacity_);
    return i;
}

std::uint64_t
DiskGeometry::cylinderOf(Lba lba) const
{
    const std::size_t i = zoneIndex(lba);
    const Zone &z = zones_[i];
    return zone_first_cyl_[i] + (lba - z.start) / z.sectors_per_track;
}

double
DiskGeometry::angleOf(Lba lba) const
{
    const Zone &z = zoneOf(lba);
    const Lba offset = (lba - z.start) % z.sectors_per_track;
    return static_cast<double>(offset) /
           static_cast<double>(z.sectors_per_track);
}

Tick
DiskGeometry::transferTime(std::size_t zone, Lba lba,
                           BlockCount blocks) const
{
    dlw_assert(blocks > 0, "transfer of zero blocks");
    dlw_assert(lba + blocks <= capacity_, "transfer beyond capacity");
    dlw_assert(zone < zones_.size() && lba >= zones_[zone].start &&
                   lba < zones_[zone].end,
               "transfer located in the wrong zone");

    // Accumulate per-zone (bandwidth changes at zone boundaries).
    double time = 0.0;
    Lba at = lba;
    BlockCount left = blocks;
    while (left > 0) {
        const Zone &z = zones_[zone++];
        const Lba in_zone = std::min<Lba>(left, z.end - at);
        // One revolution moves sectors_per_track blocks under the head.
        time += static_cast<double>(in_zone) /
                static_cast<double>(z.sectors_per_track) *
                static_cast<double>(rotation_);
        at += in_zone;
        left -= static_cast<BlockCount>(in_zone);
    }
    return static_cast<Tick>(time + 0.5);
}

double
DiskGeometry::bandwidthAt(Lba lba) const
{
    const Zone &z = zoneOf(lba);
    const double bytes_per_rev =
        static_cast<double>(z.sectors_per_track) * kBlockBytes;
    return bytes_per_rev / ticksToSeconds(rotation_);
}

double
DiskGeometry::peakBandwidth() const
{
    double best = 0.0;
    for (const Zone &z : zones_) {
        best = std::max(best, bandwidthAt(z.start));
    }
    return best;
}

} // namespace disk
} // namespace dlw
