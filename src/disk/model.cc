#include "disk/model.hh"

#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

DiskModel::DiskModel(DiskGeometry geometry, SeekModel seek)
    : geometry_(std::move(geometry)), seek_(seek)
{
}

double
DiskModel::angleAt(Tick t) const
{
    const Tick rot = geometry_.rotationTime();
    // The engine only asks about t >= 0; folding a negative remainder
    // back into [0, rot) takes a second modulo.
    const Tick phase = t >= 0 ? t % rot : ((t % rot) + rot) % rot;
    return static_cast<double>(phase) / static_cast<double>(rot);
}

MechanicalTime
DiskModel::access(Tick now, std::uint64_t from_cylinder, Lba lba,
                  BlockCount blocks) const
{
    dlw_assert(blocks > 0, "access of zero blocks");
    dlw_assert(lba + blocks <= geometry_.capacityBlocks(),
               "access beyond drive capacity");

    // One zone lookup and one division place the LBA: its track
    // gives the cylinder, its remainder the sector's angle.
    const std::size_t zi = geometry_.zoneIndex(lba);
    const Zone &z = geometry_.zones()[zi];
    const Lba offset = lba - z.start;
    const Lba track = offset / z.sectors_per_track;
    const Lba sector = offset % z.sectors_per_track;

    MechanicalTime mt;
    mt.seek = seek_.seekTime(from_cylinder,
                             geometry_.zoneFirstCylinder(zi) + track);

    // After the seek settles, wait for the target sector's angle.
    const Tick settle = now + mt.seek;
    const double target = static_cast<double>(sector) /
                          static_cast<double>(z.sectors_per_track);
    const double current = angleAt(settle);
    double wait = target - current;
    if (wait < 0.0)
        wait += 1.0;
    mt.rotation = static_cast<Tick>(
        wait * static_cast<double>(geometry_.rotationTime()) + 0.5);

    mt.transfer = geometry_.transferTime(zi, lba, blocks);
    return mt;
}

std::uint64_t
DiskModel::endCylinder(Lba lba, BlockCount blocks) const
{
    return geometry_.cylinderOf(lba + blocks - 1);
}

} // namespace disk
} // namespace dlw
