/**
 * @file
 * The pre-change cache and geometry/model math, verbatim apart from
 * names, as test-only oracles (see naive_disk.hh).
 */

#include "naive_disk.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{
namespace naive
{

DiskCache::DiskCache(const CacheConfig &config)
    : config_(config)
{
    if (config_.enabled) {
        dlw_assert(config_.segments > 0, "cache needs >= 1 segment");
        segments_.resize(config_.segments);
    }
}

bool
DiskCache::readHit(Lba lba, BlockCount blocks)
{
    if (!config_.enabled)
        return false;
    const Lba end = lba + blocks;
    for (Segment &s : segments_) {
        if (s.valid && lba >= s.start && end <= s.end) {
            s.last_use = ++use_clock_;
            return true;
        }
    }
    return false;
}

void
DiskCache::installReadSegment(Lba lba, BlockCount blocks)
{
    if (!config_.enabled)
        return;
    // Victimize the least recently used (or any invalid) segment.
    Segment *victim = &segments_[0];
    for (Segment &s : segments_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (s.last_use < victim->last_use)
            victim = &s;
    }
    victim->start = lba;
    victim->end = lba + blocks + config_.prefetch_blocks;
    victim->last_use = ++use_clock_;
    victim->valid = true;
}

bool
DiskCache::canBuffer(BlockCount blocks) const
{
    if (!config_.enabled)
        return false;
    return dirty_blocks_ + blocks <= config_.write_buffer_blocks;
}

void
DiskCache::bufferWrite(Lba lba, BlockCount blocks)
{
    dlw_assert(canBuffer(blocks), "write buffer overflow");
    if (!dirty_.empty()) {
        DirtyExtent &tail = dirty_.back();
        if (tail.lba + tail.blocks == lba) {
            tail.blocks += blocks;
            dirty_blocks_ += blocks;
            invalidateOverlapping(lba, blocks);
            return;
        }
    }
    dirty_.push_back(DirtyExtent{lba, blocks});
    dirty_blocks_ += blocks;
    invalidateOverlapping(lba, blocks);
}

DirtyExtent
DiskCache::popDestage()
{
    dlw_assert(!dirty_.empty(), "destage with empty buffer");
    DirtyExtent e = dirty_.front();
    dirty_.pop_front();
    dlw_assert(dirty_blocks_ >= e.blocks, "dirty accounting broken");
    dirty_blocks_ -= e.blocks;
    return e;
}

void
DiskCache::clear()
{
    for (Segment &s : segments_)
        s.valid = false;
    dirty_.clear();
    dirty_blocks_ = 0;
}

void
DiskCache::invalidateOverlapping(Lba lba, BlockCount blocks)
{
    const Lba end = lba + blocks;
    for (Segment &s : segments_) {
        if (s.valid && lba < s.end && end > s.start)
            s.valid = false;
    }
}

namespace
{

const Zone &
zoneOf(const DiskGeometry &g, Lba lba)
{
    for (const Zone &z : g.zones()) {
        if (lba >= z.start && lba < z.end)
            return z;
    }
    dlw_fatal("LBA ", lba, " beyond drive capacity ", g.capacityBlocks());
}

} // anonymous namespace

std::uint64_t
cylinderOf(const DiskGeometry &g, Lba lba)
{
    std::uint64_t first_cyl = 0;
    for (const Zone &z : g.zones()) {
        if (lba >= z.start && lba < z.end)
            return first_cyl + (lba - z.start) / z.sectors_per_track;
        first_cyl += z.tracks();
    }
    dlw_fatal("LBA ", lba, " beyond drive capacity ", g.capacityBlocks());
}

double
angleOf(const DiskGeometry &g, Lba lba)
{
    const Zone &z = zoneOf(g, lba);
    const Lba offset = (lba - z.start) % z.sectors_per_track;
    return static_cast<double>(offset) /
           static_cast<double>(z.sectors_per_track);
}

Tick
transferTime(const DiskGeometry &g, Lba lba, BlockCount blocks)
{
    dlw_assert(blocks > 0, "transfer of zero blocks");
    dlw_assert(lba + blocks <= g.capacityBlocks(),
               "transfer beyond capacity");

    double time = 0.0;
    Lba at = lba;
    BlockCount left = blocks;
    while (left > 0) {
        const Zone &z = zoneOf(g, at);
        const Lba in_zone = std::min<Lba>(left, z.end - at);
        time += static_cast<double>(in_zone) /
                static_cast<double>(z.sectors_per_track) *
                static_cast<double>(g.rotationTime());
        at += in_zone;
        left -= static_cast<BlockCount>(in_zone);
    }
    return static_cast<Tick>(time + 0.5);
}

DiskModel::DiskModel(DiskGeometry geometry, SeekModel seek)
    : geometry_(std::move(geometry)), seek_(seek)
{
}

double
DiskModel::angleAt(Tick t) const
{
    const Tick rot = geometry_.rotationTime();
    const Tick phase = ((t % rot) + rot) % rot;
    return static_cast<double>(phase) / static_cast<double>(rot);
}

MechanicalTime
DiskModel::access(Tick now, std::uint64_t from_cylinder, Lba lba,
                  BlockCount blocks) const
{
    dlw_assert(blocks > 0, "access of zero blocks");
    dlw_assert(lba + blocks <= geometry_.capacityBlocks(),
               "access beyond drive capacity");

    MechanicalTime mt;
    mt.seek = seek_.seekTime(from_cylinder, cylinderOf(geometry_, lba));

    const Tick settle = now + mt.seek;
    const double target = angleOf(geometry_, lba);
    const double current = angleAt(settle);
    double wait = target - current;
    if (wait < 0.0)
        wait += 1.0;
    mt.rotation = static_cast<Tick>(
        wait * static_cast<double>(geometry_.rotationTime()) + 0.5);

    mt.transfer = transferTime(geometry_, lba, blocks);
    return mt;
}

std::uint64_t
DiskModel::endCylinder(Lba lba, BlockCount blocks) const
{
    return cylinderOf(geometry_, lba + blocks - 1);
}

} // namespace naive
} // namespace disk
} // namespace dlw
