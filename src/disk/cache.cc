#include "disk/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

namespace
{

/** Start of an invalid segment's empty range [kNoStart, 0). */
constexpr Lba kNoStart = ~Lba{0};

} // anonymous namespace

DiskCache::DiskCache(const CacheConfig &config)
    : config_(config)
{
    if (config_.enabled) {
        dlw_assert(config_.segments > 0, "cache needs >= 1 segment");
        start_.assign(config_.segments, kNoStart);
        end_.assign(config_.segments, 0);
        last_use_.assign(config_.segments, 0);
    }
}

bool
DiskCache::readHit(Lba lba, BlockCount blocks)
{
    if (!config_.enabled)
        return false;
    const Lba end = lba + blocks;
    // The first segment holding the whole read, from a bit mask of
    // hits built 64 segments at a time.
    const std::size_t n = start_.size();
    for (std::size_t base = 0; base < n; base += 64) {
        const std::size_t m = std::min<std::size_t>(n - base, 64);
        std::uint64_t hits = 0;
        for (std::size_t j = 0; j < m; ++j) {
            const std::uint64_t hit =
                std::uint64_t{start_[base + j] <= lba} &
                std::uint64_t{end <= end_[base + j]};
            hits |= hit << j;
        }
        if (hits != 0) {
            last_use_[base + static_cast<std::size_t>(
                                 std::countr_zero(hits))] = ++use_clock_;
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
    // Victimize the first segment with the oldest stamp: the first
    // invalid one (stamp 0) if any, else the first least recently
    // used.
    std::size_t victim = 0;
    std::uint64_t oldest = last_use_[0];
    for (std::size_t i = 1; i < last_use_.size(); ++i) {
        const bool older = last_use_[i] < oldest;
        victim = older ? i : victim;
        oldest = older ? last_use_[i] : oldest;
    }
    start_[victim] = lba;
    end_[victim] = lba + blocks + config_.prefetch_blocks;
    last_use_[victim] = ++use_clock_;
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
    // Coalesce with the newest extent when strictly sequential, the
    // common pattern of log-style write streams.
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
    std::fill(start_.begin(), start_.end(), kNoStart);
    std::fill(end_.begin(), end_.end(), 0);
    std::fill(last_use_.begin(), last_use_.end(), 0);
    dirty_.clear();
    dirty_blocks_ = 0;
}

void
DiskCache::invalidateOverlapping(Lba lba, BlockCount blocks)
{
    const Lba end = lba + blocks;
    for (std::size_t i = 0; i < start_.size(); ++i) {
        // All ones to keep the segment, zero to drop it.
        const std::uint64_t keep =
            (std::uint64_t{lba < end_[i]} & std::uint64_t{end > start_[i]}) -
            1;
        start_[i] |= ~keep;
        end_[i] &= keep;
        last_use_[i] &= keep;
    }
}

} // namespace disk
} // namespace dlw
