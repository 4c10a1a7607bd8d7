/**
 * @file
 * Differential tests: the branch-free DiskCache and the single-lookup
 * geometry and mechanical model against the naive versions in
 * naive_disk.hh.  Every call must return the same value.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "disk/drive.hh"
#include "naive_disk.hh"

namespace dlw
{
namespace disk
{
namespace
{

Lba
draw(Rng &rng, Lba lo, Lba hi)
{
    return static_cast<Lba>(rng.uniformInt(static_cast<std::int64_t>(lo),
                                           static_cast<std::int64_t>(hi)));
}

/**
 * Drive both caches through one seeded sequence of operations over a
 * small LBA range (so reads hit, writes overlap segments and
 * sequential writes coalesce), comparing every return value.
 */
void
expectCachesAgree(const CacheConfig &cfg, std::uint64_t seed, int ops)
{
    DiskCache got(cfg);
    naive::DiskCache want(cfg);
    Rng rng(seed);
    Lba last_end = 0;
    for (int i = 0; i < ops; ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        const Lba lba = rng.bernoulli(0.2) ? last_end
                                           : draw(rng, 0, 20000);
        const auto blocks = static_cast<BlockCount>(draw(rng, 1, 256));
        const double pick = rng.uniform();
        if (pick < 0.40) {
            ASSERT_EQ(got.readHit(lba, blocks), want.readHit(lba, blocks));
        } else if (pick < 0.65) {
            got.installReadSegment(lba, blocks);
            want.installReadSegment(lba, blocks);
        } else if (pick < 0.85) {
            const bool fits = want.canBuffer(blocks);
            ASSERT_EQ(got.canBuffer(blocks), fits);
            if (fits) {
                got.bufferWrite(lba, blocks);
                want.bufferWrite(lba, blocks);
            }
        } else if (pick < 0.97) {
            ASSERT_EQ(got.dirty(), want.dirty());
            if (want.dirty()) {
                const DirtyExtent g = got.popDestage();
                const DirtyExtent w = want.popDestage();
                ASSERT_EQ(g.lba, w.lba);
                ASSERT_EQ(g.blocks, w.blocks);
            }
        } else {
            got.clear();
            want.clear();
        }
        last_end = lba + blocks;
        ASSERT_EQ(got.dirty(), want.dirty());
        ASSERT_EQ(got.dirtyBlocks(), want.dirtyBlocks());
        ASSERT_EQ(got.dirtyExtents(), want.dirtyExtents());
    }
}

TEST(CacheOracle, RandomOperationSequences)
{
    for (const std::uint32_t segments : {1u, 2u, 16u, 40u, 70u}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(std::to_string(segments) + " segments, seed " +
                         std::to_string(seed));
            CacheConfig cfg;
            cfg.segments = segments;
            cfg.prefetch_blocks = 128;
            cfg.write_buffer_blocks = 2048;
            expectCachesAgree(cfg, seed * 100 + segments, 20000);
        }
    }
}

TEST(CacheOracle, NoPrefetchAndDisabled)
{
    CacheConfig cfg;
    cfg.prefetch_blocks = 0;
    expectCachesAgree(cfg, 7, 20000);
    cfg.enabled = false;
    expectCachesAgree(cfg, 8, 2000);
}

/** One access through both models, every output compared. */
void
expectAccessAgrees(const DiskModel &got, const naive::DiskModel &want,
                   Tick now, std::uint64_t from, Lba lba,
                   BlockCount blocks)
{
    SCOPED_TRACE("now " + std::to_string(now) + " from " +
                 std::to_string(from) + " lba " + std::to_string(lba) +
                 " blocks " + std::to_string(blocks));
    const MechanicalTime g = got.access(now, from, lba, blocks);
    const MechanicalTime w = want.access(now, from, lba, blocks);
    ASSERT_EQ(g.seek, w.seek);
    ASSERT_EQ(g.rotation, w.rotation);
    ASSERT_EQ(g.transfer, w.transfer);
    ASSERT_EQ(got.endCylinder(lba, blocks), want.endCylinder(lba, blocks));

    const DiskGeometry &geo = got.geometry();
    ASSERT_EQ(geo.cylinderOf(lba), naive::cylinderOf(geo, lba));
    ASSERT_EQ(geo.angleOf(lba), naive::angleOf(geo, lba));
    ASSERT_EQ(geo.transferTime(lba, blocks),
              naive::transferTime(geo, lba, blocks));
    ASSERT_EQ(&geo.zoneOf(lba), &geo.zones()[geo.zoneIndex(lba)]);
    ASSERT_GE(lba, geo.zoneOf(lba).start);
    ASSERT_LT(lba, geo.zoneOf(lba).end);
}

void
expectModelsAgree(const DriveConfig &cfg, std::uint64_t seed)
{
    const DiskModel got(cfg.geometry, cfg.seek);
    const naive::DiskModel want(cfg.geometry, cfg.seek);
    const DiskGeometry &geo = cfg.geometry;
    const Lba cap = geo.capacityBlocks();
    const Tick rot = geo.rotationTime();
    Rng rng(seed);
    auto from = [&] { return draw(rng, 0, geo.cylinders() - 1); };
    auto now = [&] {
        // A third of the draws fall in the first rotation.
        return rng.bernoulli(0.3)
            ? static_cast<Tick>(draw(rng, 0, static_cast<Lba>(rot) - 1))
            : static_cast<Tick>(draw(rng, 0, Lba{1} << 44));
    };

    for (int i = 0; i < 20000; ++i) {
        const auto blocks = static_cast<BlockCount>(draw(rng, 1, 2048));
        expectAccessAgrees(got, want, now(), from(),
                           draw(rng, 0, cap - blocks), blocks);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Runs that start just inside a zone and cross into the next.
    for (std::size_t z = 0; z + 1 < geo.zones().size(); ++z) {
        const Lba end = geo.zones()[z].end;
        for (BlockCount blocks : {2u, 8u, 1000u, 5000u}) {
            for (BlockCount back : {1u, blocks / 2, blocks - 1}) {
                expectAccessAgrees(got, want, now(), from(), end - back,
                                   blocks);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
        expectAccessAgrees(got, want, now(), from(), end, 1);
    }
    // The last blocks of the drive.
    expectAccessAgrees(got, want, now(), from(), cap - 1, 1);
    expectAccessAgrees(got, want, now(), from(), cap - 64, 64);
    expectAccessAgrees(got, want, 0, 0, 0, 1);

    for (const Tick t : {Tick{0}, Tick{1}, rot - 1, rot, rot + 1, Tick{-1},
                         -rot, -rot - 1, Tick{1} << 50}) {
        ASSERT_EQ(got.angleAt(t), want.angleAt(t)) << "t " << t;
    }
    for (int i = 0; i < 1000; ++i) {
        const Tick t = rng.uniformInt(-(Tick{1} << 40), Tick{1} << 40);
        ASSERT_EQ(got.angleAt(t), want.angleAt(t)) << "t " << t;
    }
}

TEST(ModelOracle, EnterpriseAccesses)
{
    expectModelsAgree(DriveConfig::makeEnterprise(), 21);
}

TEST(ModelOracle, NearlineAccesses)
{
    expectModelsAgree(DriveConfig::makeNearline(), 22);
}

} // namespace
} // namespace disk
} // namespace dlw
