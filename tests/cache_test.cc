/**
 * @file
 * Unit tests for the memory substrate: cache tag array, MSHR file and
 * the three-level hierarchy (including the Delay-on-Miss semantics and
 * the security digest).
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/hash.hh"
#include "common/stats.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"

namespace dgsim
{
namespace
{

CacheConfig
tinyCacheConfig()
{
    // 4 sets x 2 ways x 64B.
    return CacheConfig{"test", 512, 2, 64, 3, 4};
}

/** The cache's security digest from the FNV offset basis. */
std::uint64_t
hashOf(const Cache &cache)
{
    std::uint64_t hash = kFnvOffsetBasis;
    cache.hashState(hash);
    return hash;
}

TEST(CacheTest, MissThenHit)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    EXPECT_FALSE(cache.lookup(100, true).present);
    cache.install(100, 0, false);
    EXPECT_TRUE(cache.lookup(100, true).present);
    EXPECT_TRUE(cache.probe(100));
    EXPECT_FALSE(cache.probe(101));
}

TEST(CacheTest, LruEviction)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    // Lines 0, 4, 8 all map to set 0 (4 sets); 2 ways.
    cache.install(0, 0, false);
    cache.install(4, 0, false);
    cache.lookup(0, true); // 0 is now MRU.
    cache.install(8, 0, false);
    EXPECT_TRUE(cache.probe(0));  // survived (MRU)
    EXPECT_FALSE(cache.probe(4)); // evicted (LRU)
    EXPECT_TRUE(cache.probe(8));
}

TEST(CacheTest, DelayedLruUpdateChangesVictimChoice)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, false);
    cache.install(4, 0, false);
    // DoM speculative hit: no replacement update.
    cache.lookup(0, /*update_lru=*/false);
    cache.install(8, 0, false);
    // Without the update, 0 was LRU and is the victim.
    EXPECT_FALSE(cache.probe(0));
    EXPECT_TRUE(cache.probe(4));
}

TEST(CacheTest, RetroactiveTouchAtCommit)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, false);
    cache.install(4, 0, false);
    cache.lookup(0, false); // speculative hit, no update
    cache.touch(0);         // commit-time retroactive update
    cache.install(8, 0, false);
    EXPECT_TRUE(cache.probe(0)); // survived thanks to the touch
    EXPECT_FALSE(cache.probe(4));
}

TEST(CacheTest, DirtyEvictionCountsWriteback)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, true); // dirty
    cache.install(4, 0, false);
    const Addr victim = cache.install(8, 0, false);
    EXPECT_EQ(victim, 0u); // dirty victim's address returned
    EXPECT_EQ(cache.writebacks.value(), 1u);
}

TEST(CacheTest, InvalidateRemovesLine)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    cache.install(0, 0, false);
    cache.invalidate(0);
    EXPECT_FALSE(cache.probe(0));
}

TEST(CacheTest, HashIgnoresAccessCountButSeesContent)
{
    StatRegistry stats;
    Cache a(tinyCacheConfig(), stats);
    Cache b(tinyCacheConfig(), stats);
    a.install(0, 0, false);
    b.install(0, 0, false);
    // Extra lookups must not change the digest (same recency order).
    a.lookup(0, true);
    a.lookup(0, true);
    EXPECT_EQ(hashOf(a), hashOf(b));

    // Different content must change it.
    b.install(4, 0, false);
    EXPECT_NE(hashOf(a), hashOf(b));
}

TEST(CacheTest, HashSeesRecencyOrder)
{
    StatRegistry stats;
    Cache a(tinyCacheConfig(), stats);
    Cache b(tinyCacheConfig(), stats);
    a.install(0, 0, false);
    a.install(4, 0, false);
    b.install(0, 0, false);
    b.install(4, 0, false);
    // Reverse the recency in b only.
    b.lookup(0, true);
    EXPECT_NE(hashOf(a), hashOf(b))
        << "replacement order is attacker-visible state";
}

TEST(CacheTest, MissesOnNeverFilledSetsLeaveNoState)
{
    StatRegistry stats;
    Cache cache(tinyCacheConfig(), stats);
    const std::uint64_t fresh = hashOf(cache);
    EXPECT_FALSE(cache.lookup(1, true).present);
    EXPECT_FALSE(cache.probe(2));
    cache.touch(3);
    cache.invalidate(5);
    EXPECT_TRUE(cache.exportWarmState().sets.empty());
    EXPECT_EQ(hashOf(cache), fresh);
}

TEST(CacheTest, EmptiedSetHashesLikeNeverFilled)
{
    StatRegistry stats;
    Cache a(tinyCacheConfig(), stats);
    Cache b(tinyCacheConfig(), stats);
    // Set 1 of a is filled, then emptied; b never touches it.
    a.install(1, 0, true);
    a.install(5, 0, false);
    a.invalidate(1);
    a.invalidate(5);
    a.install(2, 0, false);
    b.install(2, 0, false);
    EXPECT_EQ(hashOf(a), hashOf(b));
    EXPECT_EQ(a.exportWarmState().sets.size(), 1u);
}

TEST(CacheTest, HashIgnoresFirstFillOrderOfSets)
{
    StatRegistry stats;
    Cache a(tinyCacheConfig(), stats);
    Cache b(tinyCacheConfig(), stats);
    // Same lines and per-set recency; the sets are first filled in
    // opposite orders, so their blocks sit in opposite pool order.
    for (Addr line : {0, 3, 4, 1})
        a.install(line, 0, false);
    for (Addr line : {1, 0, 3, 4})
        b.install(line, 0, false);
    EXPECT_EQ(hashOf(a), hashOf(b));

    b.touch(0); // recency of set 0 now differs
    EXPECT_NE(hashOf(a), hashOf(b));
}

TEST(CacheTest, WarmStateRoundTripKeepsDigest)
{
    StatRegistry stats;
    Cache source(tinyCacheConfig(), stats);
    // Lines sit in their sets' ways in LRU order, the layout restore
    // produces, so the digest survives the round trip exactly.
    for (Addr line : {0, 4, 1, 7, 3})
        source.install(line, 0, line == 4);
    const CacheWarmState state = source.exportWarmState();
    ASSERT_EQ(state.sets.size(), 3u);
    EXPECT_EQ(state.sets[0].set, 0u);
    EXPECT_EQ(state.sets[2].set, 3u);

    Cache fresh(tinyCacheConfig(), stats);
    fresh.restoreWarmState(state);
    EXPECT_EQ(hashOf(fresh), hashOf(source));

    // Restoring over a used cache forgets everything it held before.
    Cache used(tinyCacheConfig(), stats);
    used.install(2, 0, true);
    used.install(6, 0, false);
    used.install(3, 0, false);
    used.restoreWarmState(state);
    EXPECT_EQ(hashOf(used), hashOf(source));
    EXPECT_FALSE(used.probe(2));
    EXPECT_FALSE(used.probe(6));
    EXPECT_TRUE(used.probe(7));
}

// --- MSHR --------------------------------------------------------------

TEST(MshrTest, CapacityAndReclaim)
{
    MshrFile mshrs(2);
    EXPECT_TRUE(mshrs.allocate(1, 0, 100));
    EXPECT_TRUE(mshrs.allocate(2, 0, 100));
    EXPECT_FALSE(mshrs.allocate(3, 0, 100)) << "file must be full";
    EXPECT_TRUE(mshrs.full(50));
    // After the fills complete, entries are reclaimable.
    EXPECT_FALSE(mshrs.full(101));
    EXPECT_TRUE(mshrs.allocate(3, 101, 200));
}

TEST(MshrTest, FindInFlight)
{
    MshrFile mshrs(4);
    mshrs.allocate(7, 0, 55);
    EXPECT_EQ(mshrs.findInFlight(7), 55u);
    EXPECT_EQ(mshrs.findInFlight(8), kInvalidCycle);
}

// --- Hierarchy -----------------------------------------------------------

SimConfig
hierConfig()
{
    SimConfig config;
    return config;
}

TEST(HierarchyTest, LatenciesFollowTable1)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;

    // Cold: DRAM (L3 roundtrip + DRAM latency).
    const AccessOutcome cold = hierarchy.access(0x1000, 100, flags);
    EXPECT_EQ(cold.status, AccessStatus::Miss);
    EXPECT_EQ(cold.serviceLevel, 4u);
    EXPECT_EQ(cold.completeAt, 100 + config.l3.latency + config.dramLatency);

    // Warm hit: L1 latency.
    const Cycle warm_time = cold.completeAt + 10;
    const AccessOutcome warm = hierarchy.access(0x1000, warm_time, flags);
    EXPECT_EQ(warm.status, AccessStatus::Hit);
    EXPECT_EQ(warm.completeAt, warm_time + config.l1d.latency);
}

TEST(HierarchyTest, InFlightAccessMerges)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    const AccessOutcome first = hierarchy.access(0x1000, 100, flags);
    const AccessOutcome second = hierarchy.access(0x1008, 101, flags);
    EXPECT_EQ(second.completeAt, first.completeAt) << "same line merges";
    EXPECT_EQ(stats.get("l2.accesses"), 1u)
        << "merged access must not reach the L2";
}

TEST(HierarchyTest, MshrLimitRejects)
{
    SimConfig config = hierConfig();
    config.l1d.numMshrs = 2;
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    EXPECT_TRUE(hierarchy.access(0 * 64, 0, flags).accepted());
    EXPECT_TRUE(hierarchy.access(1 * 64, 0, flags).accepted());
    EXPECT_EQ(hierarchy.access(2 * 64, 0, flags).status,
              AccessStatus::Rejected);
}

TEST(HierarchyTest, DomRejectsSpeculativeMisses)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);

    MemAccessFlags dom_flags;
    dom_flags.domProtected = true;
    dom_flags.speculative = true;
    const AccessOutcome miss = hierarchy.access(0x2000, 10, dom_flags);
    EXPECT_EQ(miss.status, AccessStatus::DomDelayed);
    EXPECT_FALSE(hierarchy.linePresent(1, 0x2000))
        << "a DoM-delayed miss must leave no trace";
    EXPECT_FALSE(hierarchy.linePresent(2, 0x2000));

    // Non-speculative re-issue proceeds normally.
    dom_flags.speculative = false;
    EXPECT_TRUE(hierarchy.access(0x2000, 20, dom_flags).accepted());
    // A later speculative access to the now-present line hits.
    dom_flags.speculative = true;
    const AccessOutcome hit =
        hierarchy.access(0x2000, 500, dom_flags);
    EXPECT_EQ(hit.status, AccessStatus::Hit);
}

TEST(HierarchyTest, DomDelaysInFlightLinesToo)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags plain;
    hierarchy.access(0x3000, 10, plain); // fill in flight
    MemAccessFlags dom_flags;
    dom_flags.domProtected = true;
    dom_flags.speculative = true;
    EXPECT_EQ(hierarchy.access(0x3000, 12, dom_flags).status,
              AccessStatus::DomDelayed)
        << "an in-flight line is still an L1 miss for DoM";
}

TEST(HierarchyTest, DramBandwidthSerializesBursts)
{
    SimConfig config = hierConfig();
    config.l1d.numMshrs = 16;
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    // Two simultaneous DRAM misses: the second starts one issue
    // interval later.
    const AccessOutcome a = hierarchy.access(0x10000, 0, flags);
    const AccessOutcome b = hierarchy.access(0x20000, 0, flags);
    EXPECT_EQ(b.completeAt - a.completeAt, config.dramIssueInterval);
}

TEST(HierarchyTest, DigestDeterminism)
{
    SimConfig config = hierConfig();
    StatRegistry stats_a, stats_b;
    MemoryHierarchy a(config, stats_a);
    MemoryHierarchy b(config, stats_b);
    MemAccessFlags flags;
    for (Addr addr = 0; addr < 64 * 100; addr += 64) {
        a.access(addr, addr, flags);
        b.access(addr, addr, flags);
    }
    EXPECT_EQ(a.digest(), b.digest());
    b.access(64 * 200, 99999, flags);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(HierarchyTest, InvalidateDropsAllLevels)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    hierarchy.access(0x4000, 0, flags);
    EXPECT_TRUE(hierarchy.linePresent(1, 0x4000));
    EXPECT_TRUE(hierarchy.linePresent(2, 0x4000));
    EXPECT_TRUE(hierarchy.linePresent(3, 0x4000));
    hierarchy.invalidate(0x4000);
    EXPECT_FALSE(hierarchy.linePresent(1, 0x4000));
    EXPECT_FALSE(hierarchy.linePresent(2, 0x4000));
    EXPECT_FALSE(hierarchy.linePresent(3, 0x4000));
}

TEST(HierarchyTest, DigestSeparatesLevels)
{
    // The same (set, way, tag, rank) tuple held in the L1 only and in
    // the L2 only: the per-level valid-line count ending each level's
    // stream is what tells the two apart.
    SimConfig config = hierConfig();
    StatRegistry stats_a, stats_b;
    MemoryHierarchy in_l1(config, stats_a);
    MemoryHierarchy in_l2(config, stats_b);
    HierarchyWarmState l1_only = in_l1.exportWarmState();
    HierarchyWarmState l2_only = l1_only;
    const CacheWarmSet line{5, {CacheWarmLine{5, false}}};
    l1_only.l1.sets.push_back(line);
    l2_only.l2.sets.push_back(line);
    in_l1.restoreWarmState(l1_only);
    in_l2.restoreWarmState(l2_only);
    ASSERT_TRUE(in_l1.linePresent(1, 5 * 64));
    ASSERT_TRUE(in_l2.linePresent(2, 5 * 64));
    EXPECT_NE(in_l1.digest(), in_l2.digest());
}

/** Property sweep: hit latency is constant across many addresses. */
class HierarchyLatencyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HierarchyLatencyProperty, WarmHitLatencyIsL1Latency)
{
    SimConfig config = hierConfig();
    StatRegistry stats;
    MemoryHierarchy hierarchy(config, stats);
    MemAccessFlags flags;
    const Addr addr = static_cast<Addr>(GetParam()) * 4096 + 64;
    const AccessOutcome cold = hierarchy.access(addr, 0, flags);
    const Cycle later = cold.completeAt + 5;
    const AccessOutcome warm = hierarchy.access(addr, later, flags);
    EXPECT_EQ(warm.status, AccessStatus::Hit);
    EXPECT_EQ(warm.completeAt - later, config.l1d.latency);
}

INSTANTIATE_TEST_SUITE_P(Addresses, HierarchyLatencyProperty,
                         ::testing::Range(0, 16));

} // namespace
} // namespace dgsim
