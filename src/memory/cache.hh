/**
 * @file
 * A single set-associative cache level with LRU replacement,
 * fill-time tracking, and support for delayed replacement updates
 * (required by Delay-on-Miss).
 */

#ifndef DGSIM_MEMORY_CACHE_HH
#define DGSIM_MEMORY_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dgsim
{

/** One cache line's tag state. */
struct CacheLine
{
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    /** Cycle at which the fill completes (line usable from then on). */
    Cycle readyAt = 0;
    /** LRU stamp: higher = more recently used. */
    std::uint64_t lruStamp = 0;
};

/** Result of a tag lookup. */
struct CacheLookup
{
    bool present = false;   ///< Tag match on a valid line.
    Cycle readyAt = 0;      ///< Fill completion time of the line.
    CacheLine *line = nullptr;
};

/** One exported line of warm tag state (checkpointing). */
struct CacheWarmLine
{
    Addr tag = 0;
    bool dirty = false;
};

/** One non-empty set of exported warm state. */
struct CacheWarmSet
{
    unsigned set = 0;
    /** The set's valid lines, LRU-oldest first. */
    std::vector<CacheWarmLine> lines;
};

/**
 * Exported warm tag-array state: the non-empty sets in increasing set
 * order, each with its valid lines ordered LRU-oldest first. Way
 * positions and absolute LRU stamps are deliberately dropped —
 * replacement decisions depend only on the set's tag contents and
 * *relative* recency, so the canonical form makes checkpoints
 * independent of the access count that produced them. Restore lays each
 * set out from way 0 in LRU order; the security digest, which also sees
 * way positions, survives the round trip when the ways were already in
 * that order.
 */
struct CacheWarmState
{
    /** Set count of the exporting cache (geometry check on restore). */
    std::uint64_t numSets = 0;
    std::vector<CacheWarmSet> sets;
};

/**
 * Tag array of one cache level.
 *
 * Timing is owned by MemoryHierarchy; this class only tracks presence,
 * replacement state and per-level statistics.
 *
 * Storage is sparse: a set gets its own block of `assoc` lines on its
 * first fill. Until then it maps to a shared block of invalid lines
 * that is never written, so lookups, probes, touches and invalidations
 * of a never-filled set miss without allocating, and construction,
 * digests and warm-state export cost what was filled, not the
 * configured capacity.
 */
class Cache
{
  public:
    Cache(const CacheConfig &config, StatRegistry &stats);

    /**
     * Look up @p line_addr.
     * @param update_lru refresh the replacement stamp on a hit. Pass
     *        false for DoM speculative hits (update deferred to commit)
     *        and for pure probes.
     */
    CacheLookup lookup(Addr line_addr, bool update_lru);

    /** Probe without disturbing any state or statistics. */
    bool probe(Addr line_addr) const;

    /**
     * Install @p line_addr, evicting the LRU victim if needed.
     * @param ready_at fill completion time.
     * @param dirty initial dirty state (write-allocate stores).
     * @return the victim's line address if a dirty line was evicted,
     *         kInvalidAddr otherwise.
     */
    Addr install(Addr line_addr, Cycle ready_at, bool dirty);

    /** Refresh the replacement stamp of @p line_addr if present. */
    void touch(Addr line_addr);

    /** Drop @p line_addr if present (coherence invalidation). */
    void invalidate(Addr line_addr);

    /**
     * Mix the tag-array contents into @p hash (security digest): one
     * (set, way, tag, recency rank) tuple per valid line, filled sets
     * in set order, then the valid-line count. Two caches hash equal
     * exactly when they hold the same tags in the same ways with the
     * same relative recency; fill times, dirty bits, absolute LRU
     * stamps, invalidated lines and which sets were ever filled do not
     * count. The trailing count keeps levels apart when several caches
     * mix into one hash.
     */
    void hashState(std::uint64_t &hash) const;

    /** Export the filled sets in canonical (LRU-ordered) form. */
    CacheWarmState exportWarmState() const;

    /**
     * Replace the tag array with @p state: lines are installed in LRU
     * order with fresh stamps and readyAt = 0 (every fill complete —
     * the handoff invariant). Fatal on geometry mismatch or on a set
     * listed twice.
     */
    void restoreWarmState(const CacheWarmState &state);

    const CacheConfig &config() const { return config_; }

    // Statistics (shared registry; names are "<name>.<stat>").
    Counter &accesses;
    Counter &hits;
    Counter &misses;
    Counter &mshrMerges;
    Counter &writebacks;

  private:
    unsigned setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(line_addr % num_sets_);
    }

    /** First line of @p set's block (the shared one if never filled). */
    CacheLine *block(unsigned set)
    {
        return &pool_[static_cast<std::size_t>(slot_[set]) * config_.assoc];
    }
    const CacheLine *block(unsigned set) const
    {
        return &pool_[static_cast<std::size_t>(slot_[set]) * config_.assoc];
    }

    /** Append a block for never-filled @p set; returns its first line. */
    CacheLine *materialize(unsigned set);

    /** Call @p fn(set, block) for every filled set, in set order. */
    template <typename Fn>
    void forEachFilledSet(Fn &&fn) const;

    const CacheConfig config_;
    unsigned num_sets_;
    /** Per set: index of its block in pool_, 0 = never filled. */
    std::vector<std::uint32_t> slot_;
    /** Block 0 is the shared all-invalid block; then one block per
     *  filled set, in first-fill order. */
    std::vector<CacheLine> pool_;
    /** One bit per set, set when the set has its own block. */
    std::vector<std::uint64_t> filled_;
    std::uint64_t lru_clock_ = 0;
};

} // namespace dgsim

#endif // DGSIM_MEMORY_CACHE_HH
