#include "memory/cache.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/log.hh"

namespace dgsim
{

Cache::Cache(const CacheConfig &config, StatRegistry &stats)
    : accesses(stats.counter(config.name + ".accesses")),
      hits(stats.counter(config.name + ".hits")),
      misses(stats.counter(config.name + ".misses")),
      mshrMerges(stats.counter(config.name + ".mshrMerges")),
      writebacks(stats.counter(config.name + ".writebacks")),
      config_(config),
      num_sets_(config.numSets())
{
    DGSIM_ASSERT(num_sets_ > 0, "cache must have at least one set");
    DGSIM_ASSERT(config.sizeBytes % (config.assoc * config.lineBytes) == 0,
                 "cache size must be a multiple of assoc * line size");
    lines_.resize(static_cast<std::size_t>(num_sets_) * config.assoc);
}

CacheLookup
Cache::lookup(Addr line_addr, bool update_lru)
{
    const unsigned set = setIndex(line_addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way) {
        CacheLine &line = base[way];
        if (line.valid && line.tag == line_addr) {
            if (update_lru)
                line.lruStamp = ++lru_clock_;
            return CacheLookup{true, line.readyAt, &line};
        }
    }
    return CacheLookup{};
}

bool
Cache::probe(Addr line_addr) const
{
    const unsigned set = setIndex(line_addr);
    const CacheLine *base =
        &lines_[static_cast<std::size_t>(set) * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (base[way].valid && base[way].tag == line_addr)
            return true;
    }
    return false;
}

Addr
Cache::install(Addr line_addr, Cycle ready_at, bool dirty)
{
    const unsigned set = setIndex(line_addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * config_.assoc];

    // Reuse the matching way if the line is already present (re-fill).
    CacheLine *victim = nullptr;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        CacheLine &line = base[way];
        if (line.valid && line.tag == line_addr) {
            line.readyAt = ready_at;
            line.dirty = line.dirty || dirty;
            line.lruStamp = ++lru_clock_;
            return kInvalidAddr;
        }
        if (!line.valid) {
            if (victim == nullptr || victim->valid)
                victim = &line;
        } else if (victim == nullptr ||
                   (victim->valid && line.lruStamp < victim->lruStamp)) {
            victim = &line;
        }
    }

    DGSIM_ASSERT(victim != nullptr, "no victim way found");
    Addr evicted = kInvalidAddr;
    if (victim->valid && victim->dirty) {
        evicted = victim->tag;
        ++writebacks;
    }
    victim->tag = line_addr;
    victim->valid = true;
    victim->dirty = dirty;
    victim->readyAt = ready_at;
    victim->lruStamp = ++lru_clock_;
    return evicted;
}

void
Cache::touch(Addr line_addr)
{
    CacheLookup result = lookup(line_addr, /*update_lru=*/true);
    (void)result;
}

void
Cache::invalidate(Addr line_addr)
{
    CacheLookup result = lookup(line_addr, /*update_lru=*/false);
    if (result.present) {
        result.line->valid = false;
        result.line->dirty = false;
    }
}

CacheWarmState
Cache::exportWarmState() const
{
    CacheWarmState state;
    state.sets.resize(num_sets_);
    std::vector<const CacheLine *> valid;
    valid.reserve(config_.assoc);
    for (unsigned set = 0; set < num_sets_; ++set) {
        const CacheLine *base =
            &lines_[static_cast<std::size_t>(set) * config_.assoc];
        valid.clear();
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (base[way].valid)
                valid.push_back(&base[way]);
        }
        std::sort(valid.begin(), valid.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->lruStamp < b->lruStamp;
                  });
        auto &lines = state.sets[set];
        lines.reserve(valid.size());
        for (const CacheLine *line : valid)
            lines.push_back(CacheWarmLine{line->tag, line->dirty});
    }
    return state;
}

void
Cache::restoreWarmState(const CacheWarmState &state)
{
    if (state.sets.size() != num_sets_)
        DGSIM_FATAL("checkpoint cache geometry mismatch for '" +
                    config_.name + "': " +
                    std::to_string(state.sets.size()) + " sets in the "
                    "checkpoint vs " + std::to_string(num_sets_) +
                    " configured");
    std::fill(lines_.begin(), lines_.end(), CacheLine{});
    lru_clock_ = 0;
    for (unsigned set = 0; set < num_sets_; ++set) {
        const auto &lines = state.sets[set];
        if (lines.size() > config_.assoc)
            DGSIM_FATAL("checkpoint cache geometry mismatch for '" +
                        config_.name + "': set " + std::to_string(set) +
                        " holds " + std::to_string(lines.size()) +
                        " lines but associativity is " +
                        std::to_string(config_.assoc));
        CacheLine *base =
            &lines_[static_cast<std::size_t>(set) * config_.assoc];
        for (std::size_t way = 0; way < lines.size(); ++way) {
            base[way].tag = lines[way].tag;
            base[way].valid = true;
            base[way].dirty = lines[way].dirty;
            base[way].readyAt = 0;
            base[way].lruStamp = ++lru_clock_;
        }
    }
}

void
Cache::hashState(std::uint64_t &hash) const
{
    // FNV-1a over (index, valid, tag, lru-rank). The fill time (readyAt)
    // is deliberately excluded: the security digest captures the
    // *persistent* microarchitectural state an attacker can probe after
    // the transient window (which lines are present and their
    // replacement order), not transient timing.
    auto mix = [&hash](std::uint64_t v) { hash = fnvMix(hash, v); };
    // Ranks within a set must be hashed relative to each other, not as
    // raw stamps, so that identical cache contents reached through a
    // different number of accesses still hash equal. A line's rank is
    // the number of valid lines in its set with a strictly smaller
    // stamp; sorting the set's stamps once turns the quadratic
    // count-smaller loop into a binary search per way with the same
    // result (ties included).
    std::vector<std::uint64_t> stamps;
    stamps.reserve(config_.assoc);
    for (unsigned set = 0; set < num_sets_; ++set) {
        const CacheLine *base =
            &lines_[static_cast<std::size_t>(set) * config_.assoc];
        stamps.clear();
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (base[way].valid)
                stamps.push_back(base[way].lruStamp);
        }
        std::sort(stamps.begin(), stamps.end());
        for (unsigned way = 0; way < config_.assoc; ++way) {
            const CacheLine &line = base[way];
            mix(set);
            mix(way);
            mix(line.valid ? 1 : 0);
            mix(line.valid ? line.tag : 0);
            // Rank of this way inside its set by recency.
            unsigned rank = 0;
            if (line.valid) {
                rank = static_cast<unsigned>(
                    std::lower_bound(stamps.begin(), stamps.end(),
                                     line.lruStamp) -
                    stamps.begin());
            }
            mix(rank);
        }
    }
}

} // namespace dgsim
