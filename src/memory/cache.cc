#include "memory/cache.hh"

#include <algorithm>
#include <bit>

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
      num_sets_(config.numSets()),
      slot_(num_sets_, 0),
      filled_((num_sets_ + 63) / 64, 0)
{
    DGSIM_ASSERT(num_sets_ > 0, "cache must have at least one set");
    DGSIM_ASSERT(config.sizeBytes % (config.assoc * config.lineBytes) == 0,
                 "cache size must be a multiple of assoc * line size");
    // Room for every set up front, so the pool never moves (no copying
    // as it grows, and CacheLookup::line stays valid across installs).
    // Reserving writes nothing, so only the blocks that get filled are
    // ever touched.
    pool_.reserve((static_cast<std::size_t>(num_sets_) + 1) * config.assoc);
    pool_.resize(config.assoc);
}

CacheLine *
Cache::materialize(unsigned set)
{
    const std::size_t slot = pool_.size() / config_.assoc;
    pool_.resize(pool_.size() + config_.assoc);
    slot_[set] = static_cast<std::uint32_t>(slot);
    filled_[set / 64] |= std::uint64_t{1} << (set % 64);
    return &pool_[slot * config_.assoc];
}

template <typename Fn>
void
Cache::forEachFilledSet(Fn &&fn) const
{
    for (std::size_t word = 0; word < filled_.size(); ++word) {
        for (std::uint64_t bits = filled_[word]; bits != 0;
             bits &= bits - 1) {
            const auto set =
                static_cast<unsigned>(word * 64 + std::countr_zero(bits));
            fn(set, block(set));
        }
    }
}

CacheLookup
Cache::lookup(Addr line_addr, bool update_lru)
{
    CacheLine *base = block(setIndex(line_addr));
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
    const CacheLine *base = block(setIndex(line_addr));
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
    CacheLine *base = slot_[set] != 0 ? block(set) : materialize(set);

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
    state.numSets = num_sets_;
    std::vector<const CacheLine *> valid;
    valid.reserve(config_.assoc);
    forEachFilledSet([&](unsigned set, const CacheLine *base) {
        valid.clear();
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (base[way].valid)
                valid.push_back(&base[way]);
        }
        if (valid.empty())
            return; // emptied by invalidations: same as never filled
        std::sort(valid.begin(), valid.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->lruStamp < b->lruStamp;
                  });
        CacheWarmSet &out = state.sets.emplace_back();
        out.set = set;
        out.lines.reserve(valid.size());
        for (const CacheLine *line : valid)
            out.lines.push_back(CacheWarmLine{line->tag, line->dirty});
    });
    return state;
}

void
Cache::restoreWarmState(const CacheWarmState &state)
{
    auto mismatch = [this](const std::string &why) {
        DGSIM_FATAL("checkpoint cache geometry mismatch for '" +
                    config_.name + "': " + why);
    };
    if (state.numSets != num_sets_)
        mismatch(std::to_string(state.numSets) + " sets in the "
                 "checkpoint vs " + std::to_string(num_sets_) +
                 " configured");
    // Forget the filled sets only; block 0 stays the shared empty one.
    forEachFilledSet([this](unsigned set, const CacheLine *) {
        slot_[set] = 0;
    });
    std::fill(filled_.begin(), filled_.end(), 0);
    pool_.resize(config_.assoc);
    lru_clock_ = 0;
    for (const CacheWarmSet &entry : state.sets) {
        if (entry.set >= num_sets_)
            mismatch("set " + std::to_string(entry.set) +
                     " is out of range");
        if (entry.lines.size() > config_.assoc)
            mismatch("set " + std::to_string(entry.set) + " holds " +
                     std::to_string(entry.lines.size()) +
                     " lines but associativity is " +
                     std::to_string(config_.assoc));
        if (slot_[entry.set] != 0)
            DGSIM_FATAL("checkpoint lists set " + std::to_string(entry.set) +
                        " of '" + config_.name + "' twice");
        if (entry.lines.empty())
            continue;
        CacheLine *base = materialize(entry.set);
        for (std::size_t way = 0; way < entry.lines.size(); ++way) {
            base[way].tag = entry.lines[way].tag;
            base[way].valid = true;
            base[way].dirty = entry.lines[way].dirty;
            base[way].readyAt = 0;
            base[way].lruStamp = ++lru_clock_;
        }
    }
}

void
Cache::hashState(std::uint64_t &hash) const
{
    // FNV-1a over (set, way, tag, lru-rank) of every valid line, then
    // the valid-line count. The fill time (readyAt) is deliberately
    // excluded: the security digest captures the *persistent*
    // microarchitectural state an attacker can probe after the
    // transient window (which lines are present and their replacement
    // order), not transient timing. Invalid ways mix nothing, so a set
    // emptied by invalidations hashes like one that was never filled.
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
    std::uint64_t valid_lines = 0;
    forEachFilledSet([&](unsigned set, const CacheLine *base) {
        stamps.clear();
        for (unsigned way = 0; way < config_.assoc; ++way) {
            if (base[way].valid)
                stamps.push_back(base[way].lruStamp);
        }
        std::sort(stamps.begin(), stamps.end());
        for (unsigned way = 0; way < config_.assoc; ++way) {
            const CacheLine &line = base[way];
            if (!line.valid)
                continue;
            mix(set);
            mix(way);
            mix(line.tag);
            mix(static_cast<std::uint64_t>(
                std::lower_bound(stamps.begin(), stamps.end(),
                                 line.lruStamp) -
                stamps.begin()));
        }
        valid_lines += stamps.size();
    });
    mix(valid_lines);
}

} // namespace dgsim
