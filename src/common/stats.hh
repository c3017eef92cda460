/**
 * @file
 * Lightweight named-statistics registry, loosely modelled on gem5's
 * stats package: counters registered under dotted names, dumpable as
 * sorted text, plus Histogram distribution stats (gem5's Distribution)
 * dumped as a *separate* section so counter-dump goldens stay stable.
 *
 * Names are interned at registration: `counter()` / `id()` resolve the
 * dotted string once and hand back a stable reference / dense integer
 * handle into flat storage. Components bind the reference (or handle)
 * at construction, so no string hashing or tree walk survives on the
 * simulation hot path.
 */

#ifndef DGSIM_COMMON_STATS_HH
#define DGSIM_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace dgsim
{

/** A single monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A bucketed distribution stat (gem5's Distribution/Histogram).
 *
 * Fixed bucket width and count chosen at registration; samples beyond
 * the last bucket accumulate in it (an explicit overflow bucket).
 * Tracks min/max/sum alongside the buckets so derived scalars (mean)
 * are computed at dump time, not on the sample hot path.
 */
class Histogram
{
  public:
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
        : bucket_width_(bucket_width == 0 ? 1 : bucket_width),
          buckets_(num_buckets == 0 ? 1 : num_buckets, 0)
    {
    }

    void
    sample(std::uint64_t value)
    {
        ++count_;
        sum_ += value;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        std::size_t bucket =
            static_cast<std::size_t>(value / bucket_width_);
        if (bucket >= buckets_.size())
            bucket = buckets_.size() - 1;
        ++buckets_[bucket];
    }

    /**
     * Record @p weight identical samples of @p value in one call.
     * Exactly equivalent to calling `sample(value)` @p weight times;
     * used by the idle-skip path to account the sparse occupancy
     * samples that per-cycle ticking would have taken during a skipped
     * span (the sampled quantities are provably constant across it).
     */
    void
    sample(std::uint64_t value, std::uint64_t weight)
    {
        if (weight == 0)
            return;
        count_ += weight;
        sum_ += value * weight;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        std::size_t bucket =
            static_cast<std::size_t>(value / bucket_width_);
        if (bucket >= buckets_.size())
            bucket = buckets_.size() - 1;
        buckets_[bucket] += weight;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
        std::fill(buckets_.begin(), buckets_.end(), 0);
    }

    /**
     * Text form: summary scalars then one line per *non-empty* bucket
     * ("name.bucket[lo,hi) count"; the last bucket is open-ended).
     * Deterministic for a deterministic run — it is part of the
     * distributions dump that idle_skip_test byte-compares.
     */
    void
    dump(std::ostream &os, const std::string &name) const
    {
        char buf[64];
        os << name << ".samples " << count_ << "\n";
        if (count_ == 0)
            return;
        os << name << ".min " << min() << "\n";
        os << name << ".max " << max_ << "\n";
        std::snprintf(buf, sizeof(buf), "%.4f", mean());
        os << name << ".mean " << buf << "\n";
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            if (buckets_[i] == 0)
                continue;
            const std::uint64_t lo = i * bucket_width_;
            os << name << ".bucket[" << lo << ",";
            if (i + 1 == buckets_.size())
                os << "inf";
            else
                os << lo + bucket_width_;
            os << ") " << buckets_[i] << "\n";
        }
    }

  private:
    std::uint64_t bucket_width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * Registry of named counters owned by a simulation run.
 *
 * Components hold references (or interned CounterId handles) to
 * counters they create; the registry owns storage and provides
 * dump/lookup. Names use dotted paths, e.g. "l1d.misses" or
 * "core.committedLoads".
 *
 * Histograms are registered beside the counters but dumped by
 * `dumpDistributions()` only: `dump()` / `forEach()` remain
 * counter-only so the byte-compare goldens and serialized counter maps
 * are unaffected by new distribution stats.
 */
class StatRegistry
{
  public:
    /** Dense interned handle for a registered counter. */
    using CounterId = std::uint32_t;

    /** Intern @p name, creating its counter on first use. */
    CounterId
    id(const std::string &name)
    {
        auto [it, fresh] = index_.try_emplace(
            name, static_cast<CounterId>(slots_.size()));
        if (fresh) {
            names_.push_back(name);
            slots_.emplace_back();
            sorted_ids_valid_ = false;
        }
        return it->second;
    }

    /** Counter behind an interned handle (no string lookup). */
    Counter &at(CounterId id) { return slots_[id]; }
    const Counter &at(CounterId id) const { return slots_[id]; }

    /** Create (or fetch) the counter with the given dotted name.
     * The reference stays valid for the registry's lifetime. */
    Counter &counter(const std::string &name) { return slots_[id(name)]; }

    /** Read a counter's value; zero if it was never created. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? 0 : slots_[it->second].value();
    }

    /** True if a counter with this exact name exists. */
    bool
    has(const std::string &name) const
    {
        return index_.find(name) != index_.end();
    }

    /**
     * Create (or fetch) a *host-side* counter: same interning and
     * lifetime rules as `counter()`, but the value never appears in
     * `dump()` / `forEach()`. Host counters measure how the simulation
     * ran on this machine (e.g. idle cycles the time-warp layer
     * skipped), so including them in the golden counter dump would make
     * two result-identical runs compare unequal. Read them back with
     * `hostGet()`.
     */
    Counter &
    hostCounter(const std::string &name)
    {
        auto [it, fresh] = host_index_.try_emplace(name,
                                                   host_slots_.size());
        if (fresh)
            host_slots_.emplace_back();
        return host_slots_[it->second];
    }

    /** Read a host counter's value; zero if it was never created. */
    std::uint64_t
    hostGet(const std::string &name) const
    {
        auto it = host_index_.find(name);
        return it == host_index_.end() ? 0
                                       : host_slots_[it->second].value();
    }

    /**
     * Create (or fetch) the histogram with the given dotted name. The
     * width/bucket parameters apply on first registration only. The
     * reference stays valid for the registry's lifetime.
     */
    Histogram &
    histogram(const std::string &name, std::uint64_t bucket_width,
              std::size_t num_buckets)
    {
        auto [it, fresh] = histogram_index_.try_emplace(
            name, histograms_.size());
        if (fresh) {
            histogram_names_.push_back(name);
            histograms_.emplace_back(bucket_width, num_buckets);
        }
        return histograms_[it->second];
    }

    /** Histogram lookup without creation; null if never registered. */
    const Histogram *
    findHistogram(const std::string &name) const
    {
        auto it = histogram_index_.find(name);
        return it == histogram_index_.end() ? nullptr
                                            : &histograms_[it->second];
    }

    /** Reset every counter and histogram (e.g. after cache warm-up).
     * Host counters reset too: they describe the measured region, just
     * like `core.cycles`. */
    void
    resetAll()
    {
        for (Counter &counter : slots_)
            counter.reset();
        for (Counter &counter : host_slots_)
            counter.reset();
        for (Histogram &histogram : histograms_)
            histogram.reset();
    }

    /** Visit every counter as (name, value), sorted by name. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (CounterId id : sortedIds())
            fn(names_[id], slots_[id].value());
    }

    /** Dump all counters, sorted by name, one per line. */
    void
    dump(std::ostream &os) const
    {
        forEach([&os](const std::string &name, std::uint64_t value) {
            os << name << " " << value << "\n";
        });
    }

    /**
     * Dump every histogram, sorted by name, as its own section. Kept
     * out of `dump()` so the counter goldens never see distributions.
     */
    void
    dumpDistributions(std::ostream &os) const
    {
        std::vector<std::size_t> order(histograms_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [this](std::size_t a, std::size_t b) {
                      return histogram_names_[a] < histogram_names_[b];
                  });
        for (std::size_t i : order)
            histograms_[i].dump(os, histogram_names_[i]);
    }

    std::size_t size() const { return slots_.size(); }
    std::size_t histogramCount() const { return histograms_.size(); }

  private:
    /**
     * Sorted-by-name id permutation, cached between dumps. Recomputing
     * it per dump() made every stats harvest O(n log n) string
     * compares; registration invalidates the cache instead (rare, and
     * only during construction/warm-up).
     */
    const std::vector<CounterId> &
    sortedIds() const
    {
        if (!sorted_ids_valid_) {
            sorted_ids_.resize(slots_.size());
            for (CounterId i = 0;
                 i < static_cast<CounterId>(sorted_ids_.size()); ++i)
                sorted_ids_[i] = i;
            std::sort(sorted_ids_.begin(), sorted_ids_.end(),
                      [this](CounterId a, CounterId b) {
                          return names_[a] < names_[b];
                      });
            sorted_ids_valid_ = true;
        }
        return sorted_ids_;
    }

    /// Deque: growth never moves existing counters, so references
    /// handed out by counter() stay valid as new counters register.
    std::deque<Counter> slots_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, CounterId> index_;
    mutable std::vector<CounterId> sorted_ids_;
    mutable bool sorted_ids_valid_ = false;

    /// Host-side counters: never dumped, so the deque/index pair is
    /// deliberately separate from the golden counter storage.
    std::deque<Counter> host_slots_;
    std::unordered_map<std::string, std::size_t> host_index_;

    /// Same stability rule as counters: deque growth never moves them.
    std::deque<Histogram> histograms_;
    std::vector<std::string> histogram_names_;
    std::unordered_map<std::string, std::size_t> histogram_index_;
};

} // namespace dgsim

#endif // DGSIM_COMMON_STATS_HH
