/**
 * @file
 * Relational leak oracle: runs the same gadget with two different
 * secret values and compares the persistent microarchitectural state
 * afterwards.
 *
 * This operationalizes the paper's leakage definition: an adversary who
 * can probe the machine after the transient window learns the secret
 * iff the µarch digest differs between secrets. Three hardening rules
 * (each closed a real blind spot of the original checker):
 *
 *  1. Run health is validated first. A run that never committed HALT
 *     (hit maxCycles or tripped the commit watchdog), or a secret pair
 *     whose runs commit *different instruction counts* (the secret is
 *     architecturally visible — the gadget is broken, not leaky), is
 *     classified `Inconclusive`, loudly, instead of silently diffing
 *     partial-state digests.
 *
 *  2. The diffed digest is SimResult::uarchDigest — caches plus
 *     gshare/GHR/BTB plus the stride prefetcher — not the cache-only
 *     cacheDigest, so predictor-channel leaks are visible.
 *
 *  3. Secrets come in a seeded *list* of pairs (MSB-only,
 *     all-bits-flipped, adjacent, random) rather than one hardcoded
 *     low-bits pair, so single-bit-channel gadgets aren't missed by
 *     construction.
 *
 * Early exit. checkLeakPairs lowers every distinct secret's program
 * first. When those programs differ only in the values of some data
 * words (dataDifference), it runs the first secret with a ReadWatch on
 * those words (cpu/core.hh). If the timing core never read one, that
 * run stands for every secret and no other secret is simulated.
 *
 * Why this is exact: a run is a deterministic function of (program,
 * config), and the programs agree on everything but those words'
 * initial values. Data memory reaches the simulated machine only as
 * the values loads observe, and every such value comes from
 * OooCore::loadValueNow: demand, doppelganger and wrong-path loads
 * alike. Caches, predictors and the prefetcher see addresses, never
 * values. A run that never read a watched word therefore takes the
 * same steps under every secret, and ends with the same cycles,
 * counters, digests, health and wedge message. The verdict, digests,
 * reason and cycles it yields are the ones the full path yields.
 *
 * The full path (every distinct secret simulated) is taken when the
 * programs differ anywhere else (name, entry, any instruction field,
 * the set of initialised data addresses), when the first run reads a
 * watched word, even on the wrong path, and when the config wants
 * the sampled driver (ckpt::wantsSampledRun), whose functional
 * fast-forward reads memory outside the watch.
 */

#ifndef DGSIM_SECURITY_LEAK_HH
#define DGSIM_SECURITY_LEAK_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"

namespace dgsim::security
{

/** Three-way classification of a differential run. */
enum class LeakVerdict
{
    NoLeak,       ///< Both runs healthy, digests equal for every pair.
    Leak,         ///< Both runs healthy, digests differ for some pair.
    Inconclusive, ///< A run wedged / hit limits / diverged architecturally.
};

/** Stable short name ("no-leak" / "leak" / "inconclusive"). */
const char *verdictName(LeakVerdict verdict);

/** One two-secret input to the relational oracle. */
struct SecretPair
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Outcome of a two-secret differential run. */
struct LeakCheck
{
    LeakVerdict verdict = LeakVerdict::NoLeak;
    std::uint64_t digestA = 0;
    std::uint64_t digestB = 0;
    /** The secret pair behind the verdict (the leaking pair for Leak,
     * the failing pair for Inconclusive, the last pair for NoLeak). */
    std::uint64_t secretA = 0;
    std::uint64_t secretB = 0;
    /** Human-readable cause when the verdict is Inconclusive. */
    std::string reason;
    /** The slower run's committed cycle count (0 when Inconclusive).
     * The minimizer budgets its probe runs from this: a deletion that
     * un-terminates the gadget fails fast instead of spinning to the
     * full oracle cycle limit. */
    std::uint64_t cycles = 0;

    /** True if the secret left a secret-dependent trace. */
    bool leaked() const { return verdict == LeakVerdict::Leak; }
    bool inconclusive() const
    {
        return verdict == LeakVerdict::Inconclusive;
    }
};

/**
 * The seeded secret-pair list (satellite 3): deterministic function of
 * @p seed. Always contains the fixed structural pairs — adjacent
 * (3, 5), parity-differing (2, 3), MSB-only (0, 1<<63) and
 * all-bits-flipped (0, ~0) — plus @p random_pairs seeded random pairs.
 */
std::vector<SecretPair> defaultSecretPairs(std::uint64_t seed = 1,
                                           unsigned random_pairs = 2);

/**
 * Build the gadget with two different secrets, run both to completion
 * under @p config, validate run health, and diff the widened µarch
 * digests. The commit watchdog is put into throwing mode for these
 * runs so a wedged gadget classifies as Inconclusive instead of
 * aborting the process.
 */
LeakCheck checkLeak(const std::function<Program(std::uint64_t)> &builder,
                    const SimConfig &config, std::uint64_t secret_a = 3,
                    std::uint64_t secret_b = 5);

/**
 * The data words at which @p other's initial values differ from
 * @p first's, as (address, @p other's value) sorted by address. nullopt
 * when the programs differ in anything else: name, entry, any
 * instruction field or the set of initialised data addresses.
 */
std::optional<std::vector<std::pair<Addr, RegValue>>>
dataDifference(const Program &first, const Program &other);

/**
 * Run the oracle over a whole secret-pair list. Each distinct secret is
 * lowered once and simulated at most once, and not at all when the
 * early exit (file comment) lets the first secret's run stand for it.
 * The first leaking pair wins — pair order is deterministic, so so is
 * the reported pair. With no leaking pair, any inconclusive pair makes
 * the whole check Inconclusive; otherwise NoLeak. An empty @p pairs
 * throws std::invalid_argument: a check of no pair proves nothing.
 *
 * @p quiet suppresses the per-pair inconclusive warning — for callers
 * like the minimizer whose probe deletions *expectedly* break gadgets
 * thousands of times; a campaign's primary oracle runs stay loud.
 */
LeakCheck
checkLeakPairs(const std::function<Program(std::uint64_t)> &builder,
               const SimConfig &config,
               const std::vector<SecretPair> &pairs, bool quiet = false);

} // namespace dgsim::security

#endif // DGSIM_SECURITY_LEAK_HH
