#include "security/leak.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ckpt/sampler.hh"
#include "common/errors.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "cpu/core.hh"

namespace dgsim::security
{

const char *
verdictName(LeakVerdict verdict)
{
    switch (verdict) {
      case LeakVerdict::NoLeak:
        return "no-leak";
      case LeakVerdict::Leak:
        return "leak";
      case LeakVerdict::Inconclusive:
        return "inconclusive";
    }
    return "?";
}

std::vector<SecretPair>
defaultSecretPairs(std::uint64_t seed, unsigned random_pairs)
{
    std::vector<SecretPair> pairs = {
        {3, 5},                  // the historical adjacent pair
        {2, 3},                  // parity differs (low bit only)
        {0, 1ULL << 63},         // MSB-only channel
        {0, ~std::uint64_t{0}},  // every bit flipped
    };
    Rng rng(seed);
    for (unsigned i = 0; i < random_pairs; ++i) {
        SecretPair pair{rng.next(), rng.next()};
        if (pair.a == pair.b) // astronomically unlikely, but fatal
            pair.b = ~pair.b; // to the relational premise
        pairs.push_back(pair);
    }
    return pairs;
}

namespace
{

/** One secret's run: the result, or the wedge that prevented one. */
struct OracleRun
{
    SimResult result;
    bool wedged = false;
    std::string wedgeReason;
};

/** Run @p program, reporting reads of @p watch's words if non-null. */
OracleRun
runSecret(const Program &program, const SimConfig &config,
          ReadWatch *watch)
{
    OracleRun run;
    try {
        run.result = watch ? runProgram(program, config, *watch)
                           : runProgram(program, config);
    } catch (const WatchdogError &error) {
        run.wedged = true;
        run.wedgeReason = error.what();
    }
    return run;
}

/** Health validation for one pair; nonempty return = inconclusive. */
std::string
healthProblem(const OracleRun &a, const OracleRun &b)
{
    const auto describe = [](const OracleRun &run, char tag) {
        if (run.wedged)
            return std::string("run ") + tag + " tripped the commit "
                   "watchdog (" + run.wedgeReason + ")";
        if (run.result.hitMaxCycles)
            return std::string("run ") + tag + " hit the maxCycles "
                   "limit without committing HALT";
        if (!run.result.halted)
            return std::string("run ") + tag + " stopped before "
                   "committing HALT";
        return std::string();
    };
    std::string problem = describe(a, 'A');
    if (problem.empty())
        problem = describe(b, 'B');
    if (!problem.empty())
        return problem;
    if (a.result.instructions != b.result.instructions) {
        return "secret-dependent architectural divergence: " +
               std::to_string(a.result.instructions) + " vs " +
               std::to_string(b.result.instructions) +
               " committed instructions (the secret steers the "
               "committed path, so any digest difference would be "
               "architectural, not speculative)";
    }
    return std::string();
}

} // namespace

std::optional<std::vector<std::pair<Addr, RegValue>>>
dataDifference(const Program &first, const Program &other)
{
    if (other.name != first.name || other.entry != first.entry ||
        other.text != first.text)
        return std::nullopt;
    const auto first_words = first.initialData.words();
    const auto words = other.initialData.words();
    if (words.size() != first_words.size())
        return std::nullopt;
    std::vector<std::pair<Addr, RegValue>> differing;
    for (std::size_t w = 0; w < words.size(); ++w) {
        if (words[w].first != first_words[w].first)
            return std::nullopt;
        if (words[w].second != first_words[w].second)
            differing.push_back(words[w]);
    }
    return differing;
}

LeakCheck
checkLeakPairs(const std::function<Program(std::uint64_t)> &builder,
               const SimConfig &config,
               const std::vector<SecretPair> &pairs, bool quiet)
{
    if (pairs.empty())
        throw std::invalid_argument(
            "checkLeakPairs: empty secret-pair list (a check that "
            "examined no pair cannot read as no-leak)");

    SimConfig run_config = config;
    if (run_config.maxCycles == 0)
        run_config.maxCycles = 50'000'000;
    // A wedged machine-generated gadget is a classifiable outcome, not
    // a process-fatal bug.
    run_config.watchdogThrows = true;

    // Every distinct secret, in first-use order.
    std::vector<std::uint64_t> secrets;
    for (const SecretPair &pair : pairs) {
        for (std::uint64_t secret : {pair.a, pair.b}) {
            if (std::find(secrets.begin(), secrets.end(), secret) ==
                secrets.end())
                secrets.push_back(secret);
        }
    }

    // Lower each once. The first program is kept whole. Another one that
    // differs from it only in data values is kept as just those words,
    // patched into a copy of the first when it runs, so a column never
    // holds a data image per secret.
    const Program first = builder(secrets[0]);
    std::vector<std::optional<Program>> others(secrets.size());
    std::vector<std::vector<std::pair<Addr, RegValue>>> patches(
        secrets.size());
    std::vector<Addr> watched;
    bool data_only = true;
    for (std::size_t i = 1; i < secrets.size(); ++i) {
        Program program = builder(secrets[i]);
        if (auto diff = dataDifference(first, program)) {
            for (const auto &word : *diff)
                watched.push_back(word.first);
            patches[i] = std::move(*diff);
        } else {
            others[i] = std::move(program);
            data_only = false;
        }
    }
    const auto lowered = [&](std::size_t i) {
        Program program = others[i] ? *others[i] : first;
        for (const auto &[addr, value] : patches[i])
            program.initialData.write(addr, value);
        return program;
    };

    // Each distinct secret is simulated at most once; pairs share runs.
    // The early exit: run the first secret watching the words where the
    // programs differ. A run that never read one is the run of every
    // secret, so it stands for all of them.
    std::vector<std::optional<OracleRun>> runs(secrets.size());
    bool shared = false;
    if (secrets.size() > 1 && data_only &&
        !ckpt::wantsSampledRun(run_config)) {
        ReadWatch watch;
        std::sort(watched.begin(), watched.end());
        watched.erase(std::unique(watched.begin(), watched.end()),
                      watched.end());
        watch.words = std::move(watched);
        runs[0] = runSecret(first, run_config, &watch);
        shared = !watch.read;
    }
    const auto runOf = [&](std::uint64_t secret) -> const OracleRun & {
        std::size_t i = 0;
        if (!shared)
            i = std::find(secrets.begin(), secrets.end(), secret) -
                secrets.begin();
        if (!runs[i])
            runs[i] = runSecret(lowered(i), run_config, nullptr);
        return *runs[i];
    };

    LeakCheck check;
    bool any_inconclusive = false;
    LeakCheck first_inconclusive;
    for (const SecretPair &pair : pairs) {
        const OracleRun &run_a = runOf(pair.a);
        const OracleRun &run_b = runOf(pair.b);

        LeakCheck pair_check;
        pair_check.secretA = pair.a;
        pair_check.secretB = pair.b;
        pair_check.digestA = run_a.wedged ? 0 : run_a.result.uarchDigest;
        pair_check.digestB = run_b.wedged ? 0 : run_b.result.uarchDigest;

        const std::string problem = healthProblem(run_a, run_b);
        if (!problem.empty()) {
            pair_check.verdict = LeakVerdict::Inconclusive;
            pair_check.reason = problem;
            if (!quiet)
                DGSIM_WARN("leak check inconclusive for secrets (" +
                           std::to_string(pair.a) + ", " +
                           std::to_string(pair.b) + "): " + problem);
            if (!any_inconclusive) {
                any_inconclusive = true;
                first_inconclusive = pair_check;
            }
            continue;
        }
        pair_check.cycles =
            std::max(run_a.result.cycles, run_b.result.cycles);

        if (pair_check.digestA != pair_check.digestB) {
            // First leaking pair wins; pair order is deterministic.
            pair_check.verdict = LeakVerdict::Leak;
            return pair_check;
        }
        pair_check.verdict = LeakVerdict::NoLeak;
        check = pair_check;
    }

    // No pair leaked: a single unhealthy pair poisons the whole check —
    // "we couldn't tell" must never read as "proven safe".
    if (any_inconclusive)
        return first_inconclusive;
    return check;
}

LeakCheck
checkLeak(const std::function<Program(std::uint64_t)> &builder,
          const SimConfig &config, std::uint64_t secret_a,
          std::uint64_t secret_b)
{
    return checkLeakPairs(builder, config, {{secret_a, secret_b}});
}

} // namespace dgsim::security
