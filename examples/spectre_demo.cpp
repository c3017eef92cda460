/**
 * @file
 * Demonstrates the security story end to end:
 *  1. Spectre v1 leaks on the unsafe baseline (the cache digest depends
 *     on the secret).
 *  2. NDA-P, STT and DoM block it.
 *  3. Adding Doppelganger Loads does not re-open the channel
 *     (threat-model transparency, paper §4).
 *  4. The Figure 4a implicit channel: DoM+AP stays safe only because
 *     branches resolve in order (§4.6) — the eager ablation leaks.
 *  5. The Figure 4b register-secret gadget shows the threat-model
 *     difference between DoM and NDA-P/STT (§3).
 *
 * The gadgets are the checked-in seeds corpus/spectre_v1.dgasm,
 * corpus/dom_fig4a.dgasm and corpus/dom_fig4b.dgasm.
 */

#include <cstdio>
#include <functional>
#include <string>

#include "fuzz/dgasm.hh"
#include "security/leak.hh"

namespace
{

using namespace dgsim;

void
report(const char *name, const security::LeakCheck &check, bool expect_leak)
{
    std::printf("  %-44s %-8s (expected %-8s) %s\n", name,
                check.leaked() ? "LEAKS" : "blocked",
                expect_leak ? "LEAKS" : "blocked",
                check.leaked() == expect_leak ? "[ok]" : "[UNEXPECTED]");
}

/** The corpus seed corpus/@p stem.dgasm as a leak-oracle builder. */
std::function<Program(std::uint64_t)>
seed(const std::string &stem)
{
    const fuzz::AttackerIr ir =
        fuzz::loadDgasm(DGSIM_CORPUS_DIR "/" + stem + ".dgasm");
    return [ir](std::uint64_t secret) { return ir.lower(secret); };
}

SimConfig
configFor(Scheme scheme, bool ap, bool eager = false)
{
    SimConfig config;
    config.scheme = scheme;
    config.addressPrediction = ap;
    config.domEagerBranchResolution = eager;
    return config;
}

} // namespace

int
main()
{
    using namespace dgsim;
    using security::checkLeak;
    const auto spectreV1 = seed("spectre_v1");
    const auto fig4a = seed("dom_fig4a");
    const auto fig4b = seed("dom_fig4b");

    std::printf("=== Spectre v1 (bounds-check bypass, universal read "
                "gadget) ===\n");
    report("Unsafe baseline",
           checkLeak(spectreV1, configFor(Scheme::Unsafe, false)),
           true);
    for (Scheme scheme : {Scheme::NdaP, Scheme::Stt, Scheme::Dom}) {
        for (bool ap : {false, true}) {
            const std::string name =
                schemeName(scheme) + (ap ? "+AP (doppelgangers)" : "");
            report(name.c_str(),
                   checkLeak(spectreV1, configFor(scheme, ap)),
                   false);
        }
    }

    std::printf("\n=== Figure 4a: speculative secret steering "
                "address-predicted loads ===\n");
    report("DoM (no AP)",
           checkLeak(fig4a, configFor(Scheme::Dom, false), 2, 3),
           false);
    report("DoM+AP, in-order branch resolution (4.6)",
           checkLeak(fig4a, configFor(Scheme::Dom, true), 2, 3),
           false);
    report("DoM+AP, eager resolution (INSECURE ablation)",
           checkLeak(fig4a, configFor(Scheme::Dom, true, /*eager=*/true), 2,
                     3),
           true);

    std::printf("\n=== Figure 4b: secret residing in a register ===\n");
    report("DoM (register protection)",
           checkLeak(fig4b, configFor(Scheme::Dom, false), 2, 3),
           false);
    report("DoM+AP",
           checkLeak(fig4b, configFor(Scheme::Dom, true), 2, 3),
           false);
    report("NDA-P (register secrets out of scope)",
           checkLeak(fig4b, configFor(Scheme::NdaP, false), 2, 3),
           true);
    report("STT (register secrets out of scope)",
           checkLeak(fig4b, configFor(Scheme::Stt, false), 2, 3),
           true);

    std::printf("\nA \"LEAKS\" row means the final cache-hierarchy state "
                "differed between two runs\nthat were identical except "
                "for the secret value.\n");
    return 0;
}
