/**
 * @file
 * The paper's published evaluation numbers, in one place: the figure
 * benches print them, paper_claims_test takes its bounds from them.
 */

#ifndef DGSIM_PAPER_REFERENCE_HH
#define DGSIM_PAPER_REFERENCE_HH

namespace dgsim::paper::reference
{

/** Figures 1/6: a scheme's GMEAN IPC without and with AP, normalized
    to the unsafe baseline, under its matrix column labels. */
struct SchemeGmean
{
    const char *scheme;
    const char *schemeAp;
    double base;
    double ap;
};

inline constexpr SchemeGmean kSchemeGmeans[] = {
    {"NDA-P", "NDA-P+AP", 0.887, 0.935},
    {"STT", "STT+AP", 0.905, 0.951},
    {"DoM", "DoM+AP", 0.818, 0.873},
};

/** §7: Unsafe+AP, "a geomean performance improvement of 0.5%". */
inline constexpr double kUnsafeApGmean = 1.005;

/** Figure 7 (DoM+AP): coverage gmean, max (hmmer) and min (mcf), and
    the accuracy predictions "typically" reach. */
inline constexpr double kCoverageGmean = 0.35;
inline constexpr double kCoverageMax = 0.49;
inline constexpr double kCoverageMin = 0.09;
inline constexpr double kAccuracyTypical = 0.90;

} // namespace dgsim::paper::reference

#endif // DGSIM_PAPER_REFERENCE_HH
