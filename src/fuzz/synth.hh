/**
 * @file
 * Attacker-program synthesizer: generates fuzzing candidates from a
 * speculation-primitive vocabulary.
 *
 * Every candidate is a *pure function* of (fuzzSeed, key) — no global
 * state, no clocks — so a campaign can shard candidates by key across
 * workers and any hit can be regenerated anywhere from its two
 * integers (the post-processing pass does exactly that).
 *
 * The generated shape generalizes the hand-written Spectre-v1 seed
 * (corpus/spectre_v1.dgasm): a pinned train/attack loop whose bounds
 * check is mistrained for `trainRounds` rounds and bypassed once, with
 * a randomized transient window drawn from the vocabulary —
 * secret-indexed probe-array loads (with varied value encodings, so
 * different secret bits are transmitted), secret-dependent store
 * addresses, secret-steered branches (nested transient windows) and
 * nested bounds checks — plus randomized committed filler, eviction
 * and spacer geometry. Some draws intentionally produce gadgets that
 * leak under no scheme at all (no probe primitive, no eviction): a
 * useful oracle must prove clean candidates clean, not just find
 * planted leaks.
 */

#ifndef DGSIM_FUZZ_SYNTH_HH
#define DGSIM_FUZZ_SYNTH_HH

#include <cstdint>
#include <string>

#include "fuzz/ir.hh"

namespace dgsim::fuzz
{

/** Deterministic candidate name for @p key, e.g. "fuzz-00000042". */
std::string candidateName(std::uint64_t key);

/** Generate the candidate for (fuzz_seed, key). Pure and total: every
 * key yields a structurally valid, halting program. */
AttackerIr synthesize(std::uint64_t fuzz_seed, std::uint64_t key);

} // namespace dgsim::fuzz

#endif // DGSIM_FUZZ_SYNTH_HH
