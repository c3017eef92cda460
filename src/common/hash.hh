/**
 * @file
 * The one 64-bit FNV-1a content hash behind every digest and identity
 * key: job keys and shard membership, checkpoint checksums, cache and
 * predictor digests, memory-image digests and fuzz seeds.
 *
 * Two variants exist and they give different values, so neither may be
 * swapped for the other without changing every recorded digest:
 * fnv1a() folds in one byte per step (the textbook hash), fnvMix()
 * folds in a whole 64-bit word per step.
 */

#ifndef DGSIM_COMMON_HASH_HH
#define DGSIM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>

namespace dgsim
{

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Byte-wise FNV-1a of @p size bytes at @p data, continuing @p hash. */
inline std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = kFnvOffsetBasis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/** Word-wise FNV step: fold all 64 bits of @p word into @p hash at once. */
constexpr std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t word)
{
    return (hash ^ word) * kFnvPrime;
}

} // namespace dgsim

#endif // DGSIM_COMMON_HASH_HH
