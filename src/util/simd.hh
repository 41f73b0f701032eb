/**
 * @file
 * Runtime-dispatched SIMD kernels for the hot loops.
 *
 * Every identification verdict bottoms out in a handful of
 * word-at-a-time loops: popcounts over AND/AND-NOT/XOR combinations
 * (the dense Algorithm 3 reference and the other metrics), the
 * bounded sparse position-list scans behind both stores and the
 * indexed clusterer, and the decay engine's charged-word mask
 * builder. This header provides those kernels
 * with three implementations selected at runtime — scalar (always
 * available), AVX2, and AVX-512 — behind one dispatch level.
 *
 * Bit-exactness contract: for every kernel and every input, all
 * levels return identical results — identical counts, identical
 * early-exit decisions on the bounded kernels (the bound is checked
 * at the same 16-element block boundaries on every path), and
 * identical charged-word masks. The vector paths are pure
 * speedups; no verdict anywhere in the pipeline can depend on the
 * dispatch level. tests/prop/prop_simd.cc pins this per kernel.
 *
 * Dispatch: the first use reads PCAUSE_SIMD (scalar | avx2 | avx512
 * | auto; unset means auto = best level the CPU supports). A bogus
 * or unsupported value is a fatal configuration error.
 * selectLevel() changes the level programmatically (tests, benches);
 * kernels also take an explicit trailing level for side-by-side
 * comparison without touching global state.
 */

#ifndef PCAUSE_UTIL_SIMD_HH
#define PCAUSE_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace pcause
{
namespace simd
{

/** Instruction-set tiers, ordered weakest to strongest. */
enum class Level
{
    Scalar = 0, //!< portable std::popcount loops — always available
    Avx2 = 1,   //!< 256-bit paths (AVX2)
    Avx512 = 2, //!< 512-bit paths (AVX-512 F+BW+DQ+VL)
};

/** Stable lowercase name of @p level ("scalar", "avx2", "avx512"). */
const char *levelName(Level level);

/** True when the running CPU can execute @p level's kernels. */
bool levelAvailable(Level level);

/** Strongest available level on this CPU. */
Level bestAvailableLevel();

/**
 * The level kernels dispatch to by default. First call initializes
 * from the PCAUSE_SIMD environment variable (fatal on a bogus
 * value); later selectLevel() calls override it.
 */
Level activeLevel();

/**
 * Set the active dispatch level from a spec ("scalar", "avx2",
 * "avx512", or "auto"). Returns an empty string on success, else a
 * diagnostic (unknown name, or a level this CPU lacks) and leaves
 * the active level unchanged. This is the same parser the
 * PCAUSE_SIMD environment override goes through.
 */
std::string selectLevel(const std::string &spec);

/**
 * Apply @p spec exactly as the PCAUSE_SIMD environment
 * initialization does: null/empty means "auto", anything invalid is
 * fatal(). Exposed so tests can exercise the env code path.
 */
void applyEnvSpec(const char *spec);

/**
 * Bound-check granularity of the bounded kernels: the running count
 * is compared against the limit after every block of this many
 * positions, on every dispatch level.
 */
inline constexpr std::size_t boundedBlock = 16;

/** Popcount of words[0..n). */
std::size_t popcountWords(const std::uint64_t *words, std::size_t n,
                          Level level = activeLevel());

/** Popcount of a[i] & b[i] over [0, n). */
std::size_t andCountWords(const std::uint64_t *a, const std::uint64_t *b,
                          std::size_t n, Level level = activeLevel());

/** Popcount of a[i] & ~b[i] over [0, n). */
std::size_t andNotCountWords(const std::uint64_t *a,
                             const std::uint64_t *b, std::size_t n,
                             Level level = activeLevel());

/** Popcount of a[i] ^ b[i] over [0, n). */
std::size_t xorCountWords(const std::uint64_t *a, const std::uint64_t *b,
                          std::size_t n, Level level = activeLevel());

/**
 * Decay-engine mask builder over full words: for each i in [0, n),
 * charged_out[i] = (content[i] ^ defw) when @p stress >= the word's
 * minimum effective retention word_min_eff[i] (promoted to double,
 * matching the scalar engine's compare), else 0. Returns the number
 * of nonzero output words, so callers can skip the per-cell pass
 * when nothing can decay.
 */
std::size_t buildChargedWords(const std::uint64_t *content,
                              std::size_t n, std::uint64_t defw,
                              const float *word_min_eff, double stress,
                              std::uint64_t *charged_out,
                              Level level = activeLevel());

/**
 * Sparse bounded miss count: number of positions pos[0..n) whose
 * bit is clear in the dense bit string @p words, with an early exit
 * once the count exceeds @p limit (checked every boundedBlock
 * positions). Exact when <= @p limit, else a partial count
 * > @p limit; identical across levels.
 */
std::size_t sparseMissCountBounded(const std::uint64_t *words,
                                   const std::uint32_t *pos,
                                   std::size_t n, std::size_t limit,
                                   Level level = activeLevel());

/** Result of sparseInterCountBounded(). */
struct SparseInterScan
{
    std::size_t inter;   //!< set positions seen in pos[0..scanned)
    std::size_t scanned; //!< positions consumed before stopping
};

/**
 * Sparse bounded intersection (the swapped-role kernel): counts
 * positions of pos[0..n) whose bit is set in @p words, stopping at
 * the first boundedBlock boundary where the certified lower bound
 * es_weight - inter - (n - scanned) on the final miss count exceeds
 * @p limit. Requires es_weight >= the number of set positions (the
 * caller passes the dense operand's popcount). scanned == n means
 * `inter` is the exact intersection; identical across levels.
 */
SparseInterScan sparseInterCountBounded(const std::uint64_t *words,
                                        const std::uint32_t *pos,
                                        std::size_t n,
                                        std::size_t es_weight,
                                        std::size_t limit,
                                        Level level = activeLevel());

} // namespace simd
} // namespace pcause

#endif // PCAUSE_UTIL_SIMD_HH
